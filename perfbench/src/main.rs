//! The Hare benchmark: one seeded command per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload meta_deep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The command builds the workload's inputs from the seed, then repeats
//! "boot a fresh machine, set up, run the measured region, check the
//! outputs" until `--seconds` have passed, and prints one JSON line:
//! with `--trace 0` the end-to-end metrics (medians over repetitions),
//! with `--trace 1` the per-layer metrics of repetitions run with op
//! tracing on, alternated with untraced ones for the overhead and parity
//! checks. The exit code is non-zero when any output check failed.
//! See `README.md` in this directory.

mod build;
mod gen;
mod layers;
mod rep;
mod replay;
mod spans;
mod timed;

use rep::{median, Rep};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 8] = [
    ("v_op_p50_us", "us"),
    ("v_op_p99_us", "us"),
    ("v_ops_per_s", "1/s"),
    ("v_mb_per_s", "MB/s"),
    ("host_cpu_op_p50_us", "us"),
    ("host_cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("workloads.host_wall_op_p50_us", "us");
    add("workloads.host_wall_us_per_op", "us");
    add("workloads.setup_wall_s", "s");
    add("workloads.driver_host_us_per_op", "us");
    add("workloads.fail_ratio", "ratio");
    add("workloads.v_spread_cycles", "cycles");
    add("workloads.trace_overhead_us", "us");
    add("workloads.trace_parity_v_diff_cycles", "cycles");
    for k in rep::OP_KINDS {
        add(&format!("client.{k}.count"), "count");
        add(&format!("client.{k}.v_p50_us"), "us");
        add(&format!("client.{k}.v_p99_us"), "us");
        add(&format!("client.{k}.host_p50_us"), "us");
    }
    add("client.host_p99_us", "us");
    add("client.dircache.hit_ratio", "ratio");
    add("client.dircache.misses_per_op", "count");
    add("client.dircache.invals_per_op", "count");
    add("client.dircache.dentries_per_client_max", "count");
    add("client.busy_share", "ratio");
    add("client.wait_share", "ratio");
    add("client.io.readaheads_per_op", "count");
    add("msg.sends_per_op", "count");
    add("msg.batched_ops_per_op", "count");
    for c in layers::CAUSES {
        add(&format!("msg.cause.{}_per_op", c.name()), "count");
    }
    add("msg.cause.outside_ops_per_op", "count");
    add("msg.cause.anomalies", "count");
    add("msg.trace_parity_sends_diff", "count");
    add("server.ops_per_op", "count");
    add("server.busy_cycles_per_op", "cycles");
    add("server.max_busy_share", "ratio");
    add("server.ops_imbalance", "ratio");
    add("server.live_bytes_per_partition_max_share", "ratio");
    for n in [
        "hit_ratio",
        "misses_per_op",
        "writebacks_per_op",
        "invalidations_per_op",
        "evictions_per_op",
        "dirty_evictions_per_op",
    ] {
        add(
            &format!("nccmem.{n}"),
            if n == "hit_ratio" { "ratio" } else { "count" },
        );
    }
    add("placement.migrations", "count");
    add("placement.replications", "count");
    add("placement.react_windows", "count");
    add("placement.park_replays", "count");
    add("placement.bounces_per_kop", "count");
    add("placement.tick_host_us", "us");
    add("placement.tick_sends_per_tick", "count");
    for l in rep::OPSTAT_LABELS {
        if l == "spawn" {
            add("sched.spawns_per_op", "count");
        } else {
            add(&format!("sched.opstats.{l}_per_op"), "count");
        }
    }
    v
}

const WORKLOADS: [&str; 4] = ["meta_deep", "data_rw", "hotspot_shift", "build_spawn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    timed::epoch();
    let began = Instant::now();
    let seed = args.seed;

    // Inputs: a pure function of the seed.
    enum Inputs {
        Replay(gen::Scenario, gen::Namespace),
        Build(hare_workloads::Scale),
    }
    // Workloads whose virtual outcome repeats exactly for one seed (one
    // operation in flight, no migration racing the servers' threads); the
    // traced run must reproduce it.
    let exact = matches!(args.workload.as_str(), "meta_deep" | "data_rw");
    let replay_of = |sc: gen::Scenario| {
        let ns = sc.expected();
        Inputs::Replay(sc, ns)
    };
    let inputs = match args.workload.as_str() {
        "meta_deep" => replay_of(gen::meta_deep(seed, 1500)),
        "data_rw" => replay_of(gen::data_rw(seed, 600)),
        "hotspot_shift" => replay_of(gen::hotspot_shift(seed, 800)),
        _ => Inputs::Build(build::scale(seed)),
    };
    let run_once = |traced: bool| -> Rep {
        match &inputs {
            Inputs::Replay(sc, ns) => replay::run(sc, ns, traced),
            Inputs::Build(s) => build::run(s, traced),
        }
    };

    // Repeat until the time is up. The traced run alternates untraced and
    // traced repetitions.
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        reps.push(run_once(traced));
        // Peak memory over a fixed amount of work, so it does not depend
        // on how many repetitions fit in the run.
        if reps.len() == MIN_REPS {
            peak_rss = peak_rss_mb();
        }
        let need = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
        if reps.len() >= need
            && began.elapsed().as_secs_f64() >= args.seconds as f64
            && (!args.trace || reps.len().is_multiple_of(2))
        {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.ops.len() as u64).sum();
    let failed: u64 = reps.iter().map(|r| r.failures).sum();
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.mismatches.clone()).collect();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let (plain, traced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| !r.traced);
    let per_rep =
        |set: &[&Rep]| -> Vec<BTreeMap<String, f64>> { set.iter().map(|r| r.metrics()).collect() };
    let med = |ms: &[BTreeMap<String, f64>], k: &str| -> f64 {
        median(&ms.iter().map(|m| m[k]).collect::<Vec<_>>())
    };

    // Exactness: does the virtual outcome repeat across repetitions?
    let spread = |f: fn(&Rep) -> u64, set: &[&Rep]| -> u64 {
        let v: Vec<u64> = set.iter().map(|r| f(r)).collect();
        v.iter().max().unwrap_or(&0) - v.iter().min().unwrap_or(&0)
    };
    let v_spread = spread(|r| r.region_v_cycles, &plain);
    let sends_spread = spread(|r| r.delta.sends, &plain);
    eprintln!(
        "perfbench: {} seed {seed}: {} repetitions; virtual region {} cycles, spread {v_spread} cycles and {sends_spread} sends across untraced repetitions",
        args.workload,
        reps.len(),
        plain[0].region_v_cycles,
    );
    let repeats = v_spread == 0 && sends_spread == 0;
    if exact && !repeats {
        eprintln!(
            "perfbench: note: {} is expected to repeat exactly but did not",
            args.workload
        );
    }

    let mut out: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        let ms = per_rep(&plain);
        for (name, unit) in END_TO_END {
            let v = if name == "peak_rss_mb" {
                peak_rss
            } else {
                med(&ms, name)
            };
            out.push((name.to_string(), v, unit));
        }
    } else {
        let (mp, mt) = (per_rep(&plain), per_rep(&traced));
        let pairs: Vec<(&Rep, &Rep)> = plain.iter().copied().zip(traced.iter().copied()).collect();
        let v_diff = pairs
            .iter()
            .map(|(p, t)| p.region_v_cycles.abs_diff(t.region_v_cycles))
            .max()
            .unwrap_or(0);
        let sends_diff = pairs
            .iter()
            .map(|(p, t)| p.delta.sends.abs_diff(t.delta.sends))
            .max()
            .unwrap_or(0);
        if exact && repeats && (v_diff != 0 || sends_diff != 0) {
            problems.push(format!(
                "tracing parity: the traced run differs from the untraced one by {v_diff} cycles and {sends_diff} sends"
            ));
        }
        // The cause split sums to msg.sends_per_op by construction; what
        // can fail is the classification (anomalies), and on the replays
        // the remainder must cover at least the sends seen during ticks.
        for r in &traced {
            let outside = r.outside_op_sends();
            let replay = matches!(&inputs, Inputs::Replay(..));
            if r.cause_anomalies != 0 || (replay && outside < r.tick_sends as i64) {
                problems.push(format!(
                    "cause split: {outside} sends outside op trees but {} during ticks, {} anomalies",
                    r.tick_sends, r.cause_anomalies
                ));
            }
        }
        let cross: BTreeMap<&str, f64> = [
            ("workloads.v_spread_cycles", v_spread as f64),
            (
                "workloads.trace_overhead_us",
                med(&mt, "host_cpu_op_p50_us") - med(&mp, "host_cpu_op_p50_us"),
            ),
            ("workloads.trace_parity_v_diff_cycles", v_diff as f64),
            ("msg.trace_parity_sends_diff", sends_diff as f64),
        ]
        .into_iter()
        .collect();
        for (name, unit) in per_layer() {
            let v = cross
                .get(name.as_str())
                .copied()
                .unwrap_or_else(|| med(&mt, &name));
            out.push((name, v, unit));
        }
        write_spans(
            &args.workload,
            seed,
            traced.last().expect("a traced repetition"),
        );
    }

    for p in problems.iter().take(20) {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let metrics: Vec<String> = out
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the last traced repetition's host spans next to the benchmark.
fn write_spans(workload: &str, seed: u64, rep: &Rep) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rep.spans.to_chrome_json()));
    match res {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
