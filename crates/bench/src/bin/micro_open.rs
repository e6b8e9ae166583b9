//! `micro_open`: RPCs-per-open and virtual cycles-per-op for the
//! open-existing hot path and the ENOENT probe path, per technique
//! configuration.
//!
//! This is the measurement harness for the open hot path (the lookup that
//! carries the open, and the `neg_dircache` extension): it reports how
//! many messages and virtual cycles one cold-cache `open()` of an existing
//! file costs, and what a repeated failing lookup (the `O_CREAT` probe
//! idiom) costs, with the cache techniques on and off. Results are printed
//! as a table and written to `BENCH_micro_open.json` so the repository
//! keeps a measured trajectory of the open path across PRs.

use fsapi::{Errno, MkdirOpts, Mode, OpenFlags, ProcFs};
use hare_core::{HareConfig, HareInstance, Techniques};

/// One configuration's measurements.
struct Row {
    name: &'static str,
    open_rpcs: f64,
    open_cycles: f64,
    probe_rpcs: f64,
    probe_cycles: f64,
}

/// Iterations scaled by `HARE_SCALE` (quick for CI smoke, bench for real
/// numbers).
fn iters() -> (usize, usize) {
    match std::env::var("HARE_SCALE").as_deref() {
        Ok("quick") => (4, 64),
        _ => (16, 512),
    }
}

fn measure(name: &'static str, techniques: Techniques, cores: usize) -> Row {
    let (rounds, probes) = iters();
    let nfiles = 16usize;
    let mut cfg = HareConfig::timeshare(cores);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);

    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/open/bench", MkdirOpts::default()).unwrap();
    for i in 0..nfiles {
        fsapi::write_file(&setup, &format!("/open/bench/f{i}"), b"x").unwrap();
    }
    drop(setup);

    // Open-existing, cold cache: a fresh client per round so every open
    // resolves every component with real RPCs.
    let mut open_sends = 0u64;
    let mut open_cycles = 0u64;
    let nopens = (rounds * nfiles) as f64;
    for _ in 0..rounds {
        let c = inst.new_client(0).unwrap();
        for i in 0..nfiles {
            let path = format!("/open/bench/f{i}");
            let s0 = inst.machine().msg_stats.sends();
            let t0 = c.vnow();
            let fd = c.open(&path, OpenFlags::RDONLY, Mode::default()).unwrap();
            open_sends += inst.machine().msg_stats.sends() - s0;
            open_cycles += c.vnow() - t0;
            c.close(fd).unwrap();
        }
        drop(c);
    }

    // ENOENT probes: one client re-asking about the same absent name (the
    // negative cache answers every probe after the first locally).
    let c = inst.new_client(0).unwrap();
    assert_eq!(
        c.stat("/open/bench/missing").unwrap_err(),
        Errno::ENOENT,
        "warm the negative entry"
    );
    let s0 = inst.machine().msg_stats.sends();
    let t0 = c.vnow();
    for _ in 0..probes {
        assert_eq!(c.stat("/open/bench/missing").unwrap_err(), Errno::ENOENT);
    }
    let probe_sends = inst.machine().msg_stats.sends() - s0;
    let probe_cycles = c.vnow() - t0;
    drop(c);
    inst.shutdown();

    Row {
        name,
        // Two sends per RPC (request + reply).
        open_rpcs: open_sends as f64 / 2.0 / nopens,
        open_cycles: open_cycles as f64 / nopens,
        probe_rpcs: probe_sends as f64 / 2.0 / probes as f64,
        probe_cycles: probe_cycles as f64 / probes as f64,
    }
}

/// Gate explain hook: reruns one cold-cache open with op tracing enabled
/// and returns the span trees, so a failed gate ships the causal
/// breakdown of where the open path's RPCs went.
fn explain(cores: usize) -> Option<hare_bench::OpExplain> {
    let mut cfg = HareConfig::timeshare(cores);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/open/bench", MkdirOpts::default()).unwrap();
    fsapi::write_file(&setup, "/open/bench/f0", b"x").unwrap();
    drop(setup);
    // Only the measured op should appear in the dump, not the setup.
    inst.machine().otrace.reset();
    let c = inst.new_client(0).unwrap();
    let fd = c
        .open("/open/bench/f0", OpenFlags::RDONLY, Mode::default())
        .unwrap();
    c.close(fd).unwrap();
    drop(c);
    let tracer = &inst.machine().otrace;
    let out = hare_bench::OpExplain {
        chrome_json: tracer.to_chrome_json(),
        worst: tracer.explain_worst(),
    };
    inst.shutdown();
    Some(out)
}

fn main() {
    let cores = hare_bench::max_cores().min(8);
    let rows = [
        measure("all", Techniques::default(), cores),
        measure(
            "no neg_dircache",
            Techniques::without("neg_dircache"),
            cores,
        ),
        measure("no dircache", Techniques::without("dircache"), cores),
    ];

    println!("micro_open: open-existing and ENOENT-probe hot paths ({cores} cores timeshare)\n");
    let mut t = hare_bench::Table::new(&[
        "configuration",
        "open RPCs/op",
        "open cycles/op",
        "probe RPCs/op",
        "probe cycles/op",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.2}", r.open_rpcs),
            format!("{:.0}", r.open_cycles),
            format!("{:.2}", r.probe_rpcs),
            format!("{:.0}", r.probe_cycles),
        ]);
    }
    t.print();

    // Machine-readable trajectory point for the repository, gated against
    // the committed baseline when HARE_GATE_BASELINE is set (the gate runs
    // before the file is rewritten, so a failing run never clobbers the
    // baseline it failed against).
    let configs: Vec<hare_bench::BenchConfig> = rows
        .iter()
        .map(|r| hare_bench::BenchConfig {
            name: r.name.to_string(),
            metrics: vec![
                ("open_rpcs_per_op".into(), r.open_rpcs),
                ("open_cycles_per_op".into(), r.open_cycles),
                ("probe_rpcs_per_op".into(), r.probe_rpcs),
                ("probe_cycles_per_op".into(), r.probe_cycles),
            ],
        })
        .collect();
    hare_bench::emit::emit_explained("micro_open", cores, &configs, || explain(cores));

    // The whole point of the negative cache: strictly fewer probe RPCs.
    assert!(
        rows[0].probe_rpcs < rows[1].probe_rpcs,
        "negative cache must save probe RPCs ({:.2} vs {:.2})",
        rows[0].probe_rpcs,
        rows[1].probe_rpcs
    );
}
