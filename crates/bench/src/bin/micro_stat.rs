//! `micro_stat`: RPCs-per-op and virtual cycles-per-op for the cold-cache
//! `stat` hot path and the batched readdir+stat (`ls -l`) pattern, per
//! technique configuration.
//!
//! This is the measurement harness for the stat that rides the lookup and
//! the batched RPC transport: it reports what one cold-cache `stat()`
//! costs (one exchange for the resolution chain plus the fused stat when
//! the final dentry shard also stores the inode), and what
//! listing-and-statting a distributed directory costs (the batching win is
//! one transport exchange per server instead of one RPC per entry).
//! Results are printed as a table and written to `BENCH_micro_stat.json`
//! so the repository keeps a measured trajectory; with
//! `HARE_GATE_BASELINE` set, the run is gated against the committed
//! baseline first (CI perf smoke).

use fsapi::{MkdirOpts, Mode, ProcFs};
use hare_core::{HareConfig, HareInstance, Techniques};

/// One configuration's measurements.
struct Row {
    name: &'static str,
    stat_rpcs: f64,
    stat_cycles: f64,
    lsl_rpcs: f64,
    lsl_cycles: f64,
}

/// Iterations scaled by `HARE_SCALE` (quick for CI smoke, bench for real
/// numbers).
fn iters() -> usize {
    match std::env::var("HARE_SCALE").as_deref() {
        Ok("quick") => 4,
        _ => 16,
    }
}

fn measure(name: &'static str, techniques: Techniques, cores: usize) -> Row {
    let rounds = iters();
    let nfiles = 32usize;
    let mut cfg = HareConfig::timeshare(cores);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);

    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/stat/bench", MkdirOpts::default()).unwrap();
    // The ls -l target: a *distributed* directory, so the listing fans out
    // to every server and the per-entry stats spread over inode servers.
    setup
        .mkdir_opts("/stat/bench/dist", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    for i in 0..nfiles {
        fsapi::write_file(&setup, &format!("/stat/bench/f{i}"), b"x").unwrap();
        fsapi::write_file(&setup, &format!("/stat/bench/dist/e{i}"), b"x").unwrap();
    }
    drop(setup);

    // Cold-cache stat: a fresh client per round so every stat resolves
    // every component with real RPCs.
    let mut stat_sends = 0u64;
    let mut stat_cycles = 0u64;
    let nstats = (rounds * nfiles) as f64;
    for _ in 0..rounds {
        let c = inst.new_client(0).unwrap();
        for i in 0..nfiles {
            let path = format!("/stat/bench/f{i}");
            let s0 = inst.machine().msg_stats.sends();
            let t0 = c.vnow();
            c.stat(&path).unwrap();
            stat_sends += inst.machine().msg_stats.sends() - s0;
            stat_cycles += c.vnow() - t0;
        }
        drop(c);
    }

    // readdir+stat of the distributed directory (the `ls -l` pattern),
    // cold cache per round. RPCs are counted per readdir_plus call: with
    // batching the per-entry stats collapse to one exchange per server.
    let mut lsl_sends = 0u64;
    let mut lsl_cycles = 0u64;
    for _ in 0..rounds {
        let c = inst.new_client(0).unwrap();
        let s0 = inst.machine().msg_stats.sends();
        let t0 = c.vnow();
        let listed = c.readdir_plus("/stat/bench/dist").unwrap();
        assert_eq!(listed.len(), nfiles);
        lsl_sends += inst.machine().msg_stats.sends() - s0;
        lsl_cycles += c.vnow() - t0;
        drop(c);
    }
    inst.shutdown();

    Row {
        name,
        // Two sends per RPC / transport exchange (request + reply).
        stat_rpcs: stat_sends as f64 / 2.0 / nstats,
        stat_cycles: stat_cycles as f64 / nstats,
        lsl_rpcs: lsl_sends as f64 / 2.0 / rounds as f64,
        lsl_cycles: lsl_cycles as f64 / rounds as f64,
    }
}

/// Gate explain hook: reruns one cold-cache stat and one batched
/// readdir+stat with op tracing enabled and returns the span trees.
fn explain(cores: usize) -> Option<hare_bench::OpExplain> {
    let mut cfg = HareConfig::timeshare(cores);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/stat/bench", MkdirOpts::default()).unwrap();
    setup
        .mkdir_opts("/stat/bench/dist", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    fsapi::write_file(&setup, "/stat/bench/f0", b"x").unwrap();
    fsapi::write_file(&setup, "/stat/bench/dist/e0", b"x").unwrap();
    drop(setup);
    // Only the measured ops should appear in the dump, not the setup.
    inst.machine().otrace.reset();
    let c = inst.new_client(0).unwrap();
    c.stat("/stat/bench/f0").unwrap();
    c.readdir_plus("/stat/bench/dist").unwrap();
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
        measure("no batching", Techniques::without("batching"), cores),
        measure("no dircache", Techniques::without("dircache"), cores),
    ];

    println!("micro_stat: cold stat and batched ls -l hot paths ({cores} cores timeshare)\n");
    let mut t = hare_bench::Table::new(&[
        "configuration",
        "stat RPCs/op",
        "stat cycles/op",
        "ls-l exchanges/call",
        "ls-l cycles/call",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.2}", r.stat_rpcs),
            format!("{:.0}", r.stat_cycles),
            format!("{:.2}", r.lsl_rpcs),
            format!("{:.0}", r.lsl_cycles),
        ]);
    }
    t.print();

    let configs: Vec<hare_bench::BenchConfig> = rows
        .iter()
        .map(|r| hare_bench::BenchConfig {
            name: r.name.to_string(),
            metrics: vec![
                ("stat_rpcs_per_op".into(), r.stat_rpcs),
                ("stat_cycles_per_op".into(), r.stat_cycles),
                ("lsl_rpcs_per_op".into(), r.lsl_rpcs),
                ("lsl_cycles_per_op".into(), r.lsl_cycles),
            ],
        })
        .collect();
    hare_bench::emit::emit_explained("micro_stat", cores, &configs, || explain(cores));

    // The whole point of batching: strictly fewer exchanges per ls -l.
    assert!(
        rows[0].lsl_rpcs < rows[1].lsl_rpcs,
        "batched readdir+stat must save exchanges ({:.2} vs {:.2})",
        rows[0].lsl_rpcs,
        rows[1].lsl_rpcs
    );
}
