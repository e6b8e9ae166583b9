//! Figures 9–14: importance of Hare's five techniques.
//!
//! For each technique, every benchmark runs on the full timeshare machine
//! with the technique enabled and disabled; the ratio (enabled throughput /
//! disabled throughput) is the paper's "relative performance improvement".
//! Figure 9 summarizes min/avg/median/max per technique; Figures 10–14 are
//! the per-benchmark detail, printed when `--detail <technique>` is given.
//!
//! Paper summary rows for reference:
//!
//! | technique | min | avg | median | max |
//! |---|---|---|---|---|
//! | Directory distribution | 0.97 | 1.93 | 1.37 | 5.50 |
//! | Directory broadcast | 0.99 | 1.43 | 1.07 | 3.93 |
//! | Direct cache access | 0.98 | 1.18 | 1.01 | 2.39 |
//! | Directory cache | 0.87 | 1.44 | 1.42 | 2.42 |
//! | Creation affinity | 0.96 | 1.02 | 1.00 | 1.16 |
//!
//! Six further rows ablate this reproduction's own extensions (no paper
//! counterpart): the negative dentry cache, the batched RPC transport,
//! server-side chained path resolution, terminal-op fusion for chained
//! resolution, the dynamic placement subsystem (whose win is skewed
//! hot-directory workloads — `micro_skew` — not the fig suite; the row
//! mainly proves the toggle costs nothing when no migration happens),
//! and read replication of hot shards (whose win is read-heavy skew —
//! `micro_replica` — and which is inert until the rebalancer plants a
//! replica; the row proves the toggle is free on the fig suite). The
//! striped data plane has no toggle row: its ablations are the numeric
//! knobs `stripe_width = 1` (the default) and `readahead_window = 1`,
//! measured by `micro_stream`.
//!
//! `--list` prints the registered toggle keys, one per line — the CI
//! ablation smoke loops over this output, so adding a row here is all it
//! takes to get a new toggle smoked (no workflow edit).

use hare_workloads::Workload;

const TECHNIQUES: [(&str, &str); 11] = [
    ("distribution", "Directory distribution"),
    ("broadcast", "Directory broadcast"),
    ("direct_access", "Direct cache access"),
    ("dircache", "Directory cache"),
    ("affinity", "Creation affinity"),
    ("neg_dircache", "Negative dentry cache"),
    ("batching", "Batched RPC transport"),
    ("chained_resolution", "Chained path resolution"),
    ("fused_terminal", "Fused chain terminal op"),
    ("rebalancing", "Dynamic placement / rebalancing"),
    ("replication", "Read replication of hot shards"),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        // Machine-readable toggle registry for the self-extending CI
        // smoke loop.
        for (key, _) in TECHNIQUES {
            println!("{key}");
        }
        return;
    }
    let detail = args
        .iter()
        .position(|a| a == "--detail")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let s = hare_bench::scale();
    let cores = hare_bench::max_cores();

    let run_set: Vec<(&str, &str)> = match &detail {
        Some(d) => TECHNIQUES.iter().filter(|(k, _)| k == d).copied().collect(),
        None => TECHNIQUES.to_vec(),
    };
    assert!(!run_set.is_empty(), "unknown technique {detail:?}");

    let mut summary = hare_bench::Table::new(&["Technique", "Min", "Avg", "Median", "Max"]);

    // The all-techniques-enabled numbers are shared by every ablation row.
    let mut baseline = std::collections::HashMap::new();
    for wl in Workload::ALL {
        baseline.insert(
            wl.name(),
            hare_bench::run_hare_timeshare(cores, wl, &s).throughput(),
        );
        eprintln!("baseline done: {wl}");
    }

    for (key, label) in run_set {
        let mut ratios = Vec::new();
        let mut per_bench = hare_bench::Table::new(&["benchmark", "with / without"]);
        for wl in Workload::ALL {
            let on = baseline[wl.name()];
            let off = hare_bench::run_hare_without(key, cores, wl, &s).throughput();
            let r = on / off;
            ratios.push(r);
            per_bench.row(vec![wl.name().to_string(), hare_bench::ratio(r)]);
            eprintln!("done: {label} / {wl}");
        }
        let (min, avg, median, max) = hare_bench::summarize(&ratios);
        summary.row(vec![
            label.to_string(),
            hare_bench::ratio(min),
            hare_bench::ratio(avg),
            hare_bench::ratio(median),
            hare_bench::ratio(max),
        ]);
        if detail.is_some() {
            println!("\nFigure detail: throughput of Hare with {label} (normalized to without)\n");
            per_bench.print();
        }
    }

    println!("\nFigure 9: relative improvement from each technique ({cores} cores timeshare)\n");
    summary.print();
}
