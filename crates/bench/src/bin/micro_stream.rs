//! `micro_stream`: sequential large-file streaming through the block data
//! plane — the workload the striped extent map exists for.
//!
//! One client writes a multi-megabyte file in 64 KiB chunks and then
//! streams it back sequentially, on the paper's *split* configuration
//! (dedicated server cores). Three configurations:
//!
//! - `striped` — `stripe_width = 4`: the file's extent map spreads stripe
//!   service over four servers; writes fan out per-stripe through the
//!   batch transport and reads run the windowed readahead pipeline.
//! - `no readahead` — same extent map, but `readahead_window = 1`: each
//!   stripe fetch completes before the next is sent, so the four servers
//!   never overlap. Isolates window depth from stripe addressing.
//! - `all-home` — the default `stripe_width = 1` paper layout: every block
//!   lives (and is serviced) at the home server; reads go through the
//!   core's private cache, writes are dirty-local until close.
//!
//! The file is 4× the 1 MiB private cache, so the all-home read path
//! misses on every block (an LRU sweep) — this is a *data-bandwidth*
//! comparison, not a cache-hit one.
//!
//! RPCs/MB is the *hard* gate metric (stripe counts are deterministic:
//! ceil(bytes/stripe_unit) reads, the same writes, plus open/close/alloc
//! amortized over the file); cycles/MB is warn-only as usual. The metric
//! keys end in `_rpcs_per_op`/`_cycles_per_op` — the gate's suffix
//! convention — with "op" meaning one MiB moved. Results go to
//! `BENCH_micro_stream.json`; with `HARE_GATE_BASELINE` set the run is
//! gated against the committed baseline first (CI perf smoke).

use fsapi::{Mode, OpenFlags, ProcFs};
use hare_core::{HareConfig, HareInstance};

/// Read chunk: one stripe unit, so the readahead window (not the request
/// size) decides how many fetches are in flight.
const CHUNK: usize = 64 * 1024;

/// Write chunk: four stripe units, so each write call fans its stripes
/// out across all four servers through the batch transport (a write is
/// synchronous — sub-stripe writes would serialize one server at a time).
const WCHUNK: usize = 256 * 1024;

/// File size in MiB, scaled by `HARE_SCALE` (quick still exceeds the
/// 1 MiB private cache so all-home reads stay cold).
fn file_mb() -> usize {
    match std::env::var("HARE_SCALE").as_deref() {
        Ok("quick") => 2,
        _ => 4,
    }
}

struct Phase {
    rpcs_per_mb: f64,
    cycles_per_mb: f64,
}

struct Row {
    name: &'static str,
    write: Phase,
    read: Phase,
}

/// Streams one write pass and one read pass of `/stream/data` on a split
/// machine with `stripe_width` and `readahead_window` set, measuring each
/// as transport exchanges and virtual cycles per MiB (open, close, and
/// block allocation included — they amortize over the file and keep the
/// counts deterministic).
fn measure(name: &'static str, stripe_width: usize, window: usize, cores: usize) -> Row {
    let mb = file_mb();
    let mut cfg = HareConfig::split(cores, cores / 2);
    cfg.stripe_width = stripe_width;
    cfg.readahead_window = window;
    let inst = HareInstance::start(cfg);
    let machine = inst.machine();
    let core = inst.config().app_cores[0];
    let c = inst.new_client(core).unwrap();
    c.mkdir("/stream", Mode::default()).unwrap();
    let chunk = vec![0xabu8; WCHUNK];
    let nchunks = mb * (1 << 20) / WCHUNK;

    machine.sync();
    let (s0, t0) = (machine.msg_stats.sends(), machine.sync());
    let fd = c
        .open(
            "/stream/data",
            OpenFlags::CREAT | OpenFlags::WRONLY,
            Mode::default(),
        )
        .unwrap();
    for _ in 0..nchunks {
        assert_eq!(c.write(fd, &chunk).unwrap(), WCHUNK);
    }
    c.close(fd).unwrap();
    let write = Phase {
        rpcs_per_mb: (machine.msg_stats.sends() - s0) as f64 / 2.0 / mb as f64,
        cycles_per_mb: (machine.sync() - t0) as f64 / mb as f64,
    };

    let (s0, t0) = (machine.msg_stats.sends(), machine.sync());
    let fd = c
        .open("/stream/data", OpenFlags::RDONLY, Mode::default())
        .unwrap();
    let mut buf = vec![0u8; CHUNK];
    let mut total = 0usize;
    loop {
        let n = c.read(fd, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        total += n;
    }
    c.close(fd).unwrap();
    assert_eq!(total, mb << 20, "full file read back");
    let read = Phase {
        rpcs_per_mb: (machine.msg_stats.sends() - s0) as f64 / 2.0 / mb as f64,
        cycles_per_mb: (machine.sync() - t0) as f64 / mb as f64,
    };

    drop(c);
    inst.shutdown();
    Row { name, write, read }
}

fn main() {
    let cores = hare_bench::max_cores().min(8);
    let window = HareConfig::split(cores, cores / 2).readahead_window;
    let rows = [
        measure("striped", 4, window, cores),
        measure("no readahead", 4, 1, cores),
        measure("all-home", 1, window, cores),
    ];

    println!(
        "micro_stream: sequential {} MiB stream, split machine \
         ({cores} cores, {} dedicated servers)\n",
        file_mb(),
        cores / 2
    );
    let mut t = hare_bench::Table::new(&[
        "configuration",
        "write RPCs/MB",
        "write cycles/MB",
        "read RPCs/MB",
        "read cycles/MB",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.2}", r.write.rpcs_per_mb),
            format!("{:.0}", r.write.cycles_per_mb),
            format!("{:.2}", r.read.rpcs_per_mb),
            format!("{:.0}", r.read.cycles_per_mb),
        ]);
    }
    t.print();
    println!(
        "\nstriped sequential read speedup vs all-home: {}",
        hare_bench::ratio(rows[2].read.cycles_per_mb / rows[0].read.cycles_per_mb)
    );

    let configs: Vec<hare_bench::BenchConfig> = rows
        .iter()
        .map(|r| hare_bench::BenchConfig {
            name: r.name.to_string(),
            metrics: vec![
                ("write_mb_rpcs_per_op".into(), r.write.rpcs_per_mb),
                ("write_mb_cycles_per_op".into(), r.write.cycles_per_mb),
                ("read_mb_rpcs_per_op".into(), r.read.rpcs_per_mb),
                ("read_mb_cycles_per_op".into(), r.read.cycles_per_mb),
            ],
        })
        .collect();
    hare_bench::emit::emit("micro_stream", cores, &configs);

    // The tentpole claim: four stripe servers stream one file at least
    // twice as fast as the single home server (virtual wall-clock).
    assert!(
        rows[0].read.cycles_per_mb * 2.0 <= rows[2].read.cycles_per_mb,
        "striped read must be >= 2x all-home ({:.0} vs {:.0} cycles/MB)",
        rows[0].read.cycles_per_mb,
        rows[2].read.cycles_per_mb
    );
    // And the window is load-bearing: readahead depth 1 serializes the
    // stripe servers again.
    assert!(
        rows[0].read.cycles_per_mb < rows[1].read.cycles_per_mb,
        "readahead must beat window=1 ({:.0} vs {:.0} cycles/MB)",
        rows[0].read.cycles_per_mb,
        rows[1].read.cycles_per_mb
    );
}
