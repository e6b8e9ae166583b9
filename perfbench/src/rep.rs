//! What one repetition of a workload measured, and the metrics derived
//! from it.

use crate::layers::{Counters, CAUSES};
use crate::spans::Spans;
use std::collections::BTreeMap;

/// Virtual cycles per virtual µs (2 GHz).
pub const CYCLES_PER_US: f64 = vtime::CYCLES_PER_US as f64;

/// One operation of the measured region.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index into the repetition's kind names.
    pub kind: usize,
    /// Virtual cycles from scheduled start to completion.
    pub v_cycles: u64,
    /// Host nanoseconds spent inside client calls.
    pub host_ns: u64,
    /// Host CPU ns the operation consumed: every thread's on the serial
    /// replays, the calling thread's on the build.
    pub cpu_ns: u64,
}

/// Everything one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub traced: bool,
    /// Names of the op kinds `OpSample::kind` indexes.
    pub kinds: Vec<&'static str>,
    pub ops: Vec<OpSample>,
    pub failures: u64,
    /// Host ns inside client calls, summed.
    pub call_host_ns: u64,
    /// File bytes read plus written.
    pub bytes: u64,
    /// Host and virtual length of the measured region.
    pub region_host_ns: u64,
    pub region_v_cycles: u64,
    /// Process CPU ns over the region.
    pub region_cpu_ns: u64,
    /// Set-up (boot, namespace, clients) in process CPU and wall seconds.
    pub setup_cpu_s: f64,
    pub setup_wall_s: f64,
    /// Counter deltas over the region.
    pub delta: Counters,
    pub server_cores: Vec<usize>,
    pub app_cores: Vec<usize>,
    /// `client::dircache` `(hits, misses, invalidations)` over the region.
    pub dircache: (u64, u64, u64),
    /// Rebalancer ticks: host ns of each call, sends they caused.
    pub tick_host_ns: Vec<u64>,
    pub tick_sends: u64,
    pub replications: u64,
    pub react_windows: u64,
    /// Workload-level syscall counts (`OpStats`) for the build.
    pub opstats: Vec<(&'static str, u64)>,
    /// Sends by cause (traced repetitions), and classification anomalies.
    pub cause_sends: BTreeMap<&'static str, u64>,
    pub cause_anomalies: u64,
    /// The scenario's cache-relevant property.
    pub cache_property: Option<(&'static str, f64)>,
    /// Output-check failures.
    pub mismatches: Vec<String>,
    pub spans: Spans,
}

/// The `p`-th percentile (`p` in 0..=100) of integer samples, as a
/// kernel quantile estimator (Sheather and Marron 1990): the mean of the
/// interpolated quantile function over the rank window `p ± h`, with
/// `h` = 2.5 points, narrowed near the ends to a quarter of the distance
/// to 0 or 100 (`p99` averages ranks 98.75–99.25). The samples are
/// integers (virtual cycles, host ns) and the virtual-time model makes
/// many of them exactly equal, so each run of `c` equal values `x` is
/// first spread evenly over the unit interval around `x` (`x − 0.5 +
/// (i + 0.5)/c`), the usual continuity correction for rounded data.
/// Unlike the plain sample quantile, the estimate then moves smoothly
/// as the shares of tied cost classes change instead of jumping from one
/// class to the next, and one far outlier cannot drag a tail quantile.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let mut d = Vec::with_capacity(v.len());
    for run in v.chunk_by(|a, b| a == b) {
        let c = run.len() as f64;
        d.extend((0..run.len()).map(|i| run[0] as f64 - 0.5 + (i as f64 + 0.5) / c));
    }
    let last = (d.len() - 1) as f64;
    let q = |u: f64| {
        let x = u.clamp(0.0, 1.0) * last;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        d[lo] + (d[hi] - d[lo]) * (x - lo as f64)
    };
    let p = p / 100.0;
    let h = 0.025f64.min(p / 4.0).min((1.0 - p) / 4.0);
    const STEPS: usize = 100;
    (0..=STEPS)
        .map(|k| q(p - h + 2.0 * h * k as f64 / STEPS as f64))
        .sum::<f64>()
        / (STEPS + 1) as f64
}

/// Median of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The trace-op kinds of the replay workloads.
pub const TRACE_KINDS: [&str; 7] = [
    "creat", "read", "append", "stat", "unlink", "rename", "readdir",
];

/// The op kinds the per-kind client metrics cover: the trace kinds, then
/// the build's most frequent calls that are not also trace kinds. On the
/// build an operation is one call, so `read` there is one `read` call.
pub const OP_KINDS: [&str; 11] = [
    "creat", "read", "append", "stat", "unlink", "rename", "readdir", "open", "close", "write",
    "spawn",
];

/// The `OpStats` categories the build issues.
pub const OPSTAT_LABELS: [&str; 9] = [
    "open", "creat", "close", "read", "write", "pipe", "mkdir", "readdir", "spawn",
];

impl Rep {
    /// Sends of the region that no operation's span tree holds: on the
    /// replays the rebalancer's probes and the migrations and replications
    /// it drives; on the build spawn, exit and process registration
    /// traffic. Meaningful on traced repetitions only.
    pub fn outside_op_sends(&self) -> i64 {
        self.delta.sends as i64 - self.cause_sends.values().sum::<u64>() as i64
    }

    /// Every metric this repetition yields on its own, by name.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        let n = self.ops.len() as f64;
        let v_lat: Vec<u64> = self.ops.iter().map(|o| o.v_cycles).collect();
        let host: Vec<u64> = self.ops.iter().map(|o| o.host_ns).collect();
        let v_secs = self.region_v_cycles as f64 / (CYCLES_PER_US * 1e6);

        // End to end.
        put("v_op_p50_us", percentile(&v_lat, 50.0) / CYCLES_PER_US);
        put("v_op_p99_us", percentile(&v_lat, 99.0) / CYCLES_PER_US);
        put("v_ops_per_s", ratio(n, v_secs));
        put("v_mb_per_s", ratio(self.bytes as f64 / 1e6, v_secs));
        let cpu: Vec<u64> = self.ops.iter().map(|o| o.cpu_ns).collect();
        put("host_cpu_op_p50_us", percentile(&cpu, 50.0) / 1e3);
        put(
            "host_cpu_us_per_op",
            ratio(self.region_cpu_ns as f64 / 1e3, n),
        );
        put("setup_s", self.setup_cpu_s);

        // workloads: wall-clock views, and the driver.
        put(
            "workloads.host_wall_op_p50_us",
            percentile(&host, 50.0) / 1e3,
        );
        put(
            "workloads.host_wall_us_per_op",
            ratio(self.region_host_ns as f64 / 1e3, n),
        );
        put("workloads.setup_wall_s", self.setup_wall_s);
        let tick_ns: u64 = self.tick_host_ns.iter().sum();
        let driver_ns = self
            .region_host_ns
            .saturating_sub(self.call_host_ns + tick_ns);
        put(
            "workloads.driver_host_us_per_op",
            ratio(driver_ns as f64 / 1e3, n),
        );
        put("workloads.fail_ratio", ratio(self.failures as f64, n));

        // client.
        for name in OP_KINDS {
            let idx = self.kinds.iter().position(|x| *x == name);
            let of = |f: fn(&OpSample) -> u64| -> Vec<u64> {
                self.ops
                    .iter()
                    .filter(|o| Some(o.kind) == idx)
                    .map(f)
                    .collect()
            };
            let (v, h) = (of(|o| o.v_cycles), of(|o| o.host_ns));
            put(&format!("client.{name}.count"), v.len() as f64);
            put(
                &format!("client.{name}.v_p50_us"),
                percentile(&v, 50.0) / CYCLES_PER_US,
            );
            put(
                &format!("client.{name}.v_p99_us"),
                percentile(&v, 99.0) / CYCLES_PER_US,
            );
            put(
                &format!("client.{name}.host_p50_us"),
                percentile(&h, 50.0) / 1e3,
            );
        }
        put("client.host_p99_us", percentile(&host, 99.0) / 1e3);
        let (dh, dm, di) = self.dircache;
        put(
            "client.dircache.hit_ratio",
            ratio(dh as f64, (dh + dm) as f64),
        );
        put("client.dircache.misses_per_op", ratio(dm as f64, n));
        put("client.dircache.invals_per_op", ratio(di as f64, n));
        let app_busy: u64 = self.app_cores.iter().map(|&c| self.delta.busy[c]).sum();
        let total_lat: u64 = v_lat.iter().sum();
        let busy_share = ratio(app_busy as f64, total_lat as f64);
        put("client.busy_share", busy_share);
        put("client.wait_share", 1.0 - busy_share);
        put(
            "client.io.readaheads_per_op",
            ratio(self.delta.readaheads as f64, n),
        );

        // msg.
        put("msg.sends_per_op", ratio(self.delta.sends as f64, n));
        put(
            "msg.batched_ops_per_op",
            ratio(self.delta.batched as f64, n),
        );
        for c in CAUSES {
            let s = self.cause_sends.get(c.name()).copied().unwrap_or(0);
            put(
                &format!("msg.cause.{}_per_op", c.name()),
                ratio(s as f64, n),
            );
        }
        put(
            "msg.cause.outside_ops_per_op",
            if self.traced {
                ratio(self.outside_op_sends() as f64, n)
            } else {
                0.0
            },
        );
        put("msg.cause.anomalies", self.cause_anomalies as f64);

        // server.
        let sops = &self.delta.server_ops;
        let total_sops: u64 = sops.iter().sum();
        put("server.ops_per_op", ratio(total_sops as f64, n));
        let server_busy: Vec<u64> = self
            .server_cores
            .iter()
            .map(|&c| self.delta.busy[c])
            .collect();
        put(
            "server.busy_cycles_per_op",
            ratio(server_busy.iter().sum::<u64>() as f64, n),
        );
        put(
            "server.max_busy_share",
            ratio(
                server_busy.iter().copied().max().unwrap_or(0) as f64,
                self.region_v_cycles as f64,
            ),
        );
        let mean = ratio(total_sops as f64, sops.len() as f64);
        put(
            "server.ops_imbalance",
            ratio(sops.iter().copied().max().unwrap_or(0) as f64, mean),
        );

        // nccmem.
        let c = &self.delta.cache;
        put("nccmem.hit_ratio", c.hit_ratio());
        put("nccmem.misses_per_op", ratio(c.misses as f64, n));
        put("nccmem.writebacks_per_op", ratio(c.writebacks as f64, n));
        put(
            "nccmem.invalidations_per_op",
            ratio(c.invalidations as f64, n),
        );
        put("nccmem.evictions_per_op", ratio(c.evictions as f64, n));
        put(
            "nccmem.dirty_evictions_per_op",
            ratio(c.dirty_evictions as f64, n),
        );

        // placement.
        put("placement.migrations", self.delta.migrations as f64);
        put("placement.replications", self.replications as f64);
        put("placement.react_windows", self.react_windows as f64);
        put("placement.park_replays", self.delta.park_replays as f64);
        put(
            "placement.bounces_per_kop",
            ratio(self.delta.bounces as f64 * 1e3, n),
        );
        let ticks: Vec<u64> = self.tick_host_ns.clone();
        put("placement.tick_host_us", percentile(&ticks, 50.0) / 1e3);
        put(
            "placement.tick_sends_per_tick",
            ratio(self.tick_sends as f64, ticks.len() as f64),
        );

        // sched.
        for label in OPSTAT_LABELS {
            let count = self
                .opstats
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0, |(_, c)| *c);
            let key = if label == "spawn" {
                "sched.spawns_per_op".to_string()
            } else {
                format!("sched.opstats.{label}_per_op")
            };
            put(&key, ratio(count as f64, n));
        }

        // Properties of the inputs.
        for name in [
            "client.dircache.dentries_per_client_max",
            "server.live_bytes_per_partition_max_share",
        ] {
            put(name, 0.0);
        }
        if let Some((name, v)) = self.cache_property {
            put(name, v);
        }
        m
    }
}
