//! One repetition of `build_spawn`: the paper's `build linux` through
//! `hare_workloads::run` on a 2-core timeshare `HareSystem` with two
//! worker processes. Every file-system call of every process (including
//! spawned compilers) goes through [`Timed`], so in this workload one
//! operation is one file-system call.

use crate::layers::{sends_by_cause, Counters};
use crate::rep::{OpSample, Rep};
use crate::timed::{self, host_ns, Timed, CALL_KINDS};
use fsapi::{ProcFs, System};
use hare_core::HareConfig;
use hare_sched::{HareProc, HareSystem};
use hare_workloads::{Scale, Workload};
use std::sync::{Arc, Mutex};

/// Cores of the build machine (each runs a file server and processes).
const CORES: usize = 2;
/// Worker processes (`make -j2`).
const NPROCS: usize = 2;

/// The build's size, drawn from the seed: `Scale::bench` with 392–407
/// compilation units over 8 directories.
pub fn scale(seed: u64) -> Scale {
    let mut rng = crate::gen::Rng::new(seed);
    Scale {
        kbuild_units: 392 + rng.range(0, 16) as usize,
        ..Scale::bench()
    }
}

/// A `HareSystem` whose processes are [`Timed`], and which marks the
/// start of the measured region when the workload synchronizes its
/// cores between set-up and run.
struct TimedSystem {
    sys: Arc<HareSystem>,
    /// Counters, host ns, process CPU ns and virtual cycles at the
    /// region's start.
    start: Mutex<Option<(Counters, u64, u64, u64)>>,
}

impl System for TimedSystem {
    type Proc = Timed<HareProc>;

    fn start_proc(&self) -> Timed<HareProc> {
        Timed(self.sys.start_proc())
    }

    fn elapsed_cycles(&self) -> u64 {
        self.sys.elapsed_cycles()
    }

    fn sync_cores(&self) {
        self.sys.sync_cores();
        let machine = self.sys.instance().machine();
        machine.otrace.reset();
        let counters = Counters::read(machine);
        let v = machine.elapsed_cycles();
        timed::start(true);
        let cpu = timed::process_cpu_ns();
        *self.start.lock().expect("region start") = Some((counters, host_ns(), cpu, v));
    }

    fn ncores(&self) -> usize {
        self.sys.ncores()
    }
}

/// Builds once on a fresh machine.
pub fn run(scale: &Scale, traced: bool) -> Rep {
    let mut rep = Rep {
        traced,
        kinds: CALL_KINDS.to_vec(),
        ..Rep::default()
    };
    let t_boot = host_ns();
    let cpu_boot = timed::process_cpu_ns();
    let mut cfg = HareConfig::timeshare(CORES);
    cfg.trace_ops = traced;
    rep.server_cores = cfg.server_cores.clone();
    rep.app_cores = cfg.app_cores.clone();
    let tsys = TimedSystem {
        sys: HareSystem::start(cfg),
        start: Mutex::new(None),
    };
    let result = hare_workloads::run(&tsys, Workload::BuildLinux, NPROCS, scale);
    let h1 = host_ns();
    let cpu1 = timed::process_cpu_ns();
    timed::stop();
    let machine = tsys.sys.instance().machine();
    let after = Counters::read(machine);
    let (before, h0, cpu0, v0) = tsys
        .start
        .lock()
        .expect("region start")
        .take()
        .expect("the workload synchronizes before its measured region");
    rep.setup_wall_s = (h0 - t_boot) as f64 / 1e9;
    rep.setup_cpu_s = (cpu0 - cpu_boot) as f64 / 1e9;
    rep.region_cpu_ns = cpu1 - cpu0;
    let calls = timed::drain();
    for c in &calls {
        rep.ops.push(OpSample {
            kind: c.kind as usize,
            v_cycles: c.v_cycles,
            host_ns: c.host_ns,
            cpu_ns: c.cpu_ns,
        });
        rep.failures += u64::from(!c.ok);
        rep.bytes += c.bytes;
        rep.call_host_ns += c.host_ns;
    }
    rep.region_host_ns = h1 - h0;
    rep.region_v_cycles = machine.elapsed_cycles() - v0;
    rep.delta = after.since(&before);
    if traced {
        rep.spans.add("setup", t_boot, h0, 0);
        let build = rep.spans.add("build", h0, h1, 0);
        for c in &calls {
            let name = format!("call.{}", CALL_KINDS[c.kind as usize]);
            rep.spans
                .add(name, c.host_start_ns, c.host_start_ns + c.host_ns, build);
        }
        for t in machine.otrace.op_trees() {
            rep.cause_anomalies += sends_by_cause(&t, &mut rep.cause_sends);
        }
    }
    match result {
        Ok(r) => {
            rep.opstats = r
                .stats
                .breakdown()
                .into_iter()
                .map(|(label, count, _)| (label, count))
                .collect();
            let checker = tsys.sys.start_proc();
            check(&checker, scale, &mut rep.mismatches);
            checker.lib().shutdown();
        }
        Err(e) => rep.mismatches.push(format!("build failed: {e}")),
    }
    tsys.sys.shutdown();
    rep
}

/// The build's outputs: one object per unit, one archive per directory
/// holding its objects' bytes, and the linked image.
fn check(p: &HareProc, s: &Scale, out: &mut Vec<String>) {
    let size = |path: &str| p.stat(path).map(|st| st.size);
    let mut image = 0;
    for k in 0..s.kbuild_dirs {
        let dir = format!("/obj/d{k}");
        let mut objects = 0;
        for u in (k..s.kbuild_units).step_by(s.kbuild_dirs) {
            match size(&format!("{dir}/c{u}.o")) {
                Ok(4096) => objects += 4096,
                Ok(n) => out.push(format!("{dir}/c{u}.o: size {n} != 4096")),
                Err(e) => out.push(format!("{dir}/c{u}.o: {e}")),
            }
        }
        match p.readdir(&dir) {
            Ok(entries) => {
                let n = entries.iter().filter(|e| e.name.ends_with(".o")).count();
                let want = (k..s.kbuild_units).step_by(s.kbuild_dirs).count();
                if n != want {
                    out.push(format!("{dir}: {n} objects, want {want}"));
                }
            }
            Err(e) => out.push(format!("readdir {dir}: {e}")),
        }
        match size(&format!("{dir}/built-in.a")) {
            Ok(n) if n == objects => image += n,
            Ok(n) => out.push(format!("{dir}/built-in.a: size {n} != {objects}")),
            Err(e) => out.push(format!("{dir}/built-in.a: {e}")),
        }
    }
    let want = image.min(1 << 20);
    match size("/obj/vmlinux") {
        Ok(n) if n == want => {}
        Ok(n) => out.push(format!("/obj/vmlinux: size {n} != {want}")),
        Err(e) => out.push(format!("/obj/vmlinux: {e}")),
    }
}
