//! One repetition of a trace-replay workload: boot, set up, replay the
//! trace with the rebalancer ticking at window boundaries, check the
//! namespace the replay left, shut down.

use crate::gen::{Namespace, Scenario, WINDOW};
use crate::layers::{sends_by_cause, Counters};
use crate::rep::{OpSample, Rep, TRACE_KINDS};
use crate::timed::{self, host_ns, Timed};
use fsapi::{MkdirOpts, Mode, ProcFs};
use hare_core::{
    ClientLib, HareConfig, HareInstance, RebalanceAction, RebalanceCadence, RebalancePolicy,
    Rebalancer,
};
use hare_workloads::trace::{replay, ReplayEvent};
use std::collections::BTreeMap;

/// Runs `sc` once on a fresh `split(8, 4)` machine.
pub fn run(sc: &Scenario, expected: &Namespace, traced: bool) -> Rep {
    let mut rep = Rep {
        traced,
        kinds: TRACE_KINDS.to_vec(),
        cache_property: Some(sc.cache_property),
        ..Rep::default()
    };

    // Set-up: boot, namespace, clients.
    let t_boot = host_ns();
    let cpu_boot = timed::process_cpu_ns();
    let mut cfg = HareConfig::split(8, 4);
    cfg.trace_ops = traced;
    rep.server_cores = cfg.server_cores.clone();
    rep.app_cores = cfg.app_cores.clone();
    let app = cfg.app_cores.clone();
    let inst = HareInstance::start(cfg);
    let machine = inst.machine();
    let t_ns = host_ns();
    let setup = inst.new_client(app[0]).expect("set-up client");
    for d in &sc.dirs {
        setup
            .mkdir_opts(d, Mode::default(), MkdirOpts::CENTRALIZED)
            .unwrap_or_else(|e| panic!("set-up mkdir {d}: {e}"));
    }
    for (p, size) in &sc.files {
        fsapi::write_file(&setup, p, &vec![0xa5; *size as usize])
            .unwrap_or_else(|e| panic!("set-up write {p}: {e}"));
    }
    setup.shutdown();
    drop(setup);
    let t_clients = host_ns();
    let clients: Vec<Timed<ClientLib>> = (0..sc.trace.nclients())
        .map(|i| Timed(inst.new_client(app[i % app.len()]).expect("client")))
        .collect();
    let t_ready = host_ns();
    rep.setup_wall_s = (t_ready - t_boot) as f64 / 1e9;
    rep.setup_cpu_s = (timed::process_cpu_ns() - cpu_boot) as f64 / 1e9;
    if traced {
        rep.spans.add("setup.boot", t_boot, t_ns, 0);
        rep.spans.add("setup.namespace", t_ns, t_clients, 0);
        rep.spans.add("setup.clients", t_clients, t_ready, 0);
    }

    // The measured region.
    // Clients were minted at virtual time 0; they idle until the barrier
    // that opens the region, so no operation is charged for set-up time.
    machine.sync();
    let t0 = machine.sync();
    for c in &clients {
        c.0.vwait(t0);
    }
    machine.otrace.reset();
    let dircache0 = dircache(&clients);
    let before = Counters::read(machine);
    let mut reb = Rebalancer::new(RebalancePolicy::default(), RebalanceCadence::default());
    // When each phase began, and whether the rebalancer acted in it yet.
    let mut phase_begin = [Some(t0), None];
    let mut reacted = [false; 2];
    let mut done_per_client = vec![0usize; clients.len()];
    let mut tick_errors = Vec::new();
    timed::start(false);
    let cpu0 = timed::process_cpu_ns();
    let h0 = host_ns();
    let region = if traced {
        rep.spans.add("replay", h0, h0, 0)
    } else {
        0
    };
    let mut last_event = h0;
    let outcome = replay(&clients, &sc.trace, WINDOW, |ev| match ev {
        ReplayEvent::Op {
            record,
            completed,
            ok,
        } => {
            let now = host_ns();
            let cpu = timed::process_cpu_ns() - timed::last_wait_cpu();
            let start = timed::last_wait();
            let calls = timed::drain();
            let host: u64 = calls.iter().map(|c| c.host_ns).sum();
            rep.call_host_ns += host;
            rep.bytes += calls.iter().map(|c| c.bytes).sum::<u64>();
            rep.failures += u64::from(!ok);
            let kind = TRACE_KINDS
                .iter()
                .position(|k| *k == record.op.keyword())
                .expect("trace kinds cover the generators");
            rep.ops.push(OpSample {
                kind,
                v_cycles: completed - start,
                host_ns: host,
                cpu_ns: cpu,
            });
            if traced {
                let op = rep.spans.add(
                    format!("op.{}", record.op.keyword()),
                    last_event,
                    now,
                    region,
                );
                for c in &calls {
                    let name = format!("call.{}", timed::CALL_KINDS[c.kind as usize]);
                    rep.spans
                        .add(name, c.host_start_ns, c.host_start_ns + c.host_ns, op);
                }
            }
            // Phase 2 begins with the first operation any client runs
            // from it.
            let k = done_per_client[record.client];
            done_per_client[record.client] += 1;
            if sc.phase2.get(record.client) == Some(&k) && phase_begin[1].is_none() {
                phase_begin[1] = Some(start);
            }
            last_event = host_ns();
        }
        ReplayEvent::Window(b) => {
            let driver = &clients[0].0;
            let th0 = host_ns();
            driver.vwait(b);
            let s0 = machine.msg_stats.sends();
            let action = driver.rebalance_tick(&mut reb);
            rep.tick_sends += machine.msg_stats.sends() - s0;
            let th1 = host_ns();
            rep.tick_host_ns.push(th1 - th0);
            if traced {
                rep.spans.add("placement.tick", th0, th1, region);
            }
            match action {
                Ok(Some(a)) => {
                    let phase = usize::from(phase_begin[1].is_some());
                    if !reacted[phase] {
                        reacted[phase] = true;
                        let begun = phase_begin[phase].expect("phase begun");
                        rep.react_windows += b.saturating_sub(begun).div_ceil(WINDOW);
                    }
                    if let RebalanceAction::Replicate(p) = a {
                        rep.replications += 1;
                        // Out-of-band gossip: every client learns the
                        // driver's view of the new read set.
                        if let Some((servers, epoch)) = driver.replica_advert(p.dir) {
                            for c in &clients[1..] {
                                c.0.adopt_replicas(p.dir, servers.clone(), epoch);
                            }
                        }
                    }
                }
                Ok(None) => {}
                Err(e) => tick_errors.push(format!("rebalance tick at {b}: {e}")),
            }
            last_event = host_ns();
        }
    });
    let h1 = host_ns();
    rep.region_cpu_ns = timed::process_cpu_ns() - cpu0;
    timed::stop();
    if traced {
        rep.spans.set_end(region, h1);
    }
    let after = Counters::read(machine);
    let dircache1 = dircache(&clients);
    rep.region_host_ns = h1 - h0;
    rep.region_v_cycles = outcome.end - t0;
    rep.delta = after.since(&before);
    rep.dircache = (
        dircache1.0 - dircache0.0,
        dircache1.1 - dircache0.1,
        dircache1.2 - dircache0.2,
    );
    rep.mismatches = tick_errors;
    assert_eq!(outcome.ops as usize, rep.ops.len(), "one sample per op");
    if traced {
        for t in machine.otrace.op_trees() {
            rep.cause_anomalies += sends_by_cause(&t, &mut rep.cause_sends);
        }
    }

    // Output check, outside the measured region.
    let checker = inst.new_client(app[0]).expect("checker client");
    check(&checker, expected, &mut rep.mismatches);
    checker.shutdown();
    drop(checker);
    drop(clients);
    inst.shutdown();
    rep
}

fn dircache(clients: &[Timed<ClientLib>]) -> (u64, u64, u64) {
    clients.iter().fold((0, 0, 0), |acc, c| {
        let (h, m, i) = c.0.dircache_stats();
        (acc.0 + h, acc.1 + m, acc.2 + i)
    })
}

/// Compares every expected directory's listing, and every file's size,
/// with what the file system holds.
pub fn check<P: ProcFs>(c: &P, expected: &Namespace, out: &mut Vec<String>) {
    for (dir, want) in expected {
        let got = match c.readdir(dir) {
            Ok(entries) => entries
                .into_iter()
                .filter(|e| e.name != "." && e.name != "..")
                .map(|e| e.name)
                .collect::<Vec<_>>(),
            Err(e) => {
                out.push(format!("readdir {dir}: {e}"));
                continue;
            }
        };
        let got: BTreeMap<&str, ()> = got.iter().map(|n| (n.as_str(), ())).collect();
        for name in want.keys() {
            if !got.contains_key(name.as_str()) {
                out.push(format!("{dir}/{name}: missing"));
            }
        }
        for name in got.keys() {
            if !want.contains_key(*name) {
                out.push(format!("{dir}/{name}: unexpected"));
            }
        }
        for (name, size) in want {
            let Some(size) = size else { continue };
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            match c.stat(&path) {
                Ok(st) if st.size == *size => {}
                Ok(st) => out.push(format!("{path}: size {} != {size}", st.size)),
                Err(e) => out.push(format!("stat {path}: {e}")),
            }
        }
    }
}
