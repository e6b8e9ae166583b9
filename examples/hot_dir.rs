//! A skewed mail-spool workload that triggers the dynamic placement
//! subsystem: every delivery agent hammers one *centralized* spool
//! directory, pinning a single file server while the rest of the machine
//! idles. One load-aware rebalance pass migrates the spool's dentry shard
//! to the least-loaded server — live, with no locks the agents can see —
//! and the next delivery round runs entirely against the new owner; the
//! few residual operations at the old home are the one-`NotOwner`-bounce
//! each stale agent pays to learn the new route.
//!
//! ```sh
//! cargo run --example hot_dir
//! ```

use fsapi::{MkdirOpts, Mode, OpenFlags, ProcFs};
use hare::core::placement::{RebalanceAction, RebalanceCadence, RebalancePolicy, Rebalancer};
use hare::{HareConfig, HareInstance};
use std::sync::Arc;

const AGENTS: usize = 6;
const MSGS_PER_AGENT: usize = 40;

/// Per-server operation counts since `base`, rendered as a bar chart.
fn print_loads(inst: &HareInstance, base: &[u64], label: &str) {
    println!("\nper-server load ({label}):");
    let now = inst.machine().server_ops();
    for (s, (a, b)) in now.iter().zip(base).enumerate() {
        let n = a - b;
        println!(
            "  server {s}: {:5} ops  {}",
            n,
            "#".repeat((n / 20) as usize)
        );
    }
}

/// One delivery round: every agent writes, stats, and removes its
/// messages in the shared spool.
fn deliver(inst: &Arc<HareInstance>, round: usize) {
    let cores = inst.config().app_cores.clone();
    let mut joins = Vec::new();
    for a in 0..AGENTS {
        let inst = Arc::clone(inst);
        let core = cores[a % cores.len()];
        joins.push(std::thread::spawn(move || {
            let agent = inst.new_client(core).unwrap();
            for m in 0..MSGS_PER_AGENT {
                let msg = format!("/spool/r{round}a{a}m{m}");
                let fd = agent
                    .open(&msg, OpenFlags::CREAT | OpenFlags::WRONLY, Mode::default())
                    .unwrap();
                agent.write(fd, b"Subject: load\n\nhello\n").unwrap();
                agent.close(fd).unwrap();
                agent.stat(&msg).unwrap();
                agent.unlink(&msg).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

fn main() {
    // The paper's split configuration: 4 dedicated servers, 4 app cores.
    let inst = HareInstance::start(HareConfig::split(8, 4));
    let admin = inst.new_client(inst.config().app_cores[0]).unwrap();

    // A centralized spool: every entry lives at the directory's home
    // server — the skew the rebalancer exists for. (A distributed spool
    // would hash its entries across all servers up front.)
    admin
        .mkdir_opts("/spool", Mode::default(), MkdirOpts::default())
        .unwrap();
    let home = admin.dir_owner("/spool").unwrap();
    println!("spool is centralized at server {home}");

    let base = inst.machine().server_ops();
    deliver(&inst, 0);
    print_loads(&inst, &base, "skewed: one hot directory");

    // One load-aware pass: read every server's counters, migrate the hot
    // directory's shard to the least-loaded server. The cadence acts on
    // the first probe that sees the skew.
    let cadence = RebalanceCadence {
        probe_interval: 0,
        confirm: 1,
        cooldown: 0,
    };
    let mut reb = Rebalancer::new(RebalancePolicy::default(), cadence);
    match admin.rebalance_tick(&mut reb).unwrap() {
        Some(RebalanceAction::Migrate(plan)) => println!(
            "\nrebalanced: migrated /spool from server {} to server {}",
            plan.from, plan.to
        ),
        other => println!("\nrebalancer did not migrate: {other:?}"),
    }
    let owner = admin.dir_owner("/spool").unwrap();
    println!("spool now lives at server {owner}");
    assert_ne!(owner, home, "the hot spool must have moved");

    let base = inst.machine().server_ops();
    deliver(&inst, 1);
    print_loads(&inst, &base, "after rebalance");

    drop(admin);
    inst.shutdown();
}
