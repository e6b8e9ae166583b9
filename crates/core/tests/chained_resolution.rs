//! Exchange-count and protocol tests for server-side chained path
//! resolution (`LookupPath` forwarding) and its fused terminal op.
//!
//! Counting convention: `MsgStats::sends()` counts every message — the
//! client's request, each server-to-server forward, and the final reply.
//! A chained resolution of p components spread over r *runs* of
//! co-located components therefore costs r + 1 messages (one client send,
//! r - 1 forwards, one reply), versus 2p messages for the per-component
//! walk. With terminal-op fusion the *whole cold stat* — resolution plus
//! the final coalesced stat — rides one chain, so the end-to-end cost is
//! r + 1 messages over all p components (plus a StatInode round trip only
//! when the terminal inode lives away from the final chain server). The
//! expected counts below are computed from the actual shard placement via
//! the exported routing function, so the tests hold for any hash layout.

use fsapi::{Errno, MkdirOpts, Mode, ProcFs, Stat};
use hare_core::proto::{Reply, Request, ServerMsg, TerminalOp};
use hare_core::{dentry_shard, HareConfig, HareInstance, InodeId, Techniques};
use std::sync::Arc;

/// Creates a chain of *distributed* directories under `/` with a regular
/// file in the deepest one, `depth` components in total (so `depth - 1`
/// directories), and returns the shard server of every component —
/// including the file's — plus the file's path.
///
/// Component names are free-form unless `want_shards` pins, per level, the
/// server the component's dentry must hash to (names are then brute-forced
/// against the exported routing function; the last entry pins the file).
fn build_tree(
    inst: &Arc<HareInstance>,
    depth: usize,
    want_shards: Option<&[u16]>,
) -> (Vec<u16>, String) {
    assert!(depth >= 1);
    if let Some(w) = want_shards {
        assert_eq!(w.len(), depth, "one pinned shard per component");
    }
    let nservers = inst.servers().len();
    let setup = inst.new_client(0).unwrap();
    let mut path = String::new();
    let mut parent = InodeId::ROOT;
    let mut shards = Vec::new();
    for level in 0..depth - 1 {
        let name = match want_shards {
            Some(w) => (0..)
                .map(|i| format!("c{level}x{i}"))
                .find(|n| dentry_shard(parent, true, n, nservers) == w[level])
                .unwrap(),
            None => format!("c{level}"),
        };
        shards.push(dentry_shard(parent, true, &name, nservers));
        path = format!("{path}/{name}");
        setup
            .mkdir_opts(&path, Mode::default(), MkdirOpts::DISTRIBUTED)
            .unwrap();
        let st = setup.stat(&path).unwrap();
        parent = InodeId {
            server: st.server,
            num: st.ino,
        };
    }
    let fname = match want_shards {
        Some(w) => (0..)
            .map(|i| format!("fx{i}"))
            .find(|n| dentry_shard(parent, true, n, nservers) == w[depth - 1])
            .unwrap(),
        None => "f".to_string(),
    };
    shards.push(dentry_shard(parent, true, &fname, nservers));
    let file = format!("{path}/{fname}");
    fsapi::write_file(&setup, &file, b"x").unwrap();
    drop(setup);
    (shards, file)
}

/// Messages for one cold-cache `stat` of the deep file, plus the stat
/// itself (whose `server` field tells where the terminal inode lives).
fn cold_stat(inst: &Arc<HareInstance>, file: &str) -> (u64, Stat) {
    let prober = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let st = prober.stat(file).unwrap();
    assert_eq!(st.size, 1);
    let delta = inst.machine().msg_stats.sends() - before;
    drop(prober);
    (delta, st)
}

/// Number of runs of consecutive equal shards (the chain's hop count + 1).
fn runs(shards: &[u16]) -> u64 {
    if shards.is_empty() {
        return 0;
    }
    1 + shards.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

/// The expected message count for a cold stat of a file whose path
/// components (file included) hash to `shards` and whose inode lives on
/// `ino_server`.
fn expected_sends(shards: &[u16], ino_server: u16, chained: bool, fused: bool) -> u64 {
    let p = shards.len();
    // A StatInode round trip completes the stat whenever the terminal
    // inode is not stored by the server answering the final component.
    let extra = if ino_server != *shards.last().unwrap() {
        2
    } else {
        0
    };
    if chained && fused {
        // The whole operation rides the chain (or, for a single
        // component, the Lookup carrying the stat): one end-to-end
        // exchange per run of co-located components.
        let resolve = if p >= 2 { runs(shards) + 1 } else { 2 };
        return resolve + extra;
    }
    let dirs = &shards[..p - 1];
    let resolve = if chained && dirs.len() >= 2 {
        runs(dirs) + 1
    } else {
        2 * dirs.len() as u64
    };
    // ... plus the round trip of the final component's Lookup, which
    // carries the stat.
    resolve + 2 + extra
}

#[test]
fn chained_exchange_counts_match_shard_runs_across_depths_and_servers() {
    // Depths 1/4/8 across 1/2/8 servers, with chaining and fusion ablated
    // one at a time. Depth counts the full path components; the file is
    // the last one.
    for &nservers in &[1usize, 2, 8] {
        for &depth in &[1usize, 4, 8] {
            for &(chained, fused) in &[(true, true), (true, false), (false, true)] {
                let mut cfg = HareConfig::timeshare(nservers);
                cfg.techniques = match (chained, fused) {
                    (true, true) => Techniques::default(),
                    (true, false) => Techniques::without("fused_terminal"),
                    (false, _) => Techniques::without("chained_resolution"),
                };
                let inst = HareInstance::start(cfg);
                let (shards, file) = build_tree(&inst, depth, None);
                let (got, st) = cold_stat(&inst, &file);
                let want = expected_sends(&shards, st.server, chained, fused);
                assert_eq!(
                    got, want,
                    "depth {depth}, {nservers} servers, chained={chained}, \
                     fused={fused}, shards {shards:?}, ino@{}",
                    st.server
                );
                inst.shutdown();
            }
        }
    }
}

#[test]
fn cold_depth8_stat_with_aligned_shards_is_one_end_to_end_exchange() {
    // The headline acceptance: every component of an 8-deep path hashes
    // to the same server of a 2-server machine, and the terminal inode
    // lives there too (single-socket affinity) — the cold stat is ONE
    // end-to-end exchange: the request and the fused reply, no forwards,
    // no follow-up.
    let inst = HareInstance::start(HareConfig::timeshare(2));
    let (shards, file) = build_tree(&inst, 8, Some(&[1; 8]));
    assert_eq!(runs(&shards), 1);
    let (got, st) = cold_stat(&inst, &file);
    assert_eq!(st.server, 1, "affinity keeps the inode at the shard");
    assert_eq!(got, 2, "request + fused reply, nothing else");
    inst.shutdown();
}

#[test]
fn eight_deep_path_on_two_servers_resolves_in_three_messages() {
    // An 8-deep path whose components live on two servers (one boundary:
    // four components each, the file on the second run): the whole cold
    // stat is 3 messages — request, one forward, fused reply — instead of
    // the 18 the per-component walk pays.
    let inst = HareInstance::start(HareConfig::timeshare(2));
    let (shards, file) = build_tree(&inst, 8, Some(&[0, 0, 0, 0, 1, 1, 1, 1]));
    assert_eq!(runs(&shards), 2);
    let (got, _) = cold_stat(&inst, &file);
    assert_eq!(got, 3);
    inst.shutdown();

    // The same tree without chaining: one round trip per component.
    let mut cfg = HareConfig::timeshare(2);
    cfg.techniques = Techniques::without("chained_resolution");
    let inst = HareInstance::start(cfg);
    let (_, file) = build_tree(&inst, 8, Some(&[0, 0, 0, 0, 1, 1, 1, 1]));
    let (got, _) = cold_stat(&inst, &file);
    assert_eq!(got, 2 * 8);
    inst.shutdown();
}

#[test]
fn forwarding_chain_may_revisit_a_server_and_terminates() {
    // Shards alternate 0 → 1 → 0 → 0: the chain *revisits* server 0,
    // which is normal (termination comes from per-hop progress, not visit
    // sets). Three runs: request + 2 forwards + fused reply = 4 messages.
    let inst = HareInstance::start(HareConfig::timeshare(2));
    let (shards, file) = build_tree(&inst, 4, Some(&[0, 1, 0, 0]));
    assert_eq!(runs(&shards), 3);
    let (got, _) = cold_stat(&inst, &file);
    assert_eq!(got, 4);
    inst.shutdown();
}

#[test]
fn chain_miss_is_cached_negatively() {
    // A chained walk that dies with ENOENT mid-path must cache the miss,
    // so the repeat probe costs zero messages — and the prefix it did
    // resolve must be cached too.
    let inst = HareInstance::start(HareConfig::timeshare(4));
    let (_, file) = build_tree(&inst, 5, None);
    let dir = file.rsplit_once('/').unwrap().0.to_string();
    let missing = format!("{dir}/ghost/deeper");
    let prober = inst.new_client(0).unwrap();
    assert_eq!(prober.stat(&missing).unwrap_err(), Errno::ENOENT);
    let before = inst.machine().msg_stats.sends();
    assert_eq!(prober.stat(&missing).unwrap_err(), Errno::ENOENT);
    assert_eq!(
        inst.machine().msg_stats.sends() - before,
        0,
        "repeat miss after a chain stop must be answered locally"
    );
    // The resolved prefix is warm: statting the real file only pays the
    // final-component exchange.
    let before = inst.machine().msg_stats.sends();
    prober.stat(&file).unwrap();
    assert_eq!(inst.machine().msg_stats.sends() - before, 2);
    drop(prober);
    inst.shutdown();
}

#[test]
fn chain_reports_enotdir_for_file_intermediate() {
    // /c0/f is a regular file; resolving /c0/f/x must fail ENOTDIR under
    // every toggle setting.
    for technique in ["none", "chained_resolution", "fused_terminal"] {
        let mut cfg = HareConfig::timeshare(2);
        if technique != "none" {
            cfg.techniques = Techniques::without(technique);
        }
        let inst = HareInstance::start(cfg);
        let (_, file) = build_tree(&inst, 2, None);
        let prober = inst.new_client(0).unwrap();
        let bad = format!("{file}/x/y");
        assert_eq!(
            prober.stat(&bad).unwrap_err(),
            Errno::ENOTDIR,
            "without {technique}"
        );
        drop(prober);
        inst.shutdown();
    }
}

/// Sends a raw `LookupPath` to a chosen server and returns the reply.
fn raw_lookup_path(
    inst: &Arc<HareInstance>,
    server: usize,
    comps: Vec<String>,
    hops: u32,
) -> Reply {
    let (tx, rx) = msg::channel(Arc::clone(&inst.machine().msg_stats));
    inst.servers()[server]
        .tx
        .send(
            ServerMsg {
                req: Request::LookupPath {
                    client: 999,
                    dir: InodeId::ROOT,
                    dist: true,
                    comps,
                    acc: Vec::new(),
                    hops,
                    terminal: TerminalOp::None,
                },
                reply: tx,
                span: None,
            },
            0,
            0,
        )
        .unwrap();
    rx.recv().unwrap().payload.unwrap()
}

#[test]
fn exhausted_hop_budget_answers_eloop_instead_of_forwarding() {
    // A crafted request that lands at the *wrong* server with its hop
    // budget already burned: the server must answer ELOOP rather than
    // keep the chain alive forever. (Legitimate chains can never hit the
    // budget — every forward lands at the owner and resolves at least one
    // component — so only mis-routed or crafted traffic sees this.)
    let inst = HareInstance::start(HareConfig::timeshare(2));
    let (_, file) = build_tree(&inst, 3, Some(&[0, 0, 0]));
    let comps: Vec<String> = file
        .trim_start_matches('/')
        .split('/')
        .map(str::to_string)
        .collect();

    // Mis-routed with budget left: server 1 forwards to the owner, which
    // resolves the whole path — self-healing, no error.
    match raw_lookup_path(&inst, 1, comps.clone(), 0) {
        Reply::Path {
            entries, stopped, ..
        } => {
            assert_eq!(stopped, None);
            assert_eq!(entries.len(), comps.len());
        }
        other => panic!("unexpected {other:?}"),
    }

    // Mis-routed with the budget exhausted: ELOOP, no forward.
    let before = inst.machine().msg_stats.sends();
    match raw_lookup_path(&inst, 1, comps.clone(), u32::MAX) {
        Reply::Path {
            entries, stopped, ..
        } => {
            assert_eq!(stopped, Some(Errno::ELOOP));
            assert!(entries.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Exactly the crafted request and its reply — nothing forwarded.
    assert_eq!(inst.machine().msg_stats.sends() - before, 2);
    inst.shutdown();
}
