//! RPC-count regression tests built on the machine-wide `msg` send
//! counters: the fused lookup+open/stat and the negative dentry cache
//! exist to remove whole round trips from the hot path, so these tests pin the
//! exact message counts and fail if a code change quietly re-adds one.
//!
//! Counting convention: every RPC is two message sends (request + reply);
//! none of the measured operations trigger invalidation sends.

use fsapi::{Errno, MkdirOpts, Mode, OpenFlags, ProcFs};
use hare_core::{HareConfig, HareInstance, Techniques};
use vtime::Topology;

/// Message sends for one cold-cache `open(O_RDONLY)` of `/d1/d2/f` on a
/// single-server machine (dentry shard and inode server always coincide).
fn open_existing_sends(techniques: Techniques) -> u64 {
    let mut cfg = HareConfig::timeshare(1);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/d1/d2", MkdirOpts::default()).unwrap();
    fsapi::write_file(&setup, "/d1/d2/f", b"payload").unwrap();
    drop(setup);

    // A fresh client: its directory cache is cold, so every pathname
    // component costs a real RPC.
    let prober = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let fd = prober
        .open("/d1/d2/f", OpenFlags::RDONLY, Mode::default())
        .unwrap();
    let delta = inst.machine().msg_stats.sends() - before;
    prober.close(fd).unwrap();
    drop(prober);
    inst.shutdown();
    delta
}

#[test]
fn fused_open_costs_one_end_to_end_exchange() {
    // /d1/d2/f: one LookupPath chain resolves both parents *and* the
    // file, and the final server (which also stores the inode — single
    // server) opens the descriptor in the same exchange: 1 exchange.
    assert_eq!(open_existing_sends(Techniques::default()), 2);
}

#[test]
fn unfused_chained_open_costs_two_exchanges() {
    // Fusion off: one chained LookupPath exchange for the parents, then
    // one Lookup carrying the open.
    assert_eq!(
        open_existing_sends(Techniques::without("fused_terminal")),
        2 * 2
    );
}

#[test]
fn unchained_open_costs_depth_plus_one_rpcs() {
    // Chaining off restores the per-component walk: two parent lookups +
    // one Lookup carrying the open = depth + 1 RPCs.
    assert_eq!(
        open_existing_sends(Techniques::without("chained_resolution")),
        2 * (2 + 1)
    );
}

/// Message sends for the second of two identical failing lookups.
fn repeat_miss_sends(techniques: Techniques) -> u64 {
    let mut cfg = HareConfig::timeshare(1);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let c = inst.new_client(0).unwrap();
    assert_eq!(c.stat("/absent").unwrap_err(), Errno::ENOENT);
    let before = inst.machine().msg_stats.sends();
    assert_eq!(c.stat("/absent").unwrap_err(), Errno::ENOENT);
    let delta = inst.machine().msg_stats.sends() - before;
    drop(c);
    inst.shutdown();
    delta
}

#[test]
fn negative_cache_elides_repeat_miss_rpcs() {
    assert_eq!(repeat_miss_sends(Techniques::default()), 0);
}

#[test]
fn without_negative_cache_repeat_miss_pays_one_rpc() {
    assert_eq!(repeat_miss_sends(Techniques::without("neg_dircache")), 2);
}

#[test]
fn excl_retry_loop_is_answered_locally() {
    // The lock-file idiom: open(O_CREAT|O_EXCL) retried while another
    // process holds the name. The first attempt pays the (elided-probe)
    // create attempt and caches the holder's entry; every further retry
    // must be answered from the dircache with zero RPCs.
    let inst = HareInstance::start(HareConfig::timeshare(1));
    let holder = inst.new_client(0).unwrap();
    fsapi::write_file(&holder, "/lock", b"held").unwrap();
    let waiter = inst.new_client(0).unwrap();
    let excl = OpenFlags::CREAT | OpenFlags::EXCL | OpenFlags::WRONLY;
    assert_eq!(
        waiter.open("/lock", excl, Mode::default()).unwrap_err(),
        Errno::EEXIST
    );
    let before = inst.machine().msg_stats.sends();
    for _ in 0..3 {
        assert_eq!(
            waiter.open("/lock", excl, Mode::default()).unwrap_err(),
            Errno::EEXIST
        );
    }
    assert_eq!(inst.machine().msg_stats.sends() - before, 0);
    // The holder releases the lock: the waiter's cached entry is
    // invalidated and the next attempt wins.
    holder.unlink("/lock").unwrap();
    let fd = waiter.open("/lock", excl, Mode::default()).unwrap();
    waiter.close(fd).unwrap();
    drop(waiter);
    drop(holder);
    inst.shutdown();
}

/// Message sends for one cold-cache `stat` of `/d1/d2/f` on a
/// single-server machine (dentry shard and inode server always coincide).
fn stat_sends(techniques: Techniques) -> u64 {
    let mut cfg = HareConfig::timeshare(1);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&setup, "/d1/d2", MkdirOpts::default()).unwrap();
    fsapi::write_file(&setup, "/d1/d2/f", b"payload").unwrap();
    drop(setup);

    let prober = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let st = prober.stat("/d1/d2/f").unwrap();
    assert_eq!(st.size, 7);
    let delta = inst.machine().msg_stats.sends() - before;
    drop(prober);
    inst.shutdown();
    delta
}

#[test]
fn fused_stat_costs_one_end_to_end_exchange() {
    // One LookupPath chain resolves /d1/d2/f and the final server (also
    // the inode's — single server) answers the stat in the same exchange.
    assert_eq!(stat_sends(Techniques::default()), 2);
}

#[test]
fn unfused_chained_stat_costs_two_exchanges() {
    // Fusion off: one chained LookupPath exchange for the parents + one
    // Lookup carrying the stat.
    assert_eq!(stat_sends(Techniques::without("fused_terminal")), 2 * 2);
}

#[test]
fn unchained_stat_costs_depth_plus_one_rpcs() {
    // Chaining off: two parent lookups + one Lookup carrying the stat =
    // depth + 1.
    assert_eq!(
        stat_sends(Techniques::without("chained_resolution")),
        2 * (2 + 1)
    );
}

/// Message sends and batched-op count for one `rename("/src", "/dst")` on
/// a single-server machine (old and new shard always coincide).
fn rename_counts(techniques: Techniques) -> (u64, u64) {
    let mut cfg = HareConfig::timeshare(1);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    fsapi::write_file(&setup, "/src", b"x").unwrap();
    drop(setup);

    let c = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let batched_before = inst.machine().msg_stats.batched_ops();
    c.rename("/src", "/dst").unwrap();
    let sends = inst.machine().msg_stats.sends() - before;
    let batched = inst.machine().msg_stats.batched_ops() - batched_before;
    assert!(c.stat("/dst").is_ok());
    drop(c);
    inst.shutdown();
    (sends, batched)
}

#[test]
fn batched_rename_pairs_add_map_with_rm_map() {
    // Lookup of the old name (1 RPC) + one batched AddMap+RmMap exchange:
    // 2 transport exchanges instead of 3 RPCs.
    let (sends, batched) = rename_counts(Techniques::default());
    assert_eq!(sends, 2 * 2);
    assert_eq!(batched, 2, "the AddMap+RmMap pair must travel batched");
}

#[test]
fn unbatched_rename_costs_three_rpcs() {
    let (sends, batched) = rename_counts(Techniques::without("batching"));
    assert_eq!(sends, 2 * 3);
    assert_eq!(batched, 0);
}

/// Message sends and batched-op count for one cold-cache `readdir("/")`
/// over a root-distributed N-server machine.
fn readdir_counts(techniques: Techniques, nservers: usize) -> (u64, u64, usize) {
    let mut cfg = HareConfig::timeshare(nservers);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    for i in 0..8 {
        fsapi::write_file(&setup, &format!("/f{i}"), b"x").unwrap();
    }
    drop(setup);

    let c = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let batched_before = inst.machine().msg_stats.batched_ops();
    let entries = c.readdir("/").unwrap();
    let sends = inst.machine().msg_stats.sends() - before;
    let batched = inst.machine().msg_stats.batched_ops() - batched_before;
    drop(c);
    inst.shutdown();
    (sends, batched, entries.len())
}

#[test]
fn batched_readdir_costs_one_exchange_per_server() {
    // Root is distributed over N = 4 servers: the fan-out is one batched
    // transport exchange per server (2 sends each).
    let (sends, batched, n) = readdir_counts(Techniques::default(), 4);
    assert_eq!(n, 8);
    assert_eq!(sends, 2 * 4);
    assert_eq!(batched, 4, "each shard list must travel batched");
}

#[test]
fn unbatched_readdir_costs_one_rpc_per_server() {
    // Toggle off: N independent ListShard RPCs (same wire count, no batch
    // envelopes).
    let (sends, batched, n) = readdir_counts(Techniques::without("batching"), 4);
    assert_eq!(n, 8);
    assert_eq!(sends, 2 * 4);
    assert_eq!(batched, 0);
}

#[test]
fn batched_readdir_plus_groups_stats_by_server() {
    // The ls -l pattern over a distributed directory: per-entry stats must
    // collapse to at most one exchange per server instead of one RPC per
    // entry.
    let nservers = 4u64;
    let nfiles = 16u64;
    let inst = HareInstance::start(HareConfig::timeshare(nservers as usize));
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/big", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    for i in 0..nfiles {
        fsapi::write_file(&setup, &format!("/big/f{i}"), b"x").unwrap();
    }
    drop(setup);

    let c = inst.new_client(0).unwrap();
    // Warm the path to /big so only the fan-out is measured.
    c.stat("/big").unwrap();
    let before = inst.machine().msg_stats.sends();
    let listed = c.readdir_plus("/big").unwrap();
    let sends = inst.machine().msg_stats.sends() - before;
    assert_eq!(listed.len(), nfiles as usize);
    // N ListShard exchanges + at most N stat exchanges — far below the
    // N + nfiles RPCs of the unbatched path.
    assert!(
        sends <= 2 * (2 * nservers),
        "batched ls -l cost {sends} sends, expected <= {}",
        2 * (2 * nservers)
    );
    drop(c);
    inst.shutdown();
}

#[test]
fn o_creat_probe_is_free_after_first_miss() {
    // The mailbench/O_CREAT pattern: a failing open probe, then another.
    // With the negative cache the second probe's lookup is answered
    // locally; only the create-side RPCs remain.
    let inst = HareInstance::start(HareConfig::timeshare(1));
    let c = inst.new_client(0).unwrap();
    assert_eq!(
        c.open("/probe", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::ENOENT
    );
    let before = inst.machine().msg_stats.sends();
    assert_eq!(
        c.open("/probe", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::ENOENT
    );
    assert_eq!(inst.machine().msg_stats.sends() - before, 0);
    drop(c);
    inst.shutdown();
}

#[test]
fn fsync_flushes_buffered_sizes_as_one_grouped_exchange() {
    // Write-behind SetSize batching: write three files (descriptors kept
    // open), then fsync. The first fsync publishes every buffered size in
    // one grouped exchange; the later fsyncs find their sizes already
    // published and cost zero RPCs.
    let inst = HareInstance::start(HareConfig::timeshare(1));
    let c = inst.new_client(0).unwrap();
    let mut fds = Vec::new();
    for i in 0..3 {
        let fd = c
            .open(
                &format!("/wb{i}"),
                OpenFlags::CREAT | OpenFlags::WRONLY,
                Mode::default(),
            )
            .unwrap();
        assert_eq!(c.write(fd, b"payload").unwrap(), 7);
        fds.push(fd);
    }
    let before = inst.machine().msg_stats.sends();
    let batched_before = inst.machine().msg_stats.batched_ops();
    c.fsync(fds[0]).unwrap();
    // One transport exchange (2 sends) carrying all three SetSizes.
    assert_eq!(inst.machine().msg_stats.sends() - before, 2);
    assert_eq!(inst.machine().msg_stats.batched_ops() - batched_before, 3);
    // The other descriptors' sizes are already published.
    let before = inst.machine().msg_stats.sends();
    c.fsync(fds[1]).unwrap();
    c.fsync(fds[2]).unwrap();
    assert_eq!(inst.machine().msg_stats.sends() - before, 0);
    // And the published sizes are authoritative: a fresh client stats the
    // files without the writers closing.
    let other = inst.new_client(0).unwrap();
    assert_eq!(other.stat("/wb1").unwrap().size, 7);
    drop(other);
    for fd in fds {
        c.close(fd).unwrap();
    }
    drop(c);
    inst.shutdown();
}

#[test]
fn unregister_teardown_is_one_grouped_exchange_per_server() {
    // Client teardown fans Unregister out through the batch layer: one
    // exchange per server (overlapped), not N sequential round trips.
    let nservers = 4u64;
    let inst = HareInstance::start(HareConfig::timeshare(nservers as usize));
    let c = inst.new_client(0).unwrap();
    let before = inst.machine().msg_stats.sends();
    let batched_before = inst.machine().msg_stats.batched_ops();
    drop(c); // shutdown: no open fds, just the Unregister fan-out
    assert_eq!(inst.machine().msg_stats.sends() - before, 2 * nservers);
    assert_eq!(
        inst.machine().msg_stats.batched_ops() - batched_before,
        nservers
    );
    inst.shutdown();
}

#[test]
fn fsync_size_flush_never_regresses_a_larger_view_of_the_same_file() {
    // Two descriptors of one file with different buffered views: the
    // flush publishes one SetSize per inode — the largest view — so the
    // stale smaller view can never overwrite the larger one.
    let inst = HareInstance::start(HareConfig::timeshare(1));
    let c = inst.new_client(0).unwrap();
    let a = c
        .open(
            "/same",
            OpenFlags::CREAT | OpenFlags::WRONLY,
            Mode::default(),
        )
        .unwrap();
    assert_eq!(c.write(a, b"0123456789").unwrap(), 10); // view: 10 bytes
    let b = c.open("/same", OpenFlags::WRONLY, Mode::default()).unwrap();
    assert_eq!(c.write(b, b"xyz").unwrap(), 3); // stale view: 3 bytes
    c.fsync(a).unwrap();
    let other = inst.new_client(0).unwrap();
    assert_eq!(
        other.stat("/same").unwrap().size,
        10,
        "the larger buffered view must win the per-inode flush"
    );
    // Closing the stale descriptor must not regress the published size
    // either: close only publishes a *growing* view.
    c.close(a).unwrap();
    c.close(b).unwrap();
    assert_eq!(
        other.stat("/same").unwrap().size,
        10,
        "closing a stale smaller view must not shrink the file"
    );
    drop(other);
    drop(c);
    inst.shutdown();
}

/// What one measured operation cost the client: message sends and batched
/// ops machine-wide, and the client's virtual-time delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    sends: u64,
    batched: u64,
    vtime: u64,
}

/// The first root entry name with prefix `prefix` whose dentry shard is
/// `want` on a machine of `nservers` servers.
fn root_name_on(prefix: &str, want: u16, nservers: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|n| hare_core::dentry_shard(hare_core::InodeId::ROOT, true, n, nservers) == want)
        .expect("some name hashes to every shard")
}

/// Costs of the three fan-out shapes on a 4-server timeshare machine:
/// registering a new client with every server, a cold `readdir("/")` of
/// the distributed root with entries on all four servers, and a rename
/// whose old and new names live on different shards.
fn transport_costs(techniques: Techniques) -> [Cost; 3] {
    let mut cfg = HareConfig::timeshare(4);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    for s in 0..4 {
        fsapi::write_file(&setup, &format!("/{}", root_name_on("f", s, 4)), b"x").unwrap();
    }
    let (src, dst) = (root_name_on("src", 0, 4), root_name_on("dst", 1, 4));
    fsapi::write_file(&setup, &format!("/{src}"), b"x").unwrap();
    drop(setup);

    let m = inst.machine();
    let snap = |vtime: u64| (m.msg_stats.sends(), m.msg_stats.batched_ops(), vtime);
    let cost = |(s, b, v): (u64, u64, u64), now: u64| Cost {
        sends: m.msg_stats.sends() - s,
        batched: m.msg_stats.batched_ops() - b,
        vtime: now - v,
    };
    let before = snap(0);
    let c = inst.new_client(0).unwrap();
    let register = cost(before, c.vnow());
    let before = snap(c.vnow());
    assert_eq!(c.readdir("/").unwrap().len(), 5);
    let readdir = cost(before, c.vnow());
    let before = snap(c.vnow());
    c.rename(&format!("/{src}"), &format!("/{dst}")).unwrap();
    let rename = cost(before, c.vnow());
    drop(c);
    inst.shutdown();
    [register, readdir, rename]
}

#[test]
fn transport_pin_fan_outs_per_config() {
    // Register overlaps one RPC per server when broadcast is on (a batch
    // envelope cannot carry its channel). Readdir lists each server's
    // shard: one batched exchange per server, overlapped under broadcast.
    // The cross-shard rename's AddMap and RmMap go to different servers,
    // so they are two ordered exchanges either way.
    let neither = {
        let mut t = Techniques::without("broadcast");
        t.batching = false;
        t
    };
    let c = |sends, batched, vtime| Cost {
        sends,
        batched,
        vtime,
    };
    let table = [
        (
            "default",
            Techniques::default(),
            [c(8, 0, 35230), c(8, 4, 10400), c(6, 2, 14687)],
        ),
        (
            "no broadcast",
            Techniques::without("broadcast"),
            [c(8, 0, 39880), c(8, 4, 15725), c(6, 2, 14687)],
        ),
        (
            "no batching",
            Techniques::without("batching"),
            [c(8, 0, 35230), c(8, 0, 10400), c(6, 0, 14687)],
        ),
        (
            "neither",
            neither,
            [c(8, 0, 39880), c(8, 0, 15725), c(6, 0, 14687)],
        ),
    ];
    for (name, techniques, want) in table {
        assert_eq!(transport_costs(techniques), want, "{name}");
    }
}

/// What one create costs on a two-socket 8-server timeshare machine
/// (sockets of four cores), from a cold client on core 0 (socket 0). The
/// root is distributed, so `shard` picks the server holding the new
/// entry: servers 0–3 share the creator's socket, so the inode is
/// coalesced with the entry in one `Create`; servers 4–7 do not, so
/// creation affinity places the inode on the creator's local server and
/// the entry follows as an `AddMap`. With `present`, another client made
/// the name first.
fn create_cost(dir: bool, shard: u16, present: bool) -> (Result<(), Errno>, Cost) {
    let mut cfg = HareConfig::timeshare(8);
    cfg.topology = Topology::new(2, 4);
    let inst = HareInstance::start(cfg);
    let path = format!("/{}", root_name_on("n", shard, 8));
    if present {
        let setup = inst.new_client(0).unwrap();
        if dir {
            setup.mkdir(&path, Mode::default()).unwrap();
        } else {
            fsapi::write_file(&setup, &path, b"x").unwrap();
        }
        drop(setup);
    }
    let c = inst.new_client(0).unwrap();
    let m = inst.machine();
    let (sends, batched, vtime) = (m.msg_stats.sends(), m.msg_stats.batched_ops(), c.vnow());
    let out = if dir {
        c.mkdir(&path, Mode::default())
    } else {
        let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL;
        c.open(&path, flags, Mode::default()).map(|_| ())
    };
    let cost = Cost {
        sends: m.msg_stats.sends() - sends,
        batched: m.msg_stats.batched_ops() - batched,
        vtime: c.vnow() - vtime,
    };
    drop(c);
    inst.shutdown();
    (out, cost)
}

#[test]
fn create_pin_placements_and_existing_names() {
    // File, coalesced: one Create carrying the entry and the open; an
    // existing name fails that Create with EEXIST before any inode is
    // allocated, and the O_EXCL retry path then caches the winner with
    // one Lookup. File, affinity: a name not known absent is probed first
    // (a failing cross-server create would orphan an inode), so a fresh
    // name costs Lookup + Create + AddMap and an existing one only the
    // Lookup. Directory, coalesced: one Create either way. Directory,
    // affinity: Create at the local server + AddMap at the shard; an
    // existing name fails the AddMap, and the orphaned inode is undone
    // with a LinkDecref.
    let c = |sends, batched, vtime| Cost {
        sends,
        batched,
        vtime,
    };
    let table = [
        (
            "file coalesced fresh",
            false,
            1,
            false,
            Ok(()),
            c(2, 0, 4720),
        ),
        (
            "file coalesced present",
            false,
            1,
            true,
            Err(Errno::EEXIST),
            c(4, 0, 8240),
        ),
        (
            "file affinity fresh",
            false,
            5,
            false,
            Ok(()),
            c(6, 0, 14431),
        ),
        (
            "file affinity present",
            false,
            5,
            true,
            Err(Errno::EEXIST),
            c(2, 0, 5120),
        ),
        ("dir coalesced fresh", true, 1, false, Ok(()), c(2, 0, 4600)),
        (
            "dir coalesced present",
            true,
            1,
            true,
            Err(Errno::EEXIST),
            c(2, 0, 4300),
        ),
        ("dir affinity fresh", true, 5, false, Ok(()), c(4, 0, 9611)),
        (
            "dir affinity present",
            true,
            5,
            true,
            Err(Errno::EEXIST),
            c(6, 0, 13011),
        ),
    ];
    for (name, dir, shard, present, out, cost) in table {
        assert_eq!(create_cost(dir, shard, present), (out, cost), "{name}");
    }
}

/// Sends of a `readdir` of an 8-file directory made with `opts` on 4
/// servers, by a client that already resolved the directory (so the
/// listing is the `ListShard` fan-out alone), and of a cold chained
/// `stat` of one of its entries. Also returns the listing's length.
fn dir_listing_sends(techniques: Techniques, opts: MkdirOpts) -> (u64, u64, usize) {
    let mut cfg = HareConfig::timeshare(4);
    cfg.techniques = techniques;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/top", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    setup.mkdir_opts("/top/d", Mode::default(), opts).unwrap();
    for i in 0..8 {
        fsapi::write_file(&setup, &format!("/top/d/f{i}"), b"x").unwrap();
    }
    drop(setup);
    let m = inst.machine();
    let c = inst.new_client(0).unwrap();
    c.stat("/top/d").unwrap();
    let before = m.msg_stats.sends();
    let listed = c.readdir("/top/d").unwrap().len();
    let list = m.msg_stats.sends() - before;
    drop(c);
    let c = inst.new_client(0).unwrap();
    let before = m.msg_stats.sends();
    c.stat("/top/d/f3").unwrap();
    let stat = m.msg_stats.sends() - before;
    drop(c);
    inst.shutdown();
    (list, stat, listed)
}

#[test]
fn distribution_off_makes_a_distributed_request_centralized() {
    // With distribution off, a directory asked for as DISTRIBUTED is
    // centralized at its home: its listing is the home's one shard, and
    // resolving through it routes every entry to the home, exactly like a
    // CENTRALIZED directory under the default techniques.
    let off = dir_listing_sends(Techniques::without("distribution"), MkdirOpts::DISTRIBUTED);
    let central = dir_listing_sends(Techniques::default(), MkdirOpts::CENTRALIZED);
    assert_eq!(off, (2, 2, 8));
    assert_eq!(off, central);
    // The same directory distributed under the default techniques fans
    // the listing out over every shard.
    let spread = dir_listing_sends(Techniques::default(), MkdirOpts::DISTRIBUTED);
    assert_eq!(spread, (8, 3, 8));
}
