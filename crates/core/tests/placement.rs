//! Integration tests for the dynamic placement subsystem: live shard
//! migration, epoch-versioned routing, `NotOwner` redirects, chained
//! resolution across a migrated directory, and the rebalancer.
//!
//! Counting convention as everywhere: `sends()` counts every message, one
//! RPC is two sends (request + reply).

use fsapi::{Errno, MkdirOpts, Mode, OpenFlags, ProcFs};
use hare_core::placement::{RebalanceAction, RebalanceCadence, RebalancePolicy, Rebalancer};
use hare_core::{dentry_shard, ClientLib, HareConfig, HareInstance, InodeId, Techniques};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One immediate rebalancing pass: probe every server, act on the first
/// sight of a hot directory, no cooldown carried to the next pass.
fn rebalance_now(c: &ClientLib) -> Option<RebalanceAction> {
    let cadence = RebalanceCadence {
        probe_interval: 0,
        confirm: 1,
        cooldown: 0,
    };
    let mut reb = Rebalancer::new(RebalancePolicy::default(), cadence);
    c.rebalance_tick(&mut reb).unwrap()
}

/// A name under `dir` whose dentry shard is `want`.
fn pinned_name(dir: InodeId, dist: bool, prefix: &str, want: u16, nservers: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|n| dentry_shard(dir, dist, n, nservers) == want)
        .expect("some name hashes to every shard")
}

/// Boots `nservers` timeshare cores with a centralized `/hot` directory
/// holding `files` entries, and returns the instance plus the directory's
/// home server.
fn hot_dir_instance(nservers: usize, files: usize) -> (Arc<HareInstance>, u16) {
    let inst = HareInstance::start(HareConfig::timeshare(nservers));
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::default())
        .unwrap();
    for i in 0..files {
        fsapi::write_file(&setup, &format!("/hot/f{i}"), b"payload").unwrap();
    }
    let home = setup.stat("/hot").unwrap().server;
    drop(setup);
    (inst, home)
}

#[test]
fn migration_preserves_entries_and_redirects_stale_clients_once() {
    let nservers = 4;
    let nfiles = 8;
    let (inst, home) = hot_dir_instance(nservers, nfiles);
    let to = (home + 1) % nservers as u16;

    // A stale client that resolved everything before the migration.
    let stale = inst.new_client(0).unwrap();
    for i in 0..nfiles {
        stale.stat(&format!("/hot/f{i}")).unwrap();
    }

    // Migrate /hot's shard.
    let admin = inst.new_client(0).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());
    assert_eq!(admin.dir_owner("/hot").unwrap(), to);

    // No entry was lost; a fresh client sees the full directory.
    let fresh = inst.new_client(0).unwrap();
    assert_eq!(fresh.readdir("/hot").unwrap().len(), nfiles);
    for i in 0..nfiles {
        assert_eq!(fresh.stat(&format!("/hot/f{i}")).unwrap().size, 7);
    }

    // The stale client's cached entries were invalidated by the migration
    // (through the tracking lists), so its next stats re-resolve — paying
    // exactly ONE NotOwner bounce for the whole directory, not one per
    // entry. Pre-migration files keep their inodes at the old home
    // (inodes never migrate), so each stat is lookup@new-owner +
    // StatInode@home = 2 exchanges; the first op adds the one bounce.
    let before = inst.machine().msg_stats.sends();
    stale.stat("/hot/f0").unwrap();
    assert_eq!(
        inst.machine().msg_stats.sends() - before,
        2 + 2 * 2,
        "first stale op pays exactly one redirect bounce"
    );
    let before = inst.machine().msg_stats.sends();
    for i in 1..nfiles {
        stale.stat(&format!("/hot/f{i}")).unwrap();
    }
    assert_eq!(
        inst.machine().msg_stats.sends() - before,
        2 * 2 * (nfiles as u64 - 1),
        "after one bounce the stale client routes directly"
    );

    drop(stale);
    drop(fresh);
    drop(admin);
    inst.shutdown();
}

#[test]
fn redirect_storm_costs_one_bounce_per_stale_directory() {
    // Many stale clients, several migrated directories: each client pays
    // at most one NotOwner bounce per directory, never a storm.
    let nservers = 4;
    let inst = HareInstance::start(HareConfig::timeshare(nservers));
    let setup = inst.new_client(0).unwrap();
    let dirs = ["/d0", "/d1", "/d2"];
    for d in &dirs {
        setup
            .mkdir_opts(d, Mode::default(), MkdirOpts::default())
            .unwrap();
        for i in 0..4 {
            fsapi::write_file(&setup, &format!("{d}/f{i}"), b"x").unwrap();
        }
    }

    // Stale clients warm every path, then every directory migrates.
    let stale: Vec<_> = (0..3).map(|c| inst.new_client(c).unwrap()).collect();
    for c in &stale {
        for d in &dirs {
            for i in 0..4 {
                c.stat(&format!("{d}/f{i}")).unwrap();
            }
        }
    }
    for d in &dirs {
        let home = setup.stat(d).unwrap().server;
        assert!(setup.migrate_dir(d, (home + 2) % nservers as u16).unwrap());
    }
    // The commit's invalidation sends happen in the source server threads
    // after the commit reply; one fan-out round trip serializes behind
    // them (servers handle messages in order), so the send-counter
    // snapshots below are deterministic.
    let _ = setup.server_loads(false).unwrap();

    for (ci, c) in stale.iter().enumerate() {
        // Pure dentry operations (ENOENT probes of distinct names, the
        // O_CREAT pattern): each is exactly one exchange at the owner, so
        // the redirect overhead is isolated — 12 probes cost 12 exchanges
        // plus exactly one bounce per migrated directory, never a storm.
        let before = inst.machine().msg_stats.sends();
        for d in &dirs {
            for i in 0..4 {
                assert_eq!(
                    c.stat(&format!("{d}/ghost_c{ci}_{i}")).unwrap_err(),
                    Errno::ENOENT
                );
            }
        }
        let sends = inst.machine().msg_stats.sends() - before;
        assert_eq!(
            sends,
            2 * 12 + 2 * dirs.len() as u64,
            "one bounce per stale directory, no storm"
        );
    }
    drop(setup);
    drop(stale);
    inst.shutdown();
}

#[test]
fn migration_under_concurrent_traffic_loses_no_entries_and_fails_no_op() {
    // Worker threads churn the directory (create + stat + unlink) while
    // the main thread migrates it. Every in-flight operation must succeed
    // — operations caught in the copy window park and replay — and the
    // namespace must be exactly what the surviving creates left.
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 4);
    let to = (home + 1) % nservers as u16;

    let workers = 3;
    let rounds = 40;
    let mut joins = Vec::new();
    for w in 0..workers {
        let inst = Arc::clone(&inst);
        joins.push(std::thread::spawn(move || {
            let c = inst.new_client(w % 4).unwrap();
            for i in 0..rounds {
                let keep = format!("/hot/keep_w{w}_{i}");
                let tmp = format!("/hot/tmp_w{w}_{i}");
                fsapi::write_file(&c, &keep, b"k").unwrap();
                fsapi::write_file(&c, &tmp, b"t").unwrap();
                assert_eq!(c.stat(&keep).unwrap().size, 1, "in-flight stat failed");
                c.unlink(&tmp).unwrap();
            }
            drop(c);
        }));
    }
    // Migrate mid-churn (twice, to also cross a re-migration).
    let admin = inst.new_client(3).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());
    assert!(admin.migrate_dir("/hot", home).unwrap());
    for j in joins {
        j.join().unwrap();
    }

    // Nothing lost, nothing leaked.
    let fresh = inst.new_client(0).unwrap();
    let names: Vec<String> = fresh
        .readdir("/hot")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    let keeps = names.iter().filter(|n| n.starts_with("keep_")).count();
    let tmps = names.iter().filter(|n| n.starts_with("tmp_")).count();
    assert_eq!(keeps, workers * rounds, "a migrated entry vanished");
    assert_eq!(tmps, 0, "an unlinked entry survived migration");
    drop(fresh);
    drop(admin);
    inst.shutdown();
}

#[test]
fn chain_hop_landing_on_stale_owner_reforwards_within_budget() {
    // A deep path through a migrated directory, resolved cold by a client
    // that knows nothing of the migration: the chain lands at the old
    // owner, which re-forwards under its table — one extra hop (one
    // message), not an extra client exchange, and never ELOOP.
    let nservers = 4;
    let inst = HareInstance::start(HareConfig::timeshare(nservers));
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/mid", Mode::default(), MkdirOpts::default())
        .unwrap();
    fsapi::mkdir_p(&setup, "/mid/leafdir", MkdirOpts::default()).unwrap();
    fsapi::write_file(&setup, "/mid/leafdir/file", b"x").unwrap();
    let home = setup.stat("/mid").unwrap().server;
    let to = (home + 1) % nservers as u16;
    assert!(setup.migrate_dir("/mid", to).unwrap());
    drop(setup);

    let c = inst.new_client(0).unwrap();
    let st = c.stat("/mid/leafdir/file").unwrap();
    assert_eq!(st.size, 1);
    drop(c);
    inst.shutdown();
}

#[test]
fn rmdir_of_migrated_directory_works_and_respects_entries() {
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 2);
    let to = (home + 1) % nservers as u16;
    let admin = inst.new_client(0).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());

    // Still ENOTEMPTY while entries live at the new owner (a naive
    // central removal at the home server would see an empty shard and
    // wrongly delete the directory).
    let c = inst.new_client(1).unwrap();
    assert_eq!(c.rmdir("/hot").unwrap_err(), Errno::ENOTEMPTY);
    c.unlink("/hot/f0").unwrap();
    c.unlink("/hot/f1").unwrap();
    c.rmdir("/hot").unwrap();
    assert_eq!(c.stat("/hot").unwrap_err(), Errno::ENOENT);
    // The name is reusable afterwards.
    c.mkdir("/hot", Mode::default()).unwrap();
    fsapi::write_file(&c, "/hot/again", b"y").unwrap();
    assert_eq!(c.readdir("/hot").unwrap().len(), 1);
    drop(c);
    drop(admin);
    inst.shutdown();
}

#[test]
fn new_creations_under_migrated_directory_coalesce_at_the_new_owner() {
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 1);
    let to = (home + 1) % nservers as u16;
    let admin = inst.new_client(0).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());

    // A fresh file's inode lands at the new owner (creation placement
    // follows the routing table), and the create is still the coalesced
    // single exchange once the client knows the route.
    let c = inst.new_client(0).unwrap();
    c.stat("/hot").unwrap(); // learn nothing yet: /hot's entry is in root
    fsapi::write_file(&c, "/hot/fresh", b"z").unwrap();
    assert_eq!(c.stat("/hot/fresh").unwrap().server, to);

    // A mkdir by a client whose route is stale: its coalesced Create
    // bounces once at the old owner (before any inode is allocated), and
    // the retry coalesces the new directory at the new owner.
    let stale = inst.new_client(0).unwrap();
    stale.stat("/hot").unwrap();
    let m = inst.machine();
    let bounces = || m.events.not_owner_bounces.load(Ordering::Relaxed);
    let (sends, bounced) = (m.msg_stats.sends(), bounces());
    stale.mkdir("/hot/sub", Mode::default()).unwrap();
    assert_eq!(bounces() - bounced, 1, "one NotOwner bounce");
    assert_eq!(
        m.msg_stats.sends() - sends,
        2 * 2,
        "bounce + coalesced retry"
    );
    assert_eq!(stale.stat("/hot/sub").unwrap().server, to);
    drop(stale);
    drop(c);
    drop(admin);
    inst.shutdown();
}

#[test]
fn rename_across_a_migrated_parent_succeeds_with_one_bounce() {
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 1);
    let to = (home + 1) % nservers as u16;

    // A client with warm routes... but stale after the migration.
    let c = inst.new_client(0).unwrap();
    c.stat("/hot/f0").unwrap();
    let admin = inst.new_client(1).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());

    c.rename("/hot/f0", "/hot/renamed").unwrap();
    assert_eq!(c.stat("/hot/renamed").unwrap().size, 7);
    assert_eq!(c.stat("/hot/f0").unwrap_err(), Errno::ENOENT);
    // And a rename out of the migrated directory into another one.
    c.mkdir("/other", Mode::default()).unwrap();
    c.rename("/hot/renamed", "/other/out").unwrap();
    assert_eq!(c.stat("/other/out").unwrap().size, 7);
    // The reverse direction, from a client that never heard of the
    // migration, exercises the ordered pair with only the ADD half stale:
    // the fail-fast transport must skip the RM behind the ADD's redirect
    // (add-before-rm survives the bounce), then re-send the pair — the
    // file is reachable under exactly one name throughout.
    let naive = inst.new_client(2).unwrap();
    naive.rename("/other/out", "/hot/back").unwrap();
    assert_eq!(naive.stat("/hot/back").unwrap().size, 7);
    assert_eq!(naive.stat("/other/out").unwrap_err(), Errno::ENOENT);
    drop(naive);
    drop(c);
    drop(admin);
    inst.shutdown();
}

#[test]
fn migration_is_refused_for_distributed_directories_and_the_root() {
    let inst = HareInstance::start(HareConfig::timeshare(4));
    let c = inst.new_client(0).unwrap();
    c.mkdir_opts("/dist", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    assert_eq!(c.migrate_dir("/dist", 1).unwrap_err(), Errno::EINVAL);
    assert_eq!(c.migrate_dir("/", 1).unwrap_err(), Errno::EBUSY);
    // Migrating a file is no directory migration either.
    fsapi::write_file(&c, "/plain", b"x").unwrap();
    assert_eq!(c.migrate_dir("/plain", 1).unwrap_err(), Errno::ENOTDIR);
    drop(c);
    inst.shutdown();
}

#[test]
fn rebalancing_off_is_byte_for_byte_the_static_system() {
    // The same operation sequence with the technique on (but no migration
    // performed) and off must produce identical message counts — the
    // epoch-0 routing table is the paper's hash.
    let count = |techniques: Techniques| {
        let mut cfg = HareConfig::timeshare(4);
        cfg.techniques = techniques;
        let inst = HareInstance::start(cfg);
        let c = inst.new_client(0).unwrap();
        let before = inst.machine().msg_stats.sends();
        fsapi::mkdir_p(&c, "/a/b", MkdirOpts::default()).unwrap();
        fsapi::write_file(&c, "/a/b/f", b"x").unwrap();
        c.stat("/a/b/f").unwrap();
        assert_eq!(c.readdir("/a/b").unwrap().len(), 1);
        c.rename("/a/b/f", "/a/b/g").unwrap();
        c.unlink("/a/b/g").unwrap();
        c.rmdir("/a/b").unwrap();
        let sends = inst.machine().msg_stats.sends() - before;
        drop(c);
        inst.shutdown();
        sends
    };
    assert_eq!(
        count(Techniques::default()),
        count(Techniques::without("rebalancing")),
        "an unused placement subsystem must cost zero messages"
    );
    // And the migration driver really is inert with the toggle off.
    let mut cfg = HareConfig::timeshare(4);
    cfg.techniques = Techniques::without("rebalancing");
    let inst = HareInstance::start(cfg);
    let c = inst.new_client(0).unwrap();
    c.mkdir("/hot", Mode::default()).unwrap();
    let home = c.stat("/hot").unwrap().server;
    assert!(!c.migrate_dir("/hot", (home + 1) % 4).unwrap());
    assert_eq!(c.dir_owner("/hot").unwrap(), home);
    assert!(rebalance_now(&c).is_none());
    drop(c);
    inst.shutdown();
}

#[test]
fn rebalancer_migrates_the_hot_directory_to_the_coolest_server() {
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 4);

    // Hammer the hot directory from a few clients so its server and its
    // directory dominate the load counters.
    for w in 0..3 {
        let c = inst.new_client(w).unwrap();
        for r in 0..30 {
            let p = format!("/hot/m{w}_{r}");
            fsapi::write_file(&c, &p, b"x").unwrap();
            c.unlink(&p).unwrap();
        }
        drop(c);
    }

    let admin = inst.new_client(0).unwrap();
    let Some(RebalanceAction::Migrate(plan)) = rebalance_now(&admin) else {
        panic!("the create/unlink churn must trigger a migration");
    };
    assert_eq!(plan.from, home);
    assert_ne!(plan.to, home);
    assert_eq!(admin.dir_owner("/hot").unwrap(), plan.to);
    // A second pass right after sees reset counters and stays put.
    assert!(rebalance_now(&admin).is_none());
    // The namespace survived.
    assert_eq!(admin.readdir("/hot").unwrap().len(), 4);
    drop(admin);
    inst.shutdown();
}

#[test]
fn open_close_and_io_survive_migration_with_write_behind_sizes() {
    // Write-behind size flushes are inode-server state keyed by
    // descriptor: they are unaffected by the dentry shard moving, so a
    // file written before the migration publishes its size correctly
    // after it — and descriptors opened before stay usable.
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 1);
    let c = inst.new_client(0).unwrap();
    let fd = c
        .open(
            "/hot/wb",
            OpenFlags::CREAT | OpenFlags::WRONLY,
            Mode::default(),
        )
        .unwrap();
    assert_eq!(c.write(fd, b"0123456789").unwrap(), 10);

    let admin = inst.new_client(1).unwrap();
    assert!(admin
        .migrate_dir("/hot", (home + 1) % nservers as u16)
        .unwrap());

    // The buffered size flushes through the descriptor, not the shard.
    c.fsync(fd).unwrap();
    let other = inst.new_client(2).unwrap();
    assert_eq!(other.stat("/hot/wb").unwrap().size, 10);
    assert_eq!(c.write(fd, b"x").unwrap(), 1);
    c.close(fd).unwrap();
    assert_eq!(other.stat("/hot/wb").unwrap().size, 11);
    drop(other);
    drop(admin);
    drop(c);
    inst.shutdown();
}

#[test]
fn pinned_migration_exchange_counts() {
    // The migration protocol itself is three exchanges: Begin (snapshot),
    // Install, Commit — plus nothing else when no client is tracked and
    // the driver already routes to the source.
    let nservers = 2;
    let (inst, home) = hot_dir_instance(nservers, 3);
    let admin = inst.new_client(0).unwrap();
    // Warm the admin's route to /hot (parent resolution).
    admin.stat("/hot").unwrap();
    let before = inst.machine().msg_stats.sends();
    assert!(admin.migrate_dir("/hot", (home + 1) % 2).unwrap());
    let sends = inst.machine().msg_stats.sends() - before;
    // Begin + Install + Commit = 3 exchanges = 6 sends. (The setup
    // client's tracked entries were consumed when it dropped, so no
    // invalidation messages ride on the commit.)
    assert_eq!(sends, 6, "migration must cost exactly three exchanges");
    drop(admin);
    inst.shutdown();
}

#[test]
fn readdir_of_migrated_directory_routes_to_the_new_owner() {
    let nservers = 4;
    let (inst, home) = hot_dir_instance(nservers, 5);
    let to = (home + 1) % nservers as u16;

    // A stale client that already listed the directory once.
    let stale = inst.new_client(0).unwrap();
    assert_eq!(stale.readdir("/hot").unwrap().len(), 5);

    let admin = inst.new_client(1).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());

    // The stale listing bounces once and comes back complete; fresh
    // clients route per chain re-forwarding.
    assert_eq!(stale.readdir("/hot").unwrap().len(), 5);
    let fresh = inst.new_client(2).unwrap();
    assert_eq!(fresh.readdir("/hot").unwrap().len(), 5);
    // readdir_plus agrees and carries correct stats.
    let plus = fresh.readdir_plus("/hot").unwrap();
    assert_eq!(plus.len(), 5);
    assert!(plus.iter().all(|(_, s)| s.size == 7));
    drop(stale);
    drop(fresh);
    drop(admin);
    inst.shutdown();
}

#[test]
fn migration_into_an_rmdir_marked_destination_aborts_cleanly() {
    // The destination of a migration is mid-rmdir (its shard is marked):
    // MigrateInstall must be REJECTED inline, not parked — parking would
    // close a wait cycle between the rmdir (whose mark fan-out can park
    // behind the source's migration window) and the migration driver —
    // and installing under the mark would let the rmdir's emptiness votes
    // miss the migrated entries and commit a non-empty removal. The
    // driver aborts, the source unparks, and the directory is intact.
    use hare_core::proto::{Reply, Request, ServerMsg};
    let nservers = 2;
    let (inst, home) = hot_dir_instance(nservers, 3);
    let to = (home + 1) % 2;
    let hstat = inst.new_client(0).unwrap().stat("/hot").unwrap();
    let dir = InodeId {
        server: hstat.server,
        num: hstat.ino,
    };

    // Mark /hot for deletion at the *destination* only (the prepare phase
    // of a distributed rmdir, driven raw so the window stays open).
    let raw = |server: usize, req: Request| {
        let (tx, rx) = msg::channel(Arc::clone(&inst.machine().msg_stats));
        inst.servers()[server]
            .tx
            .send(
                ServerMsg {
                    req,
                    reply: tx,
                    span: None,
                },
                0,
                0,
            )
            .unwrap();
        rx.recv().unwrap().payload
    };
    match raw(to as usize, Request::RmdirMark { dir }) {
        Ok(Reply::RmdirMark(_)) => {}
        other => panic!("unexpected {other:?}"),
    }

    let admin = inst.new_client(0).unwrap();
    assert_eq!(
        admin.migrate_dir("/hot", to).unwrap_err(),
        Errno::EAGAIN,
        "install under an rmdir mark must be rejected"
    );
    // The abort unparked the source: the directory still answers, entries
    // intact, still owned by its home.
    assert_eq!(admin.dir_owner("/hot").unwrap(), home);
    assert_eq!(admin.readdir("/hot").unwrap().len(), 3);
    // After the rmdir resolves, the migration goes through.
    match raw(to as usize, Request::RmdirAbort { dir }) {
        Ok(Reply::Unit) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(admin.migrate_dir("/hot", to).unwrap());
    assert_eq!(admin.readdir("/hot").unwrap().len(), 3);
    drop(admin);
    inst.shutdown();
}

#[test]
fn migrate_dir_rejects_an_unknown_server() {
    let (inst, _) = hot_dir_instance(2, 1);
    let c = inst.new_client(0).unwrap();
    assert_eq!(c.migrate_dir("/hot", 99).unwrap_err(), Errno::EINVAL);
    drop(c);
    inst.shutdown();
}

#[test]
fn pinned_shard_name_helper_is_sound() {
    // Keep the helper honest: the brute-forced names really land on the
    // requested shard.
    for want in 0..4u16 {
        let n = pinned_name(InodeId::ROOT, true, "x", want, 4);
        assert_eq!(dentry_shard(InodeId::ROOT, true, &n, 4), want);
    }
}
