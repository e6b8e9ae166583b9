//! Integration tests for the striped block data plane: extent-mapped
//! files, block-list-bearing opens, parallel stripe exchanges with
//! readahead, the fused `Create` chain terminal, and the interplay with
//! live shard migration.
//!
//! Counting convention as everywhere: `sends()` counts every message, one
//! RPC is two sends (request + reply).

use fsapi::{Errno, MkdirOpts, Mode, OpenFlags, ProcFs};
use hare_core::{dentry_shard, HareConfig, HareInstance, InodeId, Techniques};
use std::sync::Arc;

/// A name under `dir` whose dentry shard is `want`.
fn pinned_name(dir: InodeId, dist: bool, prefix: &str, want: u16, nservers: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|n| dentry_shard(dir, dist, n, nservers) == want)
        .expect("some name hashes to every shard")
}

/// A striped 4-server machine with an 8 KiB stripe unit (2 blocks — small
/// enough that short test files span several stripes).
fn striped_cfg(nservers: usize) -> HareConfig {
    let mut cfg = HareConfig::timeshare(nservers);
    cfg.stripe_width = 4;
    cfg.stripe_unit = 8192;
    cfg
}

/// Deterministic payload for content checks.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Reads a whole file back through the normal read path.
fn read_file<P: ProcFs + ?Sized>(c: &P, path: &str) -> fsapi::FsResult<Vec<u8>> {
    let fd = c.open(path, OpenFlags::RDONLY, Mode::default())?;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 8192];
    loop {
        let n = c.read(fd, &mut buf)?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    c.close(fd)?;
    Ok(out)
}

#[test]
fn cold_open_and_full_read_is_one_metadata_plus_stripe_exchanges() {
    // THE data-plane contract (the PR-4 follow-up landed): the coalesced
    // open reply carries the block list *and* extent map, so a cold
    // open+read of a co-located striped file is exactly one metadata
    // exchange plus ceil(size / stripe_unit) parallel data exchanges —
    // zero warm-up round trips between open and first byte.
    let inst = HareInstance::start(striped_cfg(4));
    let size = 64 * 1024usize; // 8 stripes of 8 KiB
    let data = pattern(size);
    let setup = inst.new_client(0).unwrap();
    fsapi::write_file(&setup, "/f", &data).unwrap();
    drop(setup);

    let c = inst.new_client(0).unwrap();
    let sends = || inst.machine().msg_stats.sends();

    // One metadata exchange: the Lookup carrying the open, nothing else.
    let s0 = sends();
    let fd = c.open("/f", OpenFlags::RDONLY, Mode::default()).unwrap();
    assert_eq!(sends() - s0, 2, "open is one exchange, block list included");

    // The full read is exactly one ReadStripe per stripe, no warm-up.
    let s0 = sends();
    let mut buf = vec![0u8; size];
    assert_eq!(c.read(fd, &mut buf).unwrap(), size);
    assert_eq!(sends() - s0, 2 * 8, "ceil(size/stripe_unit) data exchanges");
    assert_eq!(buf, data);

    // EOF and close add nothing beyond the CloseFd round trip (readahead
    // never requests a stripe past EOF).
    let s0 = sends();
    assert_eq!(c.read(fd, &mut buf).unwrap(), 0);
    c.close(fd).unwrap();
    assert_eq!(sends() - s0, 2, "no stray prefetch at EOF");
    drop(c);
    inst.shutdown();
}

#[test]
fn chunked_striped_read_costs_the_same_total_exchanges() {
    // Reading the same file in stripe-sized chunks keeps the pipeline
    // warm across read() calls: still exactly one exchange per stripe.
    let inst = HareInstance::start(striped_cfg(4));
    let size = 64 * 1024usize;
    let data = pattern(size);
    let setup = inst.new_client(0).unwrap();
    fsapi::write_file(&setup, "/f", &data).unwrap();
    drop(setup);

    let c = inst.new_client(0).unwrap();
    let fd = c.open("/f", OpenFlags::RDONLY, Mode::default()).unwrap();
    let before = inst.machine().msg_stats.sends();
    let mut got = Vec::new();
    let mut buf = vec![0u8; 8192];
    loop {
        let n = c.read(fd, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(inst.machine().msg_stats.sends() - before, 2 * 8);
    assert_eq!(got, data);
    c.close(fd).unwrap();
    drop(c);
    inst.shutdown();
}

#[test]
fn striped_write_then_read_round_trips_across_clients() {
    // Striped writes land in shared DRAM immediately, so another client
    // (on another core, with a cold private cache) reads them back
    // byte-for-byte after close — including a short unaligned tail.
    let inst = HareInstance::start(striped_cfg(4));
    let size = 3 * 8192 + 777usize; // 4 stripes, short last one
    let data = pattern(size);
    let w = inst.new_client(0).unwrap();
    fsapi::write_file(&w, "/x", &data).unwrap();
    drop(w);
    let r = inst.new_client(1).unwrap();
    assert_eq!(read_file(&r, "/x").unwrap(), data);
    // Overwrite-in-place through a second descriptor, then re-read.
    let fd = r.open("/x", OpenFlags::WRONLY, Mode::default()).unwrap();
    assert_eq!(r.write(fd, b"HELLO").unwrap(), 5);
    r.close(fd).unwrap();
    let mut want = data.clone();
    want[..5].copy_from_slice(b"HELLO");
    assert_eq!(read_file(&r, "/x").unwrap(), want);
    drop(r);
    inst.shutdown();
}

#[test]
fn fused_create_is_one_exchange_on_a_chained_path() {
    // The Create chain terminal: a cold open(O_CREAT) of a deep path is
    // the resolution chain and nothing else — the final server creates
    // the dentry, inode, and descriptor in the miss it would otherwise
    // report. Fusion off pays the chain plus the separate create.
    let nservers = 4usize;
    let sends_for = |fused: bool| {
        let mut cfg = HareConfig::timeshare(nservers);
        if !fused {
            cfg.techniques = Techniques::without("fused_terminal");
        }
        let inst = HareInstance::start(cfg);
        let setup = inst.new_client(0).unwrap();
        fsapi::mkdir_p(&setup, "/c0/c1", MkdirOpts::DISTRIBUTED).unwrap();
        let shards = [dentry_shard(InodeId::ROOT, true, "c0", nservers), {
            let st = setup.stat("/c0").unwrap();
            let ino = InodeId {
                server: st.server,
                num: st.ino,
            };
            dentry_shard(ino, true, "c1", nservers)
        }];
        let st = setup.stat("/c0/c1").unwrap();
        let dir = InodeId {
            server: st.server,
            num: st.ino,
        };
        let fshard = dentry_shard(dir, true, "fresh", nservers);
        drop(setup);
        let full = [shards[0], shards[1], fshard];
        let runs = 1 + full.windows(2).filter(|w| w[0] != w[1]).count() as u64;

        let c = inst.new_client(0).unwrap();
        let before = inst.machine().msg_stats.sends();
        let fd = c
            .open(
                "/c0/c1/fresh",
                OpenFlags::CREAT | OpenFlags::WRONLY,
                Mode::default(),
            )
            .unwrap();
        let create_sends = inst.machine().msg_stats.sends() - before;
        c.close(fd).unwrap();
        assert_eq!(c.stat("/c0/c1/fresh").unwrap().size, 0);

        // Second cold client, name now exists: the same fused chain
        // degrades to an open of the existing file — still one pass.
        let c2 = inst.new_client(1).unwrap();
        let before = inst.machine().msg_stats.sends();
        let fd = c2
            .open(
                "/c0/c1/fresh",
                OpenFlags::CREAT | OpenFlags::WRONLY,
                Mode::default(),
            )
            .unwrap();
        let reopen_sends = inst.machine().msg_stats.sends() - before;
        c2.close(fd).unwrap();
        drop(c2);
        drop(c);
        inst.shutdown();
        (runs, create_sends, reopen_sends)
    };

    let (runs, fused_create, fused_reopen) = sends_for(true);
    // One chain: request + (runs - 1) forwards + reply. The create adds
    // zero messages (single socket: affinity places the inode at the
    // final chain server).
    assert_eq!(fused_create, runs + 1, "fused cold create is one exchange");
    assert_eq!(fused_reopen, runs + 1, "existing name: still one pass");

    let (_, unfused_create, _) = sends_for(false);
    assert!(
        unfused_create > fused_create,
        "fusion must save exchanges ({unfused_create} vs {fused_create})"
    );
}

#[test]
fn data_plane_toggles_off_reproduce_the_paper_layout_counts() {
    // The whole scripted workload — create, striped-sized writes, cold
    // re-open, chunked reads, stat, unlink — must cost byte-for-byte the
    // same message count with (a) the default all-blocks-home layout and
    // (b) readahead window 1 at width 1. The striped run (c) must differ:
    // the width is live, the window is inert without it.
    let count = |cfg: HareConfig| {
        let inst = HareInstance::start(cfg);
        let c = inst.new_client(0).unwrap();
        let before = inst.machine().msg_stats.sends();
        let data = pattern(40 * 1024);
        fsapi::write_file(&c, "/w", &data).unwrap();
        let r = inst.new_client(1).unwrap();
        assert_eq!(read_file(&r, "/w").unwrap(), data);
        c.stat("/w").unwrap();
        c.unlink("/w").unwrap();
        let sends = inst.machine().msg_stats.sends() - before;
        drop(r);
        drop(c);
        inst.shutdown();
        sends
    };
    let base = count(HareConfig::timeshare(4));
    let mut no_ra = HareConfig::timeshare(4);
    no_ra.readahead_window = 1;
    assert_eq!(count(no_ra), base, "readahead is inert at width 1");
    let mut on = HareConfig::timeshare(4);
    on.stripe_width = 4;
    assert_ne!(count(on), base, "width 4 must actually change the protocol");
}

// ----- migration × striping ------------------------------------------------

#[test]
fn migrating_a_directory_of_striped_files_keeps_extents_intact() {
    // Extent maps are derived from the *inode* id and the knobs — never
    // from the dentry shard — so migrating the directory moves name
    // service only: every striped file reads back byte-for-byte through
    // the same stripe servers, from stale and fresh clients alike.
    let nservers = 4;
    let inst = HareInstance::start(striped_cfg(nservers));
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::default())
        .unwrap();
    let files: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| {
            let path = format!("/hot/s{i}");
            let data = pattern(3 * 8192 + i * 100);
            fsapi::write_file(&setup, &path, &data).unwrap();
            (path, data)
        })
        .collect();
    let home = setup.stat("/hot").unwrap().server;
    let to = (home + 1) % nservers as u16;

    // A stale client with a warm route and a descriptor opened before
    // the migration.
    let stale = inst.new_client(1).unwrap();
    let (held_path, held_data) = &files[0];
    let held = stale
        .open(held_path, OpenFlags::RDONLY, Mode::default())
        .unwrap();

    assert!(setup.migrate_dir("/hot", to).unwrap());
    assert_eq!(setup.dir_owner("/hot").unwrap(), to);

    // The pre-migration descriptor streams on untouched (stripe I/O is
    // addressed by the extent map, not the dentry owner)...
    let mut buf = vec![0u8; held_data.len()];
    assert_eq!(stale.read(held, &mut buf).unwrap(), held_data.len());
    assert_eq!(&buf, held_data);
    stale.close(held).unwrap();
    // ...and re-resolving every file (one NotOwner bounce at most) still
    // finds the same bytes.
    for (path, data) in &files {
        assert_eq!(&read_file(&stale, path).unwrap(), data);
    }
    let fresh = inst.new_client(2).unwrap();
    for (path, data) in &files {
        assert_eq!(&read_file(&fresh, path).unwrap(), data);
    }
    drop(fresh);
    drop(stale);
    drop(setup);
    inst.shutdown();
}

#[test]
fn migration_into_rmdir_marked_destination_still_eagains_with_striping() {
    // The pinned MigrateInstall-vs-rmdir race from the placement suite,
    // re-run with striped extents in the directory: the install under a
    // mark is still rejected with EAGAIN, the abort leaves every striped
    // file readable, and the retry after the rmdir resolves goes through.
    // Op tracing is on: the EAGAIN unwind must close every span it opened
    // (the leak assertion at the bottom).
    use hare_core::proto::{Reply, Request, ServerMsg};
    let nservers = 2;
    let mut cfg = striped_cfg(nservers); // width clamps to 2 servers
    cfg.stripe_unit = 8192;
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::default())
        .unwrap();
    let data = pattern(4 * 8192);
    for i in 0..3 {
        fsapi::write_file(&setup, &format!("/hot/f{i}"), &data).unwrap();
    }
    let hstat = setup.stat("/hot").unwrap();
    let (home, dir) = (
        hstat.server,
        InodeId {
            server: hstat.server,
            num: hstat.ino,
        },
    );
    let to = (home + 1) % 2;

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
    assert_eq!(
        setup.migrate_dir("/hot", to).unwrap_err(),
        Errno::EAGAIN,
        "install under an rmdir mark must be rejected"
    );
    assert_eq!(setup.dir_owner("/hot").unwrap(), home);
    for i in 0..3 {
        assert_eq!(read_file(&setup, &format!("/hot/f{i}")).unwrap(), data);
    }
    match raw(to as usize, Request::RmdirAbort { dir }) {
        Ok(Reply::Unit) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(setup.migrate_dir("/hot", to).unwrap());
    for i in 0..3 {
        assert_eq!(read_file(&setup, &format!("/hot/f{i}")).unwrap(), data);
    }
    drop(setup);
    inst.shutdown();
    assert_eq!(
        inst.machine().otrace.open_spans(),
        0,
        "the EAGAIN unwind must close every span it opened"
    );
    assert!(inst.machine().otrace.op_count() > 0, "the run was traced");
}

#[test]
fn striped_churn_across_migration_lands_every_write_once_and_leaks_no_blocks() {
    // Worker threads create, stream, verify, and unlink striped files
    // while the directory migrates twice. Parked creates/unlinks replay
    // exactly once (content stays byte-exact, nothing duplicates), and
    // afterwards — with every file unlinked — each server's partition
    // must be reclaimable to the last block: any stranded extent shows
    // up as ENOSPC when a full-partition file is written at that server.
    let nservers = 4usize;
    let mut cfg = striped_cfg(nservers);
    cfg.dram_blocks = 128 * nservers; // small partitions: leaks are loud
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::default())
        .unwrap();
    let home = setup.stat("/hot").unwrap().server;
    let to = (home + 1) % nservers as u16;

    let workers = 3;
    let rounds = 12;
    let mut joins = Vec::new();
    for w in 0..workers {
        let inst = Arc::clone(&inst);
        joins.push(std::thread::spawn(move || {
            let c = inst.new_client(w % 4).unwrap();
            let data = pattern(3 * 8192 + w * 64);
            for i in 0..rounds {
                let p = format!("/hot/w{w}_{i}");
                fsapi::write_file(&c, &p, &data).unwrap();
                assert_eq!(
                    read_file(&c, &p).unwrap(),
                    data,
                    "striped content must land exactly once"
                );
                c.unlink(&p).unwrap();
            }
            drop(c);
        }));
    }
    let admin = inst.new_client(3).unwrap();
    assert!(admin.migrate_dir("/hot", to).unwrap());
    assert!(admin.migrate_dir("/hot", home).unwrap());
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(admin.readdir("/hot").unwrap().len(), 0, "nothing survives");
    admin.rmdir("/hot").unwrap();

    // Exhaustion probe: one full-partition file per server. 128 blocks
    // each — if any extent was stranded by the churn or the migrations,
    // the owning server cannot satisfy this and the write fails ENOSPC.
    for s in 0..nservers as u16 {
        let name = format!(
            "/{}",
            pinned_name(InodeId::ROOT, true, "probe", s, nservers)
        );
        let full = vec![0u8; 128 * 4096];
        fsapi::write_file(&admin, &name, &full).unwrap();
        assert_eq!(admin.stat(&name).unwrap().server, s);
        admin.unlink(&name).unwrap();
    }
    drop(admin);
    drop(setup);
    inst.shutdown();
}
