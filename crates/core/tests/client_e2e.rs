//! End-to-end tests of the Hare client library against a running instance:
//! multiple client libraries on different cores, real server threads, real
//! non-coherent buffer cache.

use fsapi::{read_to_vec, write_file, Errno, FileType, MkdirOpts, Mode, OpenFlags, ProcFs, Whence};
use hare_core::{dentry_shard, HareConfig, HareInstance, InodeId};

fn boot(ncores: usize) -> std::sync::Arc<HareInstance> {
    HareInstance::start(HareConfig::timeshare(ncores))
}

#[test]
fn write_then_read_across_cores() {
    let inst = boot(4);
    let c0 = inst.new_client(0).unwrap();
    let c2 = inst.new_client(2).unwrap();

    // Core 0 writes and closes (write-back); core 2 opens (invalidate) and
    // reads: close-to-open consistency end to end.
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    write_file(&c0, "/big", &data).unwrap();
    let got = read_to_vec(&c2, "/big").unwrap();
    assert_eq!(got, data);
}

#[test]
fn second_writer_update_visible_after_reopen() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();

    write_file(&a, "/f", b"version-1").unwrap();
    assert_eq!(read_to_vec(&b, "/f").unwrap(), b"version-1");
    write_file(&b, "/f", b"version-2").unwrap();
    assert_eq!(read_to_vec(&a, "/f").unwrap(), b"version-2");
}

#[test]
fn unlinked_file_readable_through_open_fd() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();

    write_file(&a, "/doomed", b"still here").unwrap();
    let fd = a
        .open("/doomed", OpenFlags::RDONLY, Mode::default())
        .unwrap();
    // Another process unlinks it (the compilation idiom, paper §2.2/§3.4).
    b.unlink("/doomed").unwrap();
    assert_eq!(b.stat("/doomed").unwrap_err(), Errno::ENOENT);
    // The original fd still reads the data.
    let mut buf = [0u8; 10];
    assert_eq!(a.read(fd, &mut buf).unwrap(), 10);
    assert_eq!(&buf, b"still here");
    a.close(fd).unwrap();
    // Now the inode is gone for good: a fresh open fails.
    assert_eq!(
        a.open("/doomed", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::ENOENT
    );
}

#[test]
fn distributed_directory_entries_visible_everywhere() {
    let inst = boot(4);
    let clients: Vec<_> = (0..4).map(|i| inst.new_client(i).unwrap()).collect();
    clients[0]
        .mkdir_opts("/shared", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();

    // Every client creates files in the same directory concurrently.
    for (i, c) in clients.iter().enumerate() {
        for j in 0..8 {
            write_file(c, &format!("/shared/c{i}_f{j}"), b"x").unwrap();
        }
    }
    // readdir (directory broadcast) sees all 32 entries from any client.
    let entries = clients[3].readdir("/shared").unwrap();
    assert_eq!(entries.len(), 32);
    // Entries are spread over multiple servers (hash sharding).
    let servers: std::collections::HashSet<u16> = entries.iter().map(|e| e.server).collect();
    assert!(
        servers.len() > 1,
        "hashing should spread inodes/dentries over servers: {servers:?}"
    );
}

#[test]
fn centralized_directory_works_and_lists() {
    let inst = boot(4);
    let c = inst.new_client(1).unwrap();
    c.mkdir_opts("/central", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    for j in 0..10 {
        write_file(&c, &format!("/central/f{j}"), b"y").unwrap();
    }
    assert_eq!(c.readdir("/central").unwrap().len(), 10);
    // stat reports a directory.
    assert_eq!(c.stat("/central").unwrap().ftype, FileType::Directory);
}

#[test]
fn rename_within_and_across_directories() {
    let inst = boot(4);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(3).unwrap();
    a.mkdir_opts("/src", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    a.mkdir_opts("/dst", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    write_file(&a, "/src/one", b"payload").unwrap();

    a.rename("/src/one", "/dst/two").unwrap();
    assert_eq!(a.stat("/src/one").unwrap_err(), Errno::ENOENT);
    assert_eq!(read_to_vec(&b, "/dst/two").unwrap(), b"payload");

    // Rename over an existing file replaces it.
    write_file(&b, "/dst/three", b"old").unwrap();
    b.rename("/dst/two", "/dst/three").unwrap();
    assert_eq!(read_to_vec(&a, "/dst/three").unwrap(), b"payload");
    assert_eq!(a.readdir("/dst").unwrap().len(), 1);
}

#[test]
fn rename_is_noop_on_same_path() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    write_file(&a, "/same", b"z").unwrap();
    a.rename("/same", "/same").unwrap();
    assert_eq!(read_to_vec(&a, "/same").unwrap(), b"z");
}

#[test]
fn rmdir_distributed_empty_and_nonempty() {
    let inst = boot(4);
    let c = inst.new_client(0).unwrap();
    c.mkdir_opts("/d", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    write_file(&c, "/d/file", b"k").unwrap();

    // Non-empty: the three-phase protocol aborts with ENOTEMPTY.
    assert_eq!(c.rmdir("/d").unwrap_err(), Errno::ENOTEMPTY);
    // Still usable after the abort.
    assert_eq!(c.readdir("/d").unwrap().len(), 1);

    c.unlink("/d/file").unwrap();
    c.rmdir("/d").unwrap();
    assert_eq!(c.stat("/d").unwrap_err(), Errno::ENOENT);
    // Creating in a removed directory fails.
    assert_eq!(
        c.open(
            "/d/x",
            OpenFlags::CREAT | OpenFlags::WRONLY,
            Mode::default()
        )
        .unwrap_err(),
        Errno::ENOENT
    );
    // And the name can be reused.
    c.mkdir_opts("/d", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    assert_eq!(c.readdir("/d").unwrap().len(), 0);
}

#[test]
fn rmdir_centralized() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    c.mkdir_opts("/cd", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    write_file(&c, "/cd/f", b"1").unwrap();
    assert_eq!(c.rmdir("/cd").unwrap_err(), Errno::ENOTEMPTY);
    c.unlink("/cd/f").unwrap();
    c.rmdir("/cd").unwrap();
    assert_eq!(c.readdir("/cd").unwrap_err(), Errno::ENOENT);
}

#[test]
fn deep_paths_and_dotdot() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    fsapi::mkdir_p(&c, "/a/b/c/d", MkdirOpts::default()).unwrap();
    write_file(&c, "/a/b/c/d/leaf", b"deep").unwrap();
    assert_eq!(read_to_vec(&c, "/a/b/../b/c/./d/leaf").unwrap(), b"deep");
    assert_eq!(c.stat("/a/b/c").unwrap().ftype, FileType::Directory);
}

#[test]
fn lseek_and_sparse_reads() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    let fd = c
        .open(
            "/sparse",
            OpenFlags::RDWR | OpenFlags::CREAT,
            Mode::default(),
        )
        .unwrap();
    // Write at 10000 leaving a hole in block 0/1.
    c.lseek(fd, 10_000, Whence::Set).unwrap();
    c.write(fd, b"end").unwrap();
    assert_eq!(c.lseek(fd, 0, Whence::End).unwrap(), 10_003);
    c.lseek(fd, 0, Whence::Set).unwrap();
    let mut buf = [7u8; 16];
    c.read(fd, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 16], "holes read as zeros");
    c.lseek(fd, -3, Whence::End).unwrap();
    let mut tail = [0u8; 3];
    assert_eq!(c.read(fd, &mut tail).unwrap(), 3);
    assert_eq!(&tail, b"end");
    c.close(fd).unwrap();
}

#[test]
fn o_excl_and_o_trunc() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    write_file(&c, "/f", b"0123456789").unwrap();
    assert_eq!(
        c.open(
            "/f",
            OpenFlags::CREAT | OpenFlags::EXCL | OpenFlags::WRONLY,
            Mode::default()
        )
        .unwrap_err(),
        Errno::EEXIST
    );
    let fd = c
        .open("/f", OpenFlags::WRONLY | OpenFlags::TRUNC, Mode::default())
        .unwrap();
    c.close(fd).unwrap();
    assert_eq!(c.stat("/f").unwrap().size, 0);
}

#[test]
fn append_mode() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    write_file(&c, "/log", b"one\n").unwrap();
    let fd = c
        .open(
            "/log",
            OpenFlags::WRONLY | OpenFlags::APPEND,
            Mode::default(),
        )
        .unwrap();
    c.write(fd, b"two\n").unwrap();
    c.close(fd).unwrap();
    assert_eq!(read_to_vec(&c, "/log").unwrap(), b"one\ntwo\n");
}

#[test]
fn dup_shares_offset_via_server() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    write_file(&c, "/shared-off", b"abcdefgh").unwrap();
    let fd1 = c
        .open("/shared-off", OpenFlags::RDONLY, Mode::default())
        .unwrap();
    let fd2 = c.dup(fd1).unwrap();
    let mut b1 = [0u8; 3];
    let mut b2 = [0u8; 3];
    c.read(fd1, &mut b1).unwrap();
    c.read(fd2, &mut b2).unwrap();
    assert_eq!(&b1, b"abc");
    assert_eq!(&b2, b"def", "dup'd descriptors share one offset");
    c.close(fd1).unwrap();
    c.close(fd2).unwrap();
}

#[test]
fn pipes_block_and_deliver_across_processes() {
    let inst = boot(2);
    let a = std::sync::Arc::new(inst.new_client(0).unwrap());
    let (r, w) = a.pipe().unwrap();

    // Reader thread (same client lib would self-deadlock on state lock?
    // no: pipe ops drop the lock before the RPC). Simulate a second process
    // sharing the pipe via export/import.
    let exports = a.export_fds().unwrap();
    let b = inst.new_client(1).unwrap();
    b.import_fds(&exports);

    let t = std::thread::spawn(move || {
        let mut buf = [0u8; 5];
        let n = b.read(fsapi::Fd(r.0), &mut buf).unwrap();
        (n, buf)
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    a.write(w, b"ping!").unwrap();
    let (n, buf) = t.join().unwrap();
    assert_eq!(n, 5);
    assert_eq!(&buf, b"ping!");

    // Close both write ends → EOF at the reader.
    a.close(w).unwrap();
    a.close(r).unwrap();
}

#[test]
fn ftruncate_shrinks_and_grows() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    write_file(&c, "/t", &[9u8; 9000]).unwrap();
    let fd = c.open("/t", OpenFlags::RDWR, Mode::default()).unwrap();
    c.ftruncate(fd, 100).unwrap();
    assert_eq!(c.fstat(fd).unwrap().size, 100);
    c.ftruncate(fd, 5000).unwrap();
    assert_eq!(c.fstat(fd).unwrap().size, 5000);
    c.close(fd).unwrap();
    let data = read_to_vec(&c, "/t").unwrap();
    assert_eq!(data.len(), 5000);
    assert!(data[..100].iter().all(|&b| b == 9));
    assert!(data[100..].iter().all(|&b| b == 0), "grown region is zeros");
}

#[test]
fn fsync_publishes_without_close() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();
    let fd = a
        .open(
            "/pub",
            OpenFlags::WRONLY | OpenFlags::CREAT,
            Mode::default(),
        )
        .unwrap();
    a.write(fd, b"durable").unwrap();
    a.fsync(fd).unwrap();
    // Reader on another core sees the data after open (fd still open at
    // the writer!).
    assert_eq!(read_to_vec(&b, "/pub").unwrap(), b"durable");
    a.close(fd).unwrap();
}

#[test]
fn errors_match_posix() {
    let inst = boot(2);
    let c = inst.new_client(0).unwrap();
    assert_eq!(c.stat("/nope").unwrap_err(), Errno::ENOENT);
    assert_eq!(
        c.open("/nope", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::ENOENT
    );
    write_file(&c, "/file", b"x").unwrap();
    assert_eq!(c.readdir("/file").unwrap_err(), Errno::ENOTDIR);
    assert_eq!(
        c.open("/file/sub", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::ENOTDIR
    );
    assert_eq!(c.rmdir("/file").unwrap_err(), Errno::ENOTDIR);
    assert_eq!(c.unlink("/missing").unwrap_err(), Errno::ENOENT);
    c.mkdir("/dir", Mode::default()).unwrap();
    assert_eq!(c.unlink("/dir").unwrap_err(), Errno::EISDIR);
    assert_eq!(
        c.open("/dir", OpenFlags::RDONLY, Mode::default())
            .unwrap_err(),
        Errno::EISDIR
    );
    assert_eq!(c.mkdir("/dir", Mode::default()).unwrap_err(), Errno::EEXIST);
    let fd = c.open("/file", OpenFlags::RDONLY, Mode::default()).unwrap();
    assert_eq!(c.write(fd, b"no").unwrap_err(), Errno::EBADF);
    c.close(fd).unwrap();
    assert_eq!(c.close(fd).unwrap_err(), Errno::EBADF);
}

#[test]
fn concurrent_creates_in_one_distributed_directory() {
    let inst = boot(4);
    let insts = std::sync::Arc::new(inst);
    let c0 = insts.new_client(0).unwrap();
    c0.mkdir_opts("/par", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    drop(c0);

    let mut handles = Vec::new();
    for core in 0..4usize {
        let inst = std::sync::Arc::clone(&insts);
        handles.push(std::thread::spawn(move || {
            let c = inst.new_client(core).unwrap();
            for j in 0..25 {
                write_file(&c, &format!("/par/core{core}_{j}"), b"v").unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let c = insts.new_client(0).unwrap();
    assert_eq!(c.readdir("/par").unwrap().len(), 100);
}

#[test]
fn concurrent_rmdir_and_create_race_is_safe() {
    // The race the three-phase protocol exists for: one process rmdirs
    // while another creates a file in the same directory. Either the
    // create wins (rmdir → ENOTEMPTY) or the rmdir wins (create → ENOENT);
    // never both, never a hang.
    for round in 0..8 {
        let inst = boot(4);
        let setup = inst.new_client(0).unwrap();
        setup
            .mkdir_opts("/race", Mode::default(), MkdirOpts::DISTRIBUTED)
            .unwrap();
        drop(setup);
        let inst = std::sync::Arc::new(inst);

        let i1 = std::sync::Arc::clone(&inst);
        let creator = std::thread::spawn(move || {
            let c = i1.new_client(1).unwrap();
            c.open(
                &format!("/race/f{round}"),
                OpenFlags::CREAT | OpenFlags::WRONLY,
                Mode::default(),
            )
            .map(|fd| c.close(fd).unwrap())
        });
        let i2 = std::sync::Arc::clone(&inst);
        let remover = std::thread::spawn(move || {
            let c = i2.new_client(2).unwrap();
            c.rmdir("/race")
        });

        let created = creator.join().unwrap();
        let removed = remover.join().unwrap();
        let c = inst.new_client(3).unwrap();
        match (created.is_ok(), removed.is_ok()) {
            (true, true) => panic!("both create and rmdir succeeded"),
            (true, false) => {
                assert_eq!(c.readdir("/race").unwrap().len(), 1);
            }
            (false, true) => {
                assert_eq!(c.readdir("/race").unwrap_err(), Errno::ENOENT);
            }
            (false, false) => {
                // Creator lost to e.g. a concurrent mark, remover saw
                // non-empty: directory must still exist and be empty.
                assert_eq!(c.readdir("/race").unwrap().len(), 0);
            }
        }
    }
}

#[test]
fn negative_dentry_invalidated_by_racing_create() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();
    // b probes a missing name twice: the second miss is served from the
    // negative cache without an RPC.
    assert_eq!(b.stat("/later").unwrap_err(), Errno::ENOENT);
    assert_eq!(b.stat("/later").unwrap_err(), Errno::ENOENT);
    // a creates the name: the server invalidates b's negative entry, so b
    // must observe the file on its next resolution.
    write_file(&a, "/later", b"now you see me").unwrap();
    assert_eq!(read_to_vec(&b, "/later").unwrap(), b"now you see me");
}

#[test]
fn negative_dentry_on_intermediate_component() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();
    // The whole parent chain is missing; b caches the first component's
    // absence.
    assert_eq!(b.stat("/dir/leaf").unwrap_err(), Errno::ENOENT);
    fsapi::mkdir_p(&a, "/dir", MkdirOpts::default()).unwrap();
    write_file(&a, "/dir/leaf", b"x").unwrap();
    assert_eq!(read_to_vec(&b, "/dir/leaf").unwrap(), b"x");
}

#[test]
fn open_of_remote_inode_completes_with_one_open_inode() {
    // Two sockets: the writer (socket 0) creates a file whose dentry shard
    // is a socket-1 server, so creation affinity keeps the inode on the
    // writer's local server, away from its dentry. The reader's final
    // Lookup carries the open but the dentry server cannot execute it
    // (`term: None`), so the client completes with exactly one OpenInode.
    let mut cfg = HareConfig::timeshare(8);
    cfg.topology = vtime::Topology::new(2, 4);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let a = inst.new_client(0).unwrap();
    a.mkdir_opts("/d", Mode::default(), MkdirOpts::DISTRIBUTED)
        .unwrap();
    let st = a.stat("/d").unwrap();
    let d = InodeId {
        server: st.server,
        num: st.ino,
    };
    let name = (0..)
        .map(|i| format!("plain{i}"))
        .find(|n| dentry_shard(d, true, n, 8) == 5)
        .unwrap();
    let path = format!("/d/{name}");
    write_file(&a, &path, b"two-rpc path").unwrap();
    assert_ne!(a.stat(&path).unwrap().server, 5, "inode stays local");

    // The reader caches /d first, so the open's only uncached component
    // is the final one: a single Lookup { terminal: Open }.
    let b = inst.new_client(1).unwrap();
    b.stat("/d").unwrap();
    assert_eq!(read_to_vec(&b, &path).unwrap(), b"two-rpc path");
    // The last traced open is the reader's (roots come in op order).
    let trees = inst.machine().otrace.op_trees();
    let open = trees
        .iter()
        .rev()
        .find(|t| t.label == "open")
        .expect("open traced");
    let labels: Vec<&str> = open.children.iter().map(|c| c.label).collect();
    assert_eq!(labels, ["Lookup", "OpenInode"]);
}

#[test]
fn dircache_invalidation_prevents_stale_resolution() {
    let inst = boot(2);
    let a = inst.new_client(0).unwrap();
    let b = inst.new_client(1).unwrap();
    write_file(&a, "/target", b"v1").unwrap();
    // b caches the lookup.
    assert_eq!(read_to_vec(&b, "/target").unwrap(), b"v1");
    // a unlinks and recreates: a *different* inode now holds the name.
    a.unlink("/target").unwrap();
    write_file(&a, "/target", b"v2").unwrap();
    // b must observe the invalidation and re-resolve.
    assert_eq!(read_to_vec(&b, "/target").unwrap(), b"v2");
}
