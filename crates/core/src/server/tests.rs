//! Direct handler-level tests of the file server (no threads: envelopes are
//! fed to `handle` synchronously and replies read back from the channel).

use super::*;
use crate::config::HareConfig;

struct Harness {
    server: Server,
    machine: Arc<Machine>,
}

impl Harness {
    fn new() -> Self {
        let mut cfg = HareConfig::timeshare(2);
        cfg.dram_blocks = 2 * 64;
        cfg.root_distributed = false;
        cfg.pipe_capacity = 16;
        cfg.dir_shard_width = 1;
        let cfg = Arc::new(cfg.normalized());
        let machine = Machine::new(&cfg);
        // A single-server peer table (no forwarding possible, but routing
        // still needs the server count).
        let (self_tx, _self_rx) = msg::channel(Arc::clone(&machine.msg_stats));
        let peers = Arc::new(vec![crate::rpc::ServerHandle {
            id: 0,
            core: 0,
            tx: self_tx,
        }]);
        let server = Server::new(Arc::clone(&machine), cfg, 0, peers);
        Harness { server, machine }
    }

    /// Sends one request and returns the immediate reply (None if parked).
    fn req(&mut self, req: Request) -> Option<WireReply> {
        let (tx, rx) = msg::channel(Arc::clone(&self.machine.msg_stats));
        self.server.handle(msg::Envelope {
            payload: ServerMsg {
                req,
                reply: tx,
                span: None,
            },
            deliver_at: 0,
            src_core: 1,
        });
        rx.try_recv().ok().map(|e| e.payload)
    }

    fn must(&mut self, req: Request) -> Reply {
        self.req(req).expect("reply expected").expect("ok expected")
    }

    /// Like [`Harness::req`], plus the service cycles the request was
    /// charged: the server's busy time net of the fixed message overheads
    /// (receive, reply send, timeshare context switch).
    fn req_charged(&mut self, req: Request) -> (Option<WireReply>, u64) {
        let before = self.machine.busy.now(0);
        let reply = self.req(req);
        let cost = &self.machine.cost;
        let mut overhead = cost.msg_recv + cost.msg_send;
        if self.machine.timeshared(0) {
            overhead += cost.ctx_switch;
        }
        (reply, self.machine.busy.now(0) - before - overhead)
    }

    fn create_file(&mut self, name: &str) -> (InodeId, OpenResult) {
        match self.must(Request::Create {
            client: 1,
            ftype: FileType::Regular,
            mode: Mode::default(),
            dist: false,
            add_map: Some((InodeId::ROOT, name.to_string())),
            open: Some(OpenFlags::RDWR),
        }) {
            Reply::Created { ino, open } => (ino, open.expect("open requested")),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn coalesced_create_open_unlink_orphan() {
    let mut h = Harness::new();
    let (ino, open) = h.create_file("f");
    assert_eq!(ino.server, 0);

    // Lookup finds it.
    match h.must(Request::Lookup {
        client: 2,
        dir: InodeId::ROOT,
        name: "f".into(),
        terminal: TerminalOp::None,
    }) {
        Reply::Lookup { target, ftype, .. } => {
            assert_eq!(target, ino);
            assert_eq!(ftype, FileType::Regular);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Unlink while open: RM_MAP + decref orphans the inode but keeps it.
    h.must(Request::RmMap {
        client: 1,
        dir: InodeId::ROOT,
        name: "f".into(),
        must_be_file: true,
    });
    h.must(Request::LinkDecref { num: ino.num });
    // Inode still alive: stat succeeds (orphan semantics, paper §3.4).
    match h.must(Request::StatInode { num: ino.num }) {
        Reply::Stat(st) => assert_eq!(st.nlink, 0),
        other => panic!("unexpected {other:?}"),
    }
    // Last close destroys it.
    h.must(Request::CloseFd {
        fd: open.fd,
        size: None,
    });
    assert!(matches!(
        h.req(Request::StatInode { num: ino.num }),
        Some(Err(Errno::ENOENT))
    ));
}

#[test]
fn duplicate_create_fails() {
    let mut h = Harness::new();
    h.create_file("f");
    let r = h.req(Request::Create {
        client: 1,
        ftype: FileType::Regular,
        mode: Mode::default(),
        dist: false,
        add_map: Some((InodeId::ROOT, "f".into())),
        open: None,
    });
    assert!(matches!(r, Some(Err(Errno::EEXIST))));
}

#[test]
fn alloc_grows_and_truncate_defers() {
    let mut h = Harness::new();
    let (_ino, open) = h.create_file("f");
    let blocks = match h.must(Request::AllocBlocks {
        fd: open.fd,
        min_size: 3 * BLOCK_SIZE as u64,
    }) {
        Reply::Blocks { blocks, .. } => blocks,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(blocks.len(), 3);
    let (_, _, avail) = h.server.debug_state();
    assert_eq!(avail, 61);

    // Truncate to one block: two blocks defer-freed while the fd is open.
    h.must(Request::Truncate {
        fd: open.fd,
        size: 100,
    });
    let (_, _, avail) = h.server.debug_state();
    assert_eq!(avail, 61, "blocks must not be reused while fds are open");

    h.must(Request::CloseFd {
        fd: open.fd,
        size: Some(100),
    });
    let (_, _, avail) = h.server.debug_state();
    assert_eq!(avail, 63, "deferred blocks freed at last close");
}

#[test]
fn shared_fd_offset_and_demotion() {
    let mut h = Harness::new();
    let (_ino, open) = h.create_file("f");
    // Share the descriptor (fork): offset migrates to the server.
    h.must(Request::FdIncref {
        fd: open.fd,
        offset: 0,
    });
    // Two writers appending through the shared offset never overlap.
    let r1 = h.must(Request::SharedIo {
        fd: open.fd,
        len: 100,
        write: true,
        append: false,
    });
    let r2 = h.must(Request::SharedIo {
        fd: open.fd,
        len: 50,
        write: true,
        append: false,
    });
    match (r1, r2) {
        (
            Reply::SharedIo {
                offset: o1,
                demote: None,
                ..
            },
            Reply::SharedIo {
                offset: o2,
                demote: None,
                ..
            },
        ) => {
            assert_eq!(o1, 0);
            assert_eq!(o2, 100);
        }
        other => panic!("unexpected {other:?}"),
    }

    // One process closes its reference: demotion arms.
    h.must(Request::CloseFd {
        fd: open.fd,
        size: None,
    });
    // Next shared op returns the offset to the survivor.
    match h.must(Request::SharedIo {
        fd: open.fd,
        len: 10,
        write: false,
        append: false,
    }) {
        Reply::SharedIo {
            demote: Some(d), ..
        } => {
            // The read at offset 150 hits EOF (size 150): offset unchanged.
            assert_eq!(d.offset, 150);
            assert_eq!(d.size, 150);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn rmdir_three_phase_commit() {
    let mut h = Harness::new();
    // Create an empty dir "d" under root.
    let dir = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Directory,
        mode: Mode::default(),
        dist: true,
        add_map: Some((InodeId::ROOT, "d".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };

    // Phase 1: serialize at the home server.
    assert!(matches!(
        h.must(Request::RmdirSerialize { dir }),
        Reply::RmdirLocked
    ));
    // Phase 2: mark.
    assert!(matches!(
        h.must(Request::RmdirMark { dir }),
        Reply::RmdirMark(MarkResult::Marked)
    ));
    // Phase 3: commit destroys the inode and tombstones the dir.
    h.must(Request::RmdirCommit { dir });
    h.must(Request::RmdirRelease { dir });
    assert!(matches!(
        h.req(Request::StatInode { num: dir.num }),
        Some(Err(Errno::ENOENT))
    ));
    // Create under the removed dir is refused.
    let r = h.req(Request::AddMap {
        client: 1,
        dir,
        name: "x".into(),
        target: InodeId { server: 0, num: 99 },
        ftype: FileType::Regular,
        dist: false,
        replace: false,
    });
    assert!(matches!(r, Some(Err(Errno::ENOENT))));
}

#[test]
fn rmdir_mark_delays_creates_until_abort() {
    let mut h = Harness::new();
    let dir = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Directory,
        mode: Mode::default(),
        dist: true,
        add_map: Some((InodeId::ROOT, "d".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    h.must(Request::RmdirSerialize { dir });
    h.must(Request::RmdirMark { dir });

    // A create lands while the mark is held: it must be delayed, not
    // answered.
    let (tx, rx) = msg::channel(Arc::clone(&h.machine.msg_stats));
    h.server.handle(msg::Envelope {
        payload: ServerMsg {
            req: Request::AddMap {
                client: 2,
                dir,
                name: "x".into(),
                target: InodeId { server: 0, num: 50 },
                ftype: FileType::Regular,
                dist: false,
                replace: false,
            },
            reply: tx,
            span: None,
        },
        deliver_at: 0,
        src_core: 1,
    });
    assert!(rx.try_recv().is_err(), "operation must be parked");

    // ABORT releases and replays it: the create now succeeds.
    h.must(Request::RmdirAbort { dir });
    let env = rx.try_recv().expect("replayed after abort");
    assert!(matches!(
        env.payload,
        Ok(Reply::AddMapped { replaced: None })
    ));
}

#[test]
fn rmdir_mark_fails_on_nonempty_shard() {
    let mut h = Harness::new();
    let dir = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Directory,
        mode: Mode::default(),
        dist: true,
        add_map: Some((InodeId::ROOT, "d".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    h.must(Request::AddMap {
        client: 1,
        dir,
        name: "child".into(),
        target: InodeId { server: 0, num: 40 },
        ftype: FileType::Regular,
        dist: false,
        replace: false,
    });
    h.must(Request::RmdirSerialize { dir });
    assert!(matches!(
        h.must(Request::RmdirMark { dir }),
        Reply::RmdirMark(MarkResult::NotEmpty)
    ));
}

#[test]
fn rmdir_serialization_queues_second_locker() {
    let mut h = Harness::new();
    let dir = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Directory,
        mode: Mode::default(),
        dist: true,
        add_map: Some((InodeId::ROOT, "d".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    assert!(matches!(
        h.must(Request::RmdirSerialize { dir }),
        Reply::RmdirLocked
    ));
    // Second locker parks.
    let (tx, rx) = msg::channel(Arc::clone(&h.machine.msg_stats));
    h.server.handle(msg::Envelope {
        payload: ServerMsg {
            req: Request::RmdirSerialize { dir },
            reply: tx,
            span: None,
        },
        deliver_at: 0,
        src_core: 1,
    });
    assert!(rx.try_recv().is_err(), "second rmdir must wait");
    // Release grants it.
    h.must(Request::RmdirRelease { dir });
    let env = rx.try_recv().expect("lock handed off");
    assert!(matches!(env.payload, Ok(Reply::RmdirLocked)));
}

#[test]
fn centralized_rmdir_single_message() {
    let mut h = Harness::new();
    let dir = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Directory,
        mode: Mode::default(),
        dist: false,
        add_map: Some((InodeId::ROOT, "d".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    // Non-empty fails.
    h.must(Request::AddMap {
        client: 1,
        dir,
        name: "c".into(),
        target: InodeId { server: 0, num: 70 },
        ftype: FileType::Regular,
        dist: false,
        replace: false,
    });
    assert!(matches!(
        h.req(Request::RmdirCentral { dir }),
        Some(Err(Errno::ENOTEMPTY))
    ));
    h.must(Request::RmMap {
        client: 1,
        dir,
        name: "c".into(),
        must_be_file: true,
    });
    assert!(matches!(h.must(Request::RmdirCentral { dir }), Reply::Unit));
}

#[test]
fn invalidations_reach_tracking_clients() {
    let mut h = Harness::new();
    // Client 7 registers with an invalidation queue.
    let (itx, irx) = msg::channel::<Invalidation>(Arc::clone(&h.machine.msg_stats));
    h.must(Request::Register {
        client: 7,
        core: 1,
        inval: itx,
    });
    let (ino, _open) = h.create_file("f");
    let _ = ino;
    // Client 7 looks the name up (now tracked).
    h.must(Request::Lookup {
        client: 7,
        dir: InodeId::ROOT,
        name: "f".into(),
        terminal: TerminalOp::None,
    });
    // Client 1 removes the entry: client 7 must get an invalidation.
    h.must(Request::RmMap {
        client: 1,
        dir: InodeId::ROOT,
        name: "f".into(),
        must_be_file: true,
    });
    let inv = irx.try_recv().expect("invalidation must be queued already");
    assert_eq!(inv.payload.dir, InodeId::ROOT);
    assert_eq!(inv.payload.name, "f");
    // The mutator itself is not invalidated (its library updates locally).
    assert!(irx.try_recv().is_err());
}

#[test]
fn pipe_blocking_read_woken_by_write() {
    let mut h = Harness::new();
    let (rfd, wfd) = match h.must(Request::PipeCreate) {
        Reply::Pipe { rfd, wfd, .. } => (rfd, wfd),
        other => panic!("unexpected {other:?}"),
    };
    // Blocking read parks.
    let (tx, rx) = msg::channel(Arc::clone(&h.machine.msg_stats));
    h.server.handle(msg::Envelope {
        payload: ServerMsg {
            req: Request::PipeRead { fd: rfd, max: 4 },
            reply: tx,
            span: None,
        },
        deliver_at: 0,
        src_core: 1,
    });
    assert!(rx.try_recv().is_err(), "read on empty pipe parks");
    // A write wakes it.
    h.must(Request::PipeWrite {
        fd: wfd,
        data: b"hi".to_vec().into(),
    });
    match rx.try_recv().expect("woken").payload {
        Ok(Reply::Data { data, .. }) => assert_eq!(&data[..], b"hi"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn pipe_write_blocks_at_capacity_and_epipe() {
    let mut h = Harness::new();
    let (rfd, wfd) = match h.must(Request::PipeCreate) {
        Reply::Pipe { rfd, wfd, .. } => (rfd, wfd),
        other => panic!("unexpected {other:?}"),
    };
    // Capacity is 16 in the harness.
    h.must(Request::PipeWrite {
        fd: wfd,
        data: vec![0u8; 16].into(),
    });
    let (tx, rx) = msg::channel(Arc::clone(&h.machine.msg_stats));
    h.server.handle(msg::Envelope {
        payload: ServerMsg {
            req: Request::PipeWrite {
                fd: wfd,
                data: b"more".to_vec().into(),
            },
            reply: tx,
            span: None,
        },
        deliver_at: 0,
        src_core: 1,
    });
    assert!(rx.try_recv().is_err(), "write to full pipe parks");
    // Close the read end: the parked writer fails with EPIPE.
    h.must(Request::CloseFd {
        fd: rfd,
        size: None,
    });
    assert!(matches!(
        rx.try_recv().expect("woken").payload,
        Err(Errno::EPIPE)
    ));
}

/// Where a single `Lookup` is answered: the directory's home shard, or a
/// read replica of it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Served {
    Home,
    Replica,
}

#[test]
fn single_lookup_terminals_cost_and_semantics() {
    // A directory replicated onto this server (its home is elsewhere);
    // its copy maps "f" to the same local inode the home root maps.
    let rdir = InodeId { server: 1, num: 77 };
    let terminals = [
        TerminalOp::None,
        TerminalOp::Stat,
        TerminalOp::Open {
            flags: OpenFlags::RDONLY,
        },
        TerminalOp::Create {
            flags: OpenFlags::RDONLY | OpenFlags::CREAT,
            mode: Mode::default(),
        },
    ];
    for terminal in terminals {
        for served in [Served::Home, Served::Replica] {
            let case = format!("{terminal:?} at {served:?}");
            let mut h = Harness::new();
            let (ino, open0) = h.create_file("f");
            h.must(Request::CloseFd {
                fd: open0.fd,
                size: None,
            });
            h.must(Request::ReplicaInstall {
                dir: rdir,
                home: 1,
                epoch: 1,
                entries: vec![MigEntry {
                    name: "f".into(),
                    target: ino,
                    ftype: FileType::Regular,
                    dist: false,
                }],
            });
            let dir = match served {
                Served::Home => InodeId::ROOT,
                Served::Replica => rdir,
            };
            // The fused half is charged only when it executes, at the
            // prices of the standalone forms' second halves.
            let (reply, charged) = h.req_charged(Request::Lookup {
                client: 2,
                dir,
                name: "f".into(),
                terminal,
            });
            let term = match reply {
                Some(Ok(Reply::Lookup {
                    target,
                    ftype,
                    term,
                    ..
                })) => {
                    assert_eq!((target, ftype), (ino, FileType::Regular), "{case}");
                    term
                }
                other => panic!("{case}: unexpected {other:?}"),
            };
            match terminal {
                TerminalOp::None => {
                    assert!(term.is_none(), "{case}");
                    assert_eq!(charged, 600, "{case}");
                }
                TerminalOp::Stat => {
                    assert!(matches!(term, Some(TerminalReply::Stat(_))), "{case}");
                    assert_eq!(charged, 600 + 400, "{case}");
                }
                _ => {
                    assert!(matches!(term, Some(TerminalReply::Open(_))), "{case}");
                    assert_eq!(charged, 600 + 700, "{case}");
                }
            }
            // Home answers are tracked for invalidation; replica answers
            // never are (nothing would invalidate a cached replica read).
            let trackers = h.server.dentries.take_trackers(dir, "f", 0);
            assert_eq!(trackers.contains(&2), served == Served::Home, "{case}");

            // A miss is ENOENT whatever the terminal — a single lookup
            // never creates — and costs the bare lookup. A home miss is
            // tracked (negative caching is on) so the client's cached
            // ENOENT hears about a later creation.
            let (reply, charged) = h.req_charged(Request::Lookup {
                client: 2,
                dir,
                name: "absent".into(),
                terminal,
            });
            assert!(matches!(reply, Some(Err(Errno::ENOENT))), "{case}");
            assert_eq!(charged, 600, "{case}");
            assert!(h.server.dentries.lookup(dir, "absent").is_none(), "{case}");
            let trackers = h.server.dentries.take_trackers(dir, "absent", 0);
            assert_eq!(trackers.contains(&2), served == Served::Home, "{case}");
        }
    }
}

#[test]
fn coalesced_and_chained_creates_charge_the_same_create() {
    let mut h = Harness::new();
    // The creator's core shares this server's socket, so a chain that
    // misses its final component under a Create terminal creates it here.
    let (itx, _irx) = msg::channel::<Invalidation>(Arc::clone(&h.machine.msg_stats));
    h.must(Request::Register {
        client: 1,
        core: 1,
        inval: itx,
    });
    let mode = Mode::default();
    // The standalone coalesced Create: its base plus the ADD_MAP half.
    let (reply, charged) = h.req_charged(Request::Create {
        client: 1,
        ftype: FileType::Regular,
        mode,
        dist: false,
        add_map: Some((InodeId::ROOT, "a".into())),
        open: Some(OpenFlags::RDWR),
    });
    assert!(matches!(
        reply,
        Some(Ok(Reply::Created { open: Some(_), .. }))
    ));
    assert_eq!(charged, 900 + 300);
    // The chained form: the envelope, the final component's lookup, and
    // the same create, charged as chain extra.
    let (reply, charged) = h.req_charged(Request::LookupPath {
        client: 1,
        dir: InodeId::ROOT,
        dist: false,
        comps: vec!["b".into()],
        acc: Vec::new(),
        hops: 0,
        terminal: TerminalOp::Create {
            flags: OpenFlags::RDWR | OpenFlags::CREAT,
            mode,
        },
    });
    match reply {
        Some(Ok(Reply::Path {
            entries,
            stopped: None,
            term: Some(TerminalReply::Created { ino, .. }),
        })) => assert_eq!(entries.last().map(|e| e.target), Some(ino)),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(charged, 300 + 600 + 900 + 300);
}

#[test]
fn lookup_open_coalesces_on_local_inode() {
    let mut h = Harness::new();
    let (ino, open0) = h.create_file("f");
    h.must(Request::CloseFd {
        fd: open0.fd,
        size: None,
    });
    // One message resolves the dentry AND opens a descriptor because the
    // inode lives on this (the dentry shard) server.
    match h.must(Request::Lookup {
        client: 2,
        dir: InodeId::ROOT,
        name: "f".into(),
        terminal: TerminalOp::Open {
            flags: OpenFlags::RDONLY,
        },
    }) {
        Reply::Lookup {
            target,
            ftype,
            term: Some(TerminalReply::Open(_)),
            ..
        } => {
            assert_eq!(target, ino);
            assert_eq!(ftype, FileType::Regular);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn lookup_open_falls_back_for_remote_inode() {
    let mut h = Harness::new();
    let remote = InodeId { server: 1, num: 9 };
    h.must(Request::AddMap {
        client: 1,
        dir: InodeId::ROOT,
        name: "r".into(),
        target: remote,
        ftype: FileType::Regular,
        dist: false,
        replace: false,
    });
    // The dentry resolves, but the inode lives elsewhere: no fused open,
    // the client must follow up with OpenInode at server 1. The reply is
    // charged as a plain lookup.
    let (reply, charged) = h.req_charged(Request::Lookup {
        client: 2,
        dir: InodeId::ROOT,
        name: "r".into(),
        terminal: TerminalOp::Open {
            flags: OpenFlags::RDONLY,
        },
    });
    match reply {
        Some(Ok(Reply::Lookup {
            target, term: None, ..
        })) => assert_eq!(target, remote),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(charged, 600);
}

#[test]
fn lookup_open_degrades_to_lookup_when_open_fails() {
    let mut h = Harness::new();
    // A write-only file: the fused RDONLY open fails EACCES, but the
    // reply still carries the resolution — charged as a plain lookup — so
    // the client caches the dentry; its fallback OpenInode reproduces the
    // error.
    let ino = match h.must(Request::Create {
        client: 1,
        ftype: FileType::Regular,
        mode: Mode(0o200),
        dist: false,
        add_map: Some((InodeId::ROOT, "wonly".into())),
        open: None,
    }) {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    let (reply, charged) = h.req_charged(Request::Lookup {
        client: 2,
        dir: InodeId::ROOT,
        name: "wonly".into(),
        terminal: TerminalOp::Open {
            flags: OpenFlags::RDONLY,
        },
    });
    match reply {
        Some(Ok(Reply::Lookup {
            target, term: None, ..
        })) => assert_eq!(target, ino),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(charged, 600);
    assert!(matches!(
        h.req(Request::OpenInode {
            client: 2,
            num: ino.num,
            flags: OpenFlags::RDONLY,
        }),
        Some(Err(Errno::EACCES))
    ));
}

#[test]
fn fresh_addmap_invalidates_miss_trackers() {
    let mut h = Harness::new();
    let (itx, irx) = msg::channel::<Invalidation>(Arc::clone(&h.machine.msg_stats));
    h.must(Request::Register {
        client: 7,
        core: 1,
        inval: itx,
    });
    // Client 7 probes an absent name (and caches the ENOENT): the miss is
    // tracked.
    assert!(matches!(
        h.req(Request::Lookup {
            client: 7,
            dir: InodeId::ROOT,
            name: "soon".into(),
            terminal: TerminalOp::None,
        }),
        Some(Err(Errno::ENOENT))
    ));
    // Client 1 creates the name (coalesced create): client 7's negative
    // entry must be invalidated.
    h.create_file("soon");
    let inv = irx.try_recv().expect("negative entry must be invalidated");
    assert_eq!(inv.payload.dir, InodeId::ROOT);
    assert_eq!(inv.payload.name, "soon");
}

#[test]
fn lookup_open_miss_is_tracked_for_invalidation() {
    let mut h = Harness::new();
    let (itx, irx) = msg::channel::<Invalidation>(Arc::clone(&h.machine.msg_stats));
    h.must(Request::Register {
        client: 7,
        core: 1,
        inval: itx,
    });
    assert!(matches!(
        h.req(Request::Lookup {
            client: 7,
            dir: InodeId::ROOT,
            name: "later".into(),
            terminal: TerminalOp::Open {
                flags: OpenFlags::RDONLY,
            },
        }),
        Some(Err(Errno::ENOENT))
    ));
    // A plain (non-coalesced) AddMap creation also reaches miss trackers.
    h.must(Request::AddMap {
        client: 1,
        dir: InodeId::ROOT,
        name: "later".into(),
        target: InodeId { server: 0, num: 33 },
        ftype: FileType::Regular,
        dist: false,
        replace: false,
    });
    let inv = irx.try_recv().expect("miss tracker must hear the create");
    assert_eq!(inv.payload.name, "later");
}

#[test]
fn open_nonexistent_inode_fails() {
    let mut h = Harness::new();
    assert!(matches!(
        h.req(Request::OpenInode {
            client: 1,
            num: 424242,
            flags: OpenFlags::RDONLY,
        }),
        Some(Err(Errno::ENOENT))
    ));
}

#[test]
fn permission_checks_at_open() {
    let mut h = Harness::new();
    let (ino, open) = h.create_file("locked");
    h.must(Request::CloseFd {
        fd: open.fd,
        size: None,
    });
    // Flip the mode to write-only-by-owner... we have no chmod in the
    // protocol, so create a fresh inode with a restrictive mode instead.
    let r = h.must(Request::Create {
        client: 1,
        ftype: FileType::Regular,
        mode: Mode(0o200),
        dist: false,
        add_map: Some((InodeId::ROOT, "wonly".into())),
        open: None,
    });
    let ino2 = match r {
        Reply::Created { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    assert!(matches!(
        h.req(Request::OpenInode {
            client: 1,
            num: ino2.num,
            flags: OpenFlags::RDONLY,
        }),
        Some(Err(Errno::EACCES))
    ));
    // The readable file opens fine.
    assert!(h
        .req(Request::OpenInode {
            client: 1,
            num: ino.num,
            flags: OpenFlags::RDONLY,
        })
        .unwrap()
        .is_ok());
}

#[test]
fn server_data_io_handles_holes() {
    let mut h = Harness::new();
    let (_ino, open) = h.create_file("f");
    // Write through the server at offset 5000 (block 1).
    h.must(Request::WriteData {
        fd: open.fd,
        offset: 5000,
        data: b"xyz".to_vec().into(),
        append: false,
    });
    // Read spanning the hole in block 0 returns zeros then data.
    match h.must(Request::ReadData {
        fd: open.fd,
        offset: 4998,
        len: 5,
    }) {
        Reply::Data { data, .. } => assert_eq!(&data[..], [0, 0, b'x', b'y', b'z']),
        other => panic!("unexpected {other:?}"),
    }
}
