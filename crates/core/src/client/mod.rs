//! The Hare client library.
//!
//! One client library instance backs each simulated process (paper Figure
//! 2: applications call into a per-core library which maintains caches,
//! accesses the shared buffer cache directly, and talks to file servers by
//! message passing). The library implements the POSIX surface of
//! [`fsapi::ProcFs`].

mod batch;
pub mod dircache;
mod engine;
pub mod fd;
mod io;
mod migrate;
mod ops;
mod resolve;

use crate::config::HareConfig;
use crate::machine::{Entity, Machine};
use crate::placement::RoutingTable;
use crate::proto::{Reply, Request, WireReply};
use crate::rpc::{self, ServerHandle};
use crate::types::{ClientId, InodeId, ServerId};
use dircache::DirCache;
use fd::ClientFdTable;
use fsapi::{Errno, FsResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Internal mutable state, serialized behind one lock (a process is a
/// single thread of control; the lock exists because `ProcFs` takes
/// `&self`).
pub(crate) struct ClientState {
    pub(crate) fds: ClientFdTable,
    pub(crate) dircache: DirCache,
    /// Per-descriptor readahead pipelines for striped sequential reads
    /// (keyed by descriptor number). Lives here, not in [`fd::FdEntry`]:
    /// in-flight calls are not clonable and the pipeline is pure
    /// prefetched state, dropped on any non-sequential use.
    pub(crate) readahead: std::collections::HashMap<u32, io::Readahead>,
}

/// A process's Hare client library.
pub struct ClientLib {
    pub(crate) machine: Arc<Machine>,
    pub(crate) servers: Arc<Vec<ServerHandle>>,
    /// The instance's normalized configuration, shared with the servers:
    /// technique toggles and knobs are read from it in place.
    pub(crate) cfg: Arc<HareConfig>,
    /// Unique client id.
    pub(crate) id: ClientId,
    /// Core this process runs on.
    pub(crate) core: usize,
    /// This process's logical timeline.
    pub(crate) entity: Entity,
    /// This client's designated nearby server for creation affinity
    /// (paper §3.6.4: "each client library has a designated local server").
    pub(crate) local_server: ServerId,
    pub(crate) state: Mutex<ClientState>,
    /// This client's copy of the epoch-versioned routing table (the
    /// dynamic placement subsystem, `crate::placement`). Starts at epoch 0
    /// — the paper's hash — and learns placement overrides from `NotOwner`
    /// redirects, so a stale route costs one extra exchange per migrated
    /// directory. Its own lock (not `state`): routing is consulted from
    /// paths that hold the state lock and paths that do not.
    pub(crate) routing: Mutex<RoutingTable>,
    /// Per-server read-send counters backing replica selection
    /// ([`ClientLib::read_server_of`]): one slot per server, incremented
    /// on each pick, so a single client round-robins its reads over a
    /// directory's read set and co-located clients (whose ids stagger
    /// their first picks) spread statistically. Purely local — no extra
    /// exchange is ever spent choosing a replica.
    read_load: Mutex<Vec<u64>>,
    /// Reusable reply channel for the serial blocking [`ClientLib::call`]
    /// path: a process is a single thread of control, so at most one such
    /// call is outstanding, and steady-state calls allocate no channel.
    /// Overlapped exchanges — readahead pipelines, fan-outs — keep
    /// per-request channels, since replies on a shared queue would arrive
    /// in completion order.
    reply_tx: msg::Sender<WireReply>,
    reply_rx: msg::Receiver<WireReply>,
    detached: AtomicBool,
}

impl ClientLib {
    /// Creates a client library for process `id` on `core`, whose logical
    /// timeline begins at `start_time`, registering it with every server
    /// so invalidation callbacks can reach it. `cfg` is the instance's
    /// normalized configuration.
    pub fn new(
        machine: Arc<Machine>,
        servers: Arc<Vec<ServerHandle>>,
        cfg: Arc<HareConfig>,
        id: ClientId,
        core: usize,
        start_time: u64,
    ) -> FsResult<ClientLib> {
        let (inval_tx, inval_rx) = msg::channel(Arc::clone(&machine.msg_stats));
        machine.register_entity(core);
        let local_server = designated_local_server(&machine, &servers, core, id);
        let entity = Entity::new(core, start_time);
        let dircache = DirCache::new(inval_rx, cfg.dircache_capacity);
        let nservers = servers.len();
        let (reply_tx, reply_rx) = msg::channel(Arc::clone(&machine.msg_stats));
        let lib = ClientLib {
            machine,
            servers,
            cfg,
            id,
            core,
            entity,
            local_server,
            state: Mutex::new(ClientState {
                fds: ClientFdTable::default(),
                dircache,
                readahead: std::collections::HashMap::new(),
            }),
            routing: Mutex::new(RoutingTable::new()),
            read_load: Mutex::new(vec![0; nservers]),
            reply_tx,
            reply_rx,
            detached: AtomicBool::new(false),
        };
        // Registration fan-out: one RPC per server, overlapped like a
        // directory broadcast when the technique allows. (Register carries
        // the invalidation channel, which a batch envelope cannot ship, so
        // it overlaps rather than batches.)
        let register = |s: &ServerHandle| {
            let inval = inval_tx.clone();
            (
                s.id,
                Request::Register {
                    client: id,
                    core,
                    inval,
                },
            )
        };
        for r in lib.exchange(lib.servers.iter().map(register).collect()) {
            expect_reply!(r, Reply::Unit => ())?;
        }
        Ok(lib)
    }

    /// The core this process runs on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of file servers.
    pub fn nservers(&self) -> usize {
        self.servers.len()
    }

    /// Directory-cache `(hits, misses, invalidations)`.
    pub fn dircache_stats(&self) -> (u64, u64, u64) {
        self.state.lock().dircache.stats()
    }

    /// Number of directory-cache slots currently held (bound diagnostics).
    pub fn dircache_len(&self) -> usize {
        self.state.lock().dircache.len()
    }

    // ----- RPC helpers -----------------------------------------------------

    /// One blocking exchange with `server` through the reusable reply
    /// channel.
    pub(crate) fn call(&self, server: ServerId, req: Request) -> WireReply {
        let (to, reply) = (&self.servers[server as usize], self.reply_tx.clone());
        rpc::send(&self.machine, &self.entity, to, req, reply)?;
        rpc::wait(&self.machine, &self.entity, &self.reply_rx)
    }

    /// One exchange per `(server, request)` pair, replies in input order.
    /// With the broadcast technique (§3.6.2) every request is sent back to
    /// back before the first wait, overlapping the latencies and the
    /// servers' service; without it, each is a full round trip before the
    /// next. Every request has its own reply channel, so a dropped one
    /// reads as `EIO` instead of hanging its siblings.
    fn exchange(&self, reqs: Vec<(ServerId, Request)>) -> Vec<WireReply> {
        let send = |(server, req): (ServerId, Request)| {
            let (tx, rx) = msg::channel(Arc::clone(&self.machine.msg_stats));
            let to = &self.servers[server as usize];
            rpc::send(&self.machine, &self.entity, to, req, tx).map(|()| rx)
        };
        let wait = |sent: Result<msg::Receiver<WireReply>, Errno>| {
            rpc::wait(&self.machine, &self.entity, &sent?)
        };
        if self.cfg.techniques.broadcast {
            let sent: Vec<_> = reqs.into_iter().map(send).collect();
            sent.into_iter().map(wait).collect()
        } else {
            reqs.into_iter().map(|r| wait(send(r))).collect()
        }
    }

    /// Charges client-side CPU work to this process.
    pub(crate) fn charge(&self, cycles: u64) {
        self.entity.work(&self.machine, cycles);
    }

    /// This process's current logical time.
    pub fn vnow(&self) -> u64 {
        self.entity.now()
    }

    /// Executes application CPU work on this process (used by `compute`).
    pub fn vwork(&self, cycles: u64) {
        self.entity.work(&self.machine, cycles);
    }

    /// Waits (without consuming CPU) until logical time `t`.
    pub fn vwait(&self, t: u64) {
        self.entity.wait_until(&self.machine, t);
    }

    /// The shared machine (for diagnostics and spawn plumbing).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Charges the client-library syscall entry cost.
    pub(crate) fn syscall(&self) {
        self.charge(self.machine.cost.syscall_base);
    }

    // ----- Placement -------------------------------------------------------

    /// The dentry shard server for `name` in `dir`: this client's routing
    /// table, which defaults to [`crate::types::dentry_shard_in`] (the one
    /// routing function shared with the servers' chained-resolution walk)
    /// and overlays the placement overrides learned from `NotOwner`
    /// redirects.
    pub(crate) fn shard_of(&self, dir: InodeId, dist: bool, name: &str) -> ServerId {
        self.routing.lock().route(
            dir,
            dist,
            name,
            self.cfg.dir_shard_width,
            self.servers.len(),
        )
    }

    /// The servers a directory's entries can live on: the home-anchored
    /// shard set for distributed directories
    /// ([`crate::placement::dir_shard_servers`]), or the single
    /// routed home for centralized ones. Every whole-directory fan-out
    /// (readdir's `ListShard` sweep, rmdir's mark/commit rounds) iterates
    /// exactly this set — O(owned shards), so a 4-shard directory costs
    /// four sends on a 256-server machine, not 256.
    pub(crate) fn dir_shard_set(&self, dir: InodeId, dist: bool) -> Vec<ServerId> {
        if dist {
            crate::placement::dir_shard_servers(dir, self.cfg.dir_shard_width, self.servers.len())
        } else {
            vec![self.dir_home_of(dir)]
        }
    }

    /// The redirect/retry budget for an entry operation on a directory
    /// with `owners` possible shard owners: one attempt per owner plus
    /// [`REDIRECT_SLACK`] for a migration racing the operation. Every
    /// accepted `NotOwner` redirect carries a strictly newer epoch (a
    /// no-news redirect aborts immediately with `EIO`), so the budget is
    /// a liveness backstop against a corrupted redirect chain, not a
    /// correctness bound — in practice a stale route costs exactly one
    /// extra exchange.
    pub(crate) fn retry_budget(&self, owners: usize) -> usize {
        owners + REDIRECT_SLACK
    }

    /// How many servers can own entries of a directory, for
    /// [`ClientLib::retry_budget`]: a *distributed* directory's entries
    /// never migrate (only centralized shards do), so its owners are its
    /// shard set; a *centralized* shard can be re-homed to any server by
    /// the rebalancer.
    pub(crate) fn owner_count(&self, dist: bool) -> usize {
        if dist {
            self.cfg.dir_shard_width
        } else {
            self.servers.len()
        }
    }

    /// The server holding a centralized directory's entries, per this
    /// client's routing table (override or home).
    pub(crate) fn dir_home_of(&self, dir: InodeId) -> ServerId {
        self.routing.lock().dir_home(dir)
    }

    /// Folds a `NotOwner` redirect into the routing table. Returns whether
    /// the redirect was news (an equal-or-older epoch is ignored — and a
    /// no-news redirect means re-sending would loop, since the route that
    /// produced it is unchanged). Accepted news always precedes a retry at
    /// the named owner, so the *next* send is pre-tagged as a redirect
    /// retry in the op's span tree (routing decisions made later — e.g. a
    /// replica pick — overwrite the tag with their own cause).
    pub(crate) fn learn_owner(&self, dir: InodeId, owner: ServerId, epoch: u64) -> bool {
        let news = self.routing.lock().learn(dir, owner, epoch);
        if news {
            self.machine.otrace.tag_next(crate::otrace::Cause::Redirect);
        }
        news
    }

    /// Adopts a replica advertisement — `dir`'s read set as of placement
    /// `epoch` — into this client's routing table (epoch-monotonic, like
    /// every placement fact). Public because each simulated process owns
    /// its own library: replica knowledge learned by the process that
    /// drove the replication must be spread to its peers by the workload
    /// explicitly, standing in for the gossip or reply piggybacking a
    /// real deployment would use. Never required for correctness — a
    /// client that never hears an advertisement just keeps reading at
    /// the home.
    pub fn adopt_replicas(&self, dir: InodeId, servers: Vec<ServerId>, epoch: u64) -> bool {
        self.routing.lock().learn_replicas(dir, servers, epoch)
    }

    /// The replica advertisement this client would spread for `dir`:
    /// `(read-set servers minus the home, epoch)`, or `None` when it
    /// knows of no live replica set.
    pub fn replica_advert(&self, dir: InodeId) -> Option<(Vec<ServerId>, u64)> {
        let routing = self.routing.lock();
        routing
            .replicas_of(dir)
            .filter(|r| !r.servers.is_empty())
            .map(|r| (r.servers.clone(), r.epoch))
    }

    /// The server to send the next **read** of centralized `dir` to: the
    /// home when no replicas are known (or the technique is off), else
    /// the least-loaded member of the read set by this client's own send
    /// counters ([`ClientLib::read_load`]), ties broken starting at a
    /// client-id-staggered offset so co-located clients fan out instead
    /// of stampeding one replica.
    pub(crate) fn read_server_of(&self, dir: InodeId) -> ServerId {
        let set = self.routing.lock().read_set(dir);
        if set.len() == 1 || !self.cfg.techniques.replication {
            return set[0];
        }
        let mut loads = self.read_load.lock();
        let start = self.id as usize % set.len();
        let mut best = set[start];
        for k in 1..set.len() {
            let s = set[(start + k) % set.len()];
            if loads[s as usize] < loads[best as usize] {
                best = s;
            }
        }
        loads[best as usize] += 1;
        best
    }

    /// The read-routed sibling of [`ClientLib::call_entry`] for
    /// operations that only observe the directory (lookups, stats,
    /// readdir probes): routes each attempt via
    /// [`ClientLib::read_server_of`] and reports, alongside the reply,
    /// whether the answering server was the **home** — replica-served
    /// results must not enter the dircache (replicas keep no tracking
    /// lists, so nothing would ever invalidate the cached copy).
    ///
    /// A `NotOwner` from a *replica* means that copy is gone (dropped on
    /// migration, rmdir, or retirement): the dead route is forgotten and
    /// the redirect folded in best-effort — no-news is tolerated there,
    /// since the retry already routes around the dropped copy. A
    /// `NotOwner` from the home keeps [`ClientLib::call_entry`]'s strict
    /// rule: no news means re-sending would loop, so the call aborts.
    pub(crate) fn call_entry_read(
        &self,
        dir: InodeId,
        dist: bool,
        name: &str,
        mk: impl Fn(&ClientLib) -> Request,
    ) -> (WireReply, bool) {
        if dist {
            // Distributed directories hash-spread their reads already and
            // are never replicated.
            return (self.call_entry(dir, dist, name, mk), true);
        }
        for _ in 0..self.retry_budget(self.owner_count(dist)) {
            let home = self.dir_home_of(dir);
            let server = self.read_server_of(dir);
            if server != home {
                // A replica-routed read, in the span tree's terms (takes
                // precedence over a pending redirect-retry tag).
                self.machine
                    .otrace
                    .tag_next(crate::otrace::Cause::ReplicaRead);
            }
            match self.call(server, mk(self)) {
                Ok(Reply::NotOwner {
                    dir: d,
                    epoch,
                    owner,
                }) => {
                    if server != home {
                        self.routing.lock().forget_replica(d, server);
                        let _ = self.learn_owner(d, owner, epoch);
                    } else if !self.learn_owner(d, owner, epoch) {
                        return (Err(Errno::EIO), true);
                    }
                }
                other => return (other, server == home),
            }
        }
        (Err(Errno::EIO), true)
    }

    /// Issues an entry RPC routed by `(dir, dist, name)`, following
    /// `NotOwner` redirects: each redirect is folded into the routing
    /// table and the request (rebuilt by `mk`) retried at the named owner.
    /// A stale route costs one extra exchange per migrated directory; the
    /// retry bound only guards against a corrupted redirect chain.
    pub(crate) fn call_entry(
        &self,
        dir: InodeId,
        dist: bool,
        name: &str,
        mk: impl Fn(&ClientLib) -> Request,
    ) -> WireReply {
        for _ in 0..self.retry_budget(self.owner_count(dist)) {
            let server = self.shard_of(dir, dist, name);
            match self.call(server, mk(self)) {
                Ok(Reply::NotOwner {
                    dir: d,
                    epoch,
                    owner,
                }) => {
                    if !self.learn_owner(d, owner, epoch) {
                        // No news: the route is unchanged, retrying loops.
                        return Err(Errno::EIO);
                    }
                }
                other => return other,
            }
        }
        Err(Errno::EIO)
    }

    /// Where to place a newly created inode (creation affinity §3.6.4):
    /// the dentry server if it is nearby (same socket), else this client's
    /// designated local server. With affinity disabled, always the dentry
    /// server (maximal coalescing).
    pub(crate) fn inode_server_for_create(&self, dentry_server: ServerId) -> ServerId {
        if !self.cfg.techniques.affinity {
            return dentry_server;
        }
        let dcore = self.servers[dentry_server as usize].core;
        let same_socket =
            self.machine.topology.socket_of(dcore) == self.machine.topology.socket_of(self.core);
        if same_socket {
            dentry_server
        } else {
            self.local_server
        }
    }

    /// Resolved distribution flag for a new directory.
    pub(crate) fn effective_dist(&self, requested: Option<bool>) -> bool {
        requested.unwrap_or(self.cfg.default_distributed) && self.cfg.techniques.distribution
    }

    // ----- Teardown ---------------------------------------------------------

    /// Closes every descriptor and unregisters from all servers. Called at
    /// process exit; subsequent calls are no-ops.
    pub fn shutdown(&self) {
        if self.detached.swap(true, Ordering::SeqCst) {
            return;
        }
        let nums = self.state.lock().fds.numbers();
        for n in nums {
            let _ = self.close_impl(n);
        }
        // Unregister fan-out through the batch layer: one exchange per
        // server (overlapped), instead of N sequential round trips.
        let _ = self.call_grouped(
            (0..self.servers.len() as ServerId)
                .map(|s| (s, Request::Unregister { client: self.id }))
                .collect(),
            false,
        );
        self.machine.unregister_entity(self.core);
    }
}

impl Drop for ClientLib {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Extra retry attempts granted beyond one-per-possible-owner (see
/// [`ClientLib::retry_budget`]): covers the initial send plus one
/// migration landing between the route and the retry.
pub(crate) const REDIRECT_SLACK: usize = 2;

/// Picks the client's designated nearby server: the servers on the client's
/// socket, indexed by client id so co-located clients spread over them
/// ("each client library has a designated local server it uses in this
/// situation, to avoid all clients storing files on the same local server",
/// §3.6.4). Falls back to the lowest-latency server if the socket has none.
fn designated_local_server(
    machine: &Arc<Machine>,
    servers: &Arc<Vec<ServerHandle>>,
    core: usize,
    id: ClientId,
) -> ServerId {
    let my_socket = machine.topology.socket_of(core);
    let on_socket: Vec<ServerId> = servers
        .iter()
        .filter(|s| machine.topology.socket_of(s.core) == my_socket)
        .map(|s| s.id)
        .collect();
    if !on_socket.is_empty() {
        return on_socket[(id as usize) % on_socket.len()];
    }
    servers
        .iter()
        .min_by_key(|s| (machine.latency(core, s.core), s.id))
        .map(|s| s.id)
        .expect("at least one server")
}

/// Extracts the expected reply variant or flags a protocol error.
macro_rules! expect_reply {
    ($wire:expr, $pat:pat => $out:expr) => {
        match $wire {
            Ok($pat) => Ok($out),
            Ok(other) => {
                debug_assert!(false, "protocol mismatch: {:?}", other);
                Err(Errno::EIO)
            }
            Err(e) => Err(e),
        }
    };
}
pub(crate) use expect_reply;

impl ClientLib {
    /// Runs one POSIX operation under a causal-tracing span
    /// ([`crate::otrace`]): the root of the op's span tree, or a nested
    /// child when an operation is invoked from inside another. A no-op
    /// closure sandwich when tracing is off.
    fn traced<T>(&self, label: &'static str, f: impl FnOnce() -> FsResult<T>) -> FsResult<T> {
        if !self.machine.otrace.enabled() {
            return f();
        }
        self.machine.otrace.begin_op(label, self.core, self.vnow());
        let out = f();
        self.machine.otrace.end_op(self.vnow());
        out
    }
}

impl fsapi::ProcFs for ClientLib {
    fn open(&self, path: &str, flags: fsapi::OpenFlags, mode: fsapi::Mode) -> FsResult<fsapi::Fd> {
        self.traced("open", || self.open_impl(path, flags, mode).map(fsapi::Fd))
    }

    fn close(&self, fd: fsapi::Fd) -> FsResult<()> {
        self.syscall();
        self.traced("close", || self.close_impl(fd.0))
    }

    fn read(&self, fd: fsapi::Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.traced("read", || self.read_impl(fd.0, buf))
    }

    fn write(&self, fd: fsapi::Fd, buf: &[u8]) -> FsResult<usize> {
        self.traced("write", || self.write_impl(fd.0, buf))
    }

    fn lseek(&self, fd: fsapi::Fd, offset: i64, whence: fsapi::Whence) -> FsResult<u64> {
        self.traced("lseek", || self.lseek_impl(fd.0, offset, whence))
    }

    fn fsync(&self, fd: fsapi::Fd) -> FsResult<()> {
        self.traced("fsync", || self.fsync_impl(fd.0))
    }

    fn ftruncate(&self, fd: fsapi::Fd, len: u64) -> FsResult<()> {
        self.traced("ftruncate", || self.ftruncate_impl(fd.0, len))
    }

    fn dup(&self, fd: fsapi::Fd) -> FsResult<fsapi::Fd> {
        self.traced("dup", || self.dup_impl(fd.0).map(fsapi::Fd))
    }

    fn pipe(&self) -> FsResult<(fsapi::Fd, fsapi::Fd)> {
        self.traced("pipe", || {
            self.pipe_impl().map(|(r, w)| (fsapi::Fd(r), fsapi::Fd(w)))
        })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.traced("unlink", || self.unlink_impl(path))
    }

    fn mkdir_opts(&self, path: &str, mode: fsapi::Mode, opts: fsapi::MkdirOpts) -> FsResult<()> {
        self.traced("mkdir", || self.mkdir_impl(path, mode, opts))
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.traced("rmdir", || self.rmdir_impl(path))
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.traced("rename", || self.rename_impl(old, new))
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<fsapi::DirEntry>> {
        self.traced("readdir", || self.readdir_impl(path))
    }

    fn stat(&self, path: &str) -> FsResult<fsapi::Stat> {
        self.traced("stat", || self.stat_impl(path))
    }

    fn fstat(&self, fd: fsapi::Fd) -> FsResult<fsapi::Stat> {
        self.traced("fstat", || self.fstat_impl(fd.0))
    }
}

impl fsapi::VClock for ClientLib {
    fn vnow(&self) -> u64 {
        ClientLib::vnow(self)
    }

    fn vwait(&self, t: u64) {
        ClientLib::vwait(self, t)
    }
}

/// Helper shared by ops/io: run an RPC that returns `Reply::Unit`.
impl ClientLib {
    pub(crate) fn call_unit(&self, server: ServerId, req: Request) -> FsResult<()> {
        expect_reply!(self.call(server, req), Reply::Unit => ())
    }
}
