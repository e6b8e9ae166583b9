//! The Hare file server.
//!
//! One server runs per configured server core (paper Figure 2). Each server
//! owns: a shard of every distributed directory (plus all entries of
//! centralized directories homed here), the inodes it allocated, their open
//! descriptors, its partition of the shared buffer cache, and its pipes.
//! Servers never talk to each other — all multi-server operations are
//! composed by client libraries (paper §3.3).
//!
//! The server is single-threaded: its state needs no locks, and requests
//! serialize on its core's virtual clock, which is exactly the queueing
//! behaviour the evaluation measures.

pub mod buffer;
pub mod dentry;
pub mod fdtable;
pub mod inode;
pub mod pipes;
pub mod rmdir;

use crate::config::HareConfig;
use crate::machine::Machine;
use crate::otrace::Cause;
use crate::placement::RoutingTable;
use crate::proto::{
    base_service_cost, DemoteInfo, Invalidation, MarkResult, MigEntry, OpenResult, PathEntry,
    Reply, Request, ServerMsg, TerminalOp, TerminalReply, WireReply,
};
use crate::types::{ClientId, FdId, InodeId, ServerId};
use buffer::BlockAllocator;
use dentry::{DentryShard, DentryVal, ReplicaStore};
use fdtable::{FdKind, FdTable};
use fsapi::{Errno, FileType, FsResult, Mode, OpenFlags, Stat, Whence};
use inode::{InodeKind, InodeTable};
use nccmem::{BlockId, BLOCK_SIZE};
use pipes::{Parked, ParkedPayload, Pipe, PipeTable, Wakeup};
use rmdir::{LockWaiter, RmdirState};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-request side effects gathered during dispatch and applied once the
/// request's completion time is known.
#[derive(Default)]
struct Ctx {
    /// Additional service cycles beyond the request's base cost.
    extra: u64,
    /// Base cycles refunded for work that never ran (batch entries skipped
    /// by fail-fast or rejected as non-batchable). Always a subset of the
    /// request's base cost.
    refund: u64,
    /// Parked replies released by this request (pipe progress, lock
    /// hand-off).
    wake: Vec<Wakeup>,
    /// A chained [`Request::LookupPath`] remainder to forward to a peer
    /// server, carrying the client's reply channel as the continuation.
    /// Mutually exclusive with an inline reply.
    forward: Option<(ServerId, Request)>,
    /// Directory-cache invalidations to deliver (client, message).
    invals: Vec<(ClientId, Invalidation)>,
    /// One-way server→server sends (replica invalidation and eviction):
    /// plain sends with no reply expected, delivered after the reply like
    /// the client invalidations — a replica is just a very large tracked
    /// client, and these are its callbacks.
    peer_sends: Vec<(ServerId, Request)>,
    /// Operations delayed behind a deletion mark, replayed after COMMIT or
    /// ABORT resolved it.
    replays: Vec<rmdir::ParkedOp>,
}

/// One Hare file server.
pub struct Server {
    id: ServerId,
    core: usize,
    machine: Arc<Machine>,
    inodes: InodeTable,
    dentries: DentryShard,
    fds: FdTable,
    alloc: BlockAllocator,
    pipes: PipeTable,
    rmdir: RmdirState,
    clients: HashMap<ClientId, (msg::Sender<Invalidation>, usize)>,
    /// The instance's normalized configuration, shared with every server
    /// and client: the knobs (negative caching, shard and stripe widths,
    /// page bound, pipe capacity) are read from it in place.
    cfg: Arc<HareConfig>,
    /// Handles to every server (self included), for forwarding chained
    /// [`Request::LookupPath`] remainders to the next component's owner.
    peers: Arc<Vec<crate::rpc::ServerHandle>>,
    /// This server's copy of the epoch-versioned routing table. Starts at
    /// epoch 0 (pure hash); updated by the migrations this server takes
    /// part in. Entry operations for a directory whose shard migrated away
    /// answer [`Reply::NotOwner`]; chain hops re-forward instead.
    routing: RoutingTable,
    /// Directories whose shard is mid-migration (between BEGIN and
    /// COMMIT/ABORT), with the operations parked behind the copy window —
    /// the same delay discipline as an rmdir deletion mark.
    migrating: HashMap<InodeId, Vec<rmdir::ParkedOp>>,
    /// Read-only replica copies this server holds for other servers'
    /// centralized directories (the read side of dynamic placement).
    /// Strictly separate from `dentries`: replica entries never vote in
    /// rmdir emptiness checks, never export into migration snapshots, and
    /// never take client writes.
    replicas: ReplicaStore,
    /// Operations served since the last `LoadReport { reset: true }` (the
    /// rebalancer's coarse signal).
    ops_served: u64,
    /// Entry operations per directory (the rebalancer's hot-directory
    /// signal). Bounded: beyond [`DIR_OPS_CAPACITY`] distinct directories,
    /// new ones go uncounted until a reset — load tracking must never be a
    /// memory hole.
    dir_ops: HashMap<InodeId, u64>,
    /// Entry *writes* per directory (ADD_MAP / RM_MAP / coalesced
    /// creates), the replicate-vs-migrate signal. Bounded with and reset
    /// alongside `dir_ops`.
    dir_writes: HashMap<InodeId, u64>,
    /// Virtual time the current busy period is anchored at (the last
    /// phase barrier).
    anchor: u64,
    /// Service cycles dispensed since `anchor`.
    acc: u64,
    stop: bool,
}

impl Server {
    /// Creates server `id` of the instance configured by `cfg` (already
    /// normalized), on core `cfg.server_cores[id]` and owning the `id`th
    /// equal partition of the buffer cache; `peers` holds every server's
    /// handle. Server 0 bootstraps the root directory inode.
    pub fn new(
        machine: Arc<Machine>,
        cfg: Arc<HareConfig>,
        id: ServerId,
        peers: Arc<Vec<crate::rpc::ServerHandle>>,
    ) -> Self {
        let mut inodes = InodeTable::new(2);
        if id == InodeId::ROOT.server {
            inodes.insert_at(
                InodeId::ROOT.num,
                Mode(0o755),
                InodeKind::Dir {
                    dist: cfg.root_distributed,
                },
            );
        }
        let partition = cfg.dram_blocks / cfg.nservers();
        Server {
            id,
            core: cfg.server_cores[id as usize],
            machine,
            inodes,
            dentries: DentryShard::new(cfg.server_track_capacity),
            fds: FdTable::default(),
            alloc: BlockAllocator::new(id as usize * partition, partition),
            pipes: PipeTable::default(),
            rmdir: RmdirState::default(),
            clients: HashMap::new(),
            cfg,
            peers,
            routing: RoutingTable::new(),
            migrating: HashMap::new(),
            replicas: ReplicaStore::default(),
            ops_served: 0,
            dir_ops: HashMap::new(),
            dir_writes: HashMap::new(),
            anchor: 0,
            acc: 0,
            stop: false,
        }
    }

    /// Runs the request loop until shutdown. Consumes the server.
    pub fn run(mut self, rx: msg::Receiver<ServerMsg>) {
        while !self.stop {
            match rx.recv() {
                Ok(env) => self.handle(env),
                Err(_) => break,
            }
        }
    }

    /// Serves one request: the server's core absorbs the executed work and
    /// the completion time reflects queueing at a saturated server.
    ///
    /// Completion is `max(arrival + service, anchor + accumulated
    /// service)`: when the server is saturated (requests keep it
    /// continuously busy since the last phase barrier) the accumulated
    /// term dominates and requests queue — the `pfind sparse` bottleneck.
    /// When the server has spare capacity, completion tracks the arrival.
    /// Deliberately *not* `max(now, arrival) + service`: real threads
    /// deliver messages out of virtual-time order, and a ratcheting `now`
    /// would let one late-arriving message inflate every later-processed
    /// one (the simulation artifact, not queueing).
    fn serve(&mut self, arrival: u64, service: u64) -> u64 {
        let sync = self.machine.sync_time();
        if sync > self.anchor {
            self.anchor = sync;
            self.acc = 0;
        }
        self.acc += service;
        self.machine.busy.advance(self.core, service);
        let done = (arrival + service).max(self.anchor + self.acc);
        self.machine.note(done);
        done
    }

    /// The directory an operation must be delayed on while marked for
    /// deletion (paper §3.3: "file creation and other directory operations
    /// are delayed until the server receives a COMMIT or ABORT message").
    fn marked_dir_of(req: &Request) -> Option<InodeId> {
        match req {
            Request::Lookup { dir, .. }
            | Request::LookupPath { dir, .. }
            | Request::AddMap { dir, .. }
            | Request::RmMap { dir, .. }
            | Request::ListShard { dir, .. } => Some(*dir),
            Request::Create {
                add_map: Some((dir, _)),
                ..
            } => Some(*dir),
            // A migration of a directory being rmdir'd waits the removal
            // out (and fails cleanly on its tombstone if it commits).
            Request::MigrateBegin { dir } => Some(*dir),
            _ => None,
        }
    }

    /// The directory an operation must be delayed on while its shard is
    /// mid-migration: the rmdir set plus the rmdir protocol's own
    /// shard-inspecting messages (their emptiness checks must not observe
    /// a half-copied shard).
    fn migrating_dir_of(req: &Request) -> Option<InodeId> {
        match req {
            Request::RmdirMark { dir } | Request::RmdirCentral { dir } => Some(*dir),
            other => Self::marked_dir_of(other),
        }
    }

    /// The marked-or-migrating directory this request (or, for a batch,
    /// any of its entries) must be parked on, if any. Parking the whole
    /// batch keeps the in-order execution guarantee: entries never reorder
    /// around a deletion mark or a migration window.
    fn park_dir_of(&self, req: &Request) -> Option<InodeId> {
        match req {
            Request::Batch { reqs, .. } => reqs.iter().find_map(|r| self.park_dir_of(r)),
            other => Self::marked_dir_of(other)
                .filter(|d| self.rmdir.is_marked(*d))
                .or_else(|| {
                    Self::migrating_dir_of(other).filter(|d| self.migrating.contains_key(d))
                }),
        }
    }

    /// Processes one request envelope end-to-end (including virtual-time
    /// accounting and reply delivery).
    pub fn handle(&mut self, env: msg::Envelope<ServerMsg>) {
        // Delay operations on directories marked for deletion or caught in
        // a migration copy window.
        if let Some(dir) = self.park_dir_of(&env.payload.req) {
            // The server still pays for receiving and inspecting the
            // message.
            let cost = self.machine.cost.msg_recv + 100;
            self.serve(env.deliver_at, cost);
            // Mark the wait in the op's span tree; the eventual replay
            // attaches as a later sibling ([`Tracer::replay_ctx`]).
            self.machine
                .otrace
                .park_leaf(env.payload.span, self.core, env.deliver_at);
            if self.rmdir.is_marked(dir) {
                self.rmdir.park(dir, env);
            } else {
                self.migrating
                    .get_mut(&dir)
                    .expect("park_dir_of saw the migration")
                    .push(env);
            }
            return;
        }

        let deliver_at = env.deliver_at;
        let src_core = env.src_core;
        let ServerMsg { req, reply, span } = env.payload;
        if matches!(req, Request::Shutdown) {
            self.stop = true;
            return;
        }
        // The server side of the op's span tree: a child span from the
        // request's context, charged with every send this handling issues
        // (reply, chain forward, invalidations, replica callbacks).
        let traced = self
            .machine
            .otrace
            .begin_from(span, req.name(), self.core, deliver_at);
        let base = base_service_cost(&req);
        let mut ctx = Ctx::default();
        let out = self.dispatch(req, src_core, &reply, &mut ctx);

        let mut cost = self.machine.cost.msg_recv + (base + ctx.extra).saturating_sub(ctx.refund);
        if out.is_some() || ctx.forward.is_some() {
            cost += self.machine.cost.msg_send;
        }
        cost += (ctx.wake.len() + ctx.invals.len() + ctx.peer_sends.len()) as u64
            * self.machine.cost.msg_send;
        if self.machine.timeshared(self.core) {
            cost += self.machine.cost.ctx_switch;
        }
        let done = self.serve(deliver_at, cost);

        if let Some(r) = out {
            if reply
                .send(
                    r,
                    done + self.machine.latency(self.core, src_core),
                    self.core,
                )
                .is_ok()
            {
                self.machine.otrace.charge_send();
            }
        } else if let Some((peer, fwd)) = ctx.forward.take() {
            // Chained LookupPath hand-off: the remainder travels to the
            // next owner with the client's reply channel as continuation.
            // `src_core` is preserved so the final server's reply latency
            // targets the originating client, not this hop.
            let fspan = self.machine.otrace.send_ctx(Cause::ChainHop);
            let h = &self.peers[peer as usize];
            let _ = h.tx.send(
                ServerMsg {
                    req: fwd,
                    reply,
                    span: fspan,
                },
                done + self.machine.latency(self.core, h.core),
                src_core,
            );
        }
        for (tx, wsrc, wr) in ctx.wake.drain(..) {
            if tx
                .send(wr, done + self.machine.latency(self.core, wsrc), self.core)
                .is_ok()
            {
                self.machine.otrace.charge_send();
            }
        }
        for (client, inv) in ctx.invals.drain(..) {
            if let Some((tx, ccore)) = self.clients.get(&client) {
                // Atomic delivery: the invalidation is in the client's queue
                // when this send returns; the server never waits for an ack
                // (paper §3.6.1).
                self.machine
                    .events
                    .invalidations
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if tx
                    .send(
                        inv,
                        done + self.machine.latency(self.core, *ccore),
                        self.core,
                    )
                    .is_ok()
                {
                    self.machine
                        .otrace
                        .leaf_send(Cause::Inval, "inval", self.core, done);
                }
            }
        }
        for (peer, preq) in ctx.peer_sends.drain(..) {
            // One-way replica callback: like a chain forward it is a plain
            // send (atomic delivery, no ack awaited), but no reply channel
            // travels with it — the throwaway receiver is dropped and the
            // peer's inline reply evaporates harmlessly, so no server ever
            // blocks on another (§3.3).
            let pspan = self.machine.otrace.send_ctx(Cause::Inval);
            let (tx, _rx) = msg::channel(Arc::clone(&self.machine.msg_stats));
            let h = &self.peers[peer as usize];
            let _ = h.tx.send(
                ServerMsg {
                    req: preq,
                    reply: tx,
                    span: pspan,
                },
                done + self.machine.latency(self.core, h.core),
                self.core,
            );
        }
        if traced {
            self.machine.otrace.end_span(done);
        }
        // Replay operations that were delayed behind a resolved mark.
        for parked in ctx.replays {
            self.machine
                .events
                .park_replays
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let arrival = parked.deliver_at.max(done);
            let mut payload = parked.payload;
            // Re-attach the parked op's span at a fresh child position so
            // the tree shows the park and the replay as siblings.
            if let Some(rspan) = self.machine.otrace.replay_ctx(payload.span) {
                payload.span = Some(rspan);
            }
            self.handle(msg::Envelope {
                payload,
                deliver_at: arrival,
                src_core: parked.src_core,
            });
        }
    }

    /// Executes a request against server state. Returns `None` when the
    /// reply was parked for later (blocked pipe I/O, rmdir lock wait).
    fn dispatch(
        &mut self,
        req: Request,
        src_core: usize,
        reply: &msg::Sender<WireReply>,
        ctx: &mut Ctx,
    ) -> Option<WireReply> {
        self.note_op(&req);
        match req {
            Request::Register {
                client,
                core,
                inval,
            } => {
                self.clients.insert(client, (inval, core));
                Some(Ok(Reply::Unit))
            }
            Request::Unregister { client } => {
                self.clients.remove(&client);
                self.dentries.untrack_client(client);
                Some(Ok(Reply::Unit))
            }
            Request::Lookup {
                client,
                dir,
                name,
                terminal,
            } => Some(self.op_lookup(client, dir, &name, terminal, ctx)),
            Request::LookupPath {
                client,
                dir,
                dist,
                comps,
                acc,
                hops,
                terminal,
            } => self.op_lookup_path(client, dir, dist, comps, acc, hops, terminal, ctx),
            Request::AddMap {
                client,
                dir,
                name,
                target,
                ftype,
                dist,
                replace,
            } => Some(self.op_add_map(client, dir, &name, target, ftype, dist, replace, ctx)),
            Request::RmMap {
                client,
                dir,
                name,
                must_be_file,
            } => Some(self.op_rm_map(client, dir, &name, must_be_file, ctx)),
            Request::ListShard { dir, after, max } => {
                Some(self.op_list_shard(dir, after.as_deref(), max, ctx))
            }
            Request::MigrateBegin { dir } => Some(self.op_migrate_begin(dir, ctx)),
            Request::MigrateInstall {
                dir,
                epoch,
                entries,
            } => Some(self.op_migrate_install(dir, epoch, entries, ctx)),
            Request::MigrateCommit { dir, epoch, to } => {
                Some(self.op_migrate_commit(dir, epoch, to, ctx))
            }
            Request::MigrateAbort { dir } => {
                ctx.replays = self.migrating.remove(&dir).unwrap_or_default();
                Some(Ok(Reply::Unit))
            }
            Request::LoadReport { reset } => Some(self.op_load_report(reset)),
            Request::ReplicaExport { dir, replica } => {
                Some(self.op_replica_export(dir, replica, ctx))
            }
            Request::ReplicaInstall {
                dir,
                home,
                epoch,
                entries,
            } => Some(self.op_replica_install(dir, home, epoch, entries, ctx)),
            Request::ReplicaDrop { dir, replica } => Some(self.op_replica_drop(dir, replica)),
            Request::ReplicaInval { dir, name, val } => {
                self.replicas.apply(
                    dir,
                    &name,
                    val.map(|(target, ftype, dist)| DentryVal {
                        target,
                        ftype,
                        dist,
                    }),
                );
                Some(Ok(Reply::Unit))
            }
            Request::RmdirSerialize { dir } => self.op_rmdir_serialize(dir, src_core, reply),
            Request::RmdirRelease { dir } => {
                if let Some(w) = self.rmdir.unlock(dir) {
                    ctx.wake.push((w.reply, w.src_core, Ok(Reply::RmdirLocked)));
                }
                Some(Ok(Reply::Unit))
            }
            Request::RmdirMark { dir } => Some(self.op_rmdir_mark(dir, ctx)),
            Request::RmdirCommit { dir } => {
                ctx.replays = self.rmdir.resolve(dir);
                self.dentries.tombstone(dir);
                if let Some((home, epoch)) = self.replicas.drop_dir(dir) {
                    self.routing.learn(dir, home, epoch);
                }
                if dir.server == self.id {
                    self.inodes.remove(dir.num);
                }
                Some(Ok(Reply::Unit))
            }
            Request::RmdirAbort { dir } => {
                ctx.replays = self.rmdir.resolve(dir);
                Some(Ok(Reply::Unit))
            }
            Request::RmdirCentral { dir } => Some(self.op_rmdir_central(dir, ctx)),
            Request::Create {
                client,
                ftype,
                mode,
                dist,
                add_map,
                open,
            } => Some(self.op_create(client, ftype, mode, dist, add_map, open, ctx)),
            Request::OpenInode {
                client: _,
                num,
                flags,
            } => Some(self.op_open(num, flags, ctx)),
            Request::CloseFd { fd, size } => Some(self.op_close(fd, size, ctx)),
            Request::FdIncref { fd, offset } => Some(self.op_incref(fd, offset)),
            Request::SharedIo {
                fd,
                len,
                write,
                append,
            } => Some(self.op_shared_io(fd, len, write, append, ctx)),
            Request::SeekShared { fd, offset, whence } => Some(self.op_seek(fd, offset, whence)),
            Request::AllocBlocks { fd, min_size } => Some(self.op_alloc(fd, min_size, ctx)),
            Request::SetSize { fd, size } => Some(self.op_set_size(fd, size)),
            Request::Truncate { fd, size } => Some(self.op_truncate(fd, size)),
            Request::ReadData { fd, offset, len } => Some(self.op_read_data(fd, offset, len, ctx)),
            Request::WriteData {
                fd,
                offset,
                data,
                append,
            } => Some(self.op_write_data(fd, offset, data, append, ctx)),
            Request::ReadStripe {
                blocks,
                offset,
                len,
            } => Some(self.op_read_stripe(&blocks, offset, len, ctx)),
            Request::WriteStripe {
                blocks,
                offset,
                data,
            } => Some(self.op_write_stripe(&blocks, offset, data, ctx)),
            Request::LinkIncref { num } => Some(self.op_link_incref(num)),
            Request::LinkDecref { num } => Some(self.op_link_decref(num)),
            Request::StatInode { num } => Some(self.op_stat(num)),
            Request::PipeCreate => Some(self.op_pipe_create()),
            Request::PipeRead { fd, max } => self.op_pipe_read(fd, max, src_core, reply, ctx),
            Request::PipeWrite { fd, data } => self.op_pipe_write(fd, data, src_core, reply, ctx),
            Request::Batch { reqs, fail_fast } => {
                Some(self.op_batch(reqs, fail_fast, src_core, reply, ctx))
            }
            Request::Shutdown => {
                self.stop = true;
                None
            }
        }
    }

    /// True for requests that always reply inline and may therefore travel
    /// inside a batch. Parking requests are excluded because a parked reply
    /// would arrive as a bare [`WireReply`] instead of a batch slot;
    /// [`Request::LookupPath`] is excluded because a forwarded chain's
    /// reply comes from a *different server* than the batch envelope's.
    fn batchable(req: &Request) -> bool {
        !matches!(
            req,
            Request::Batch { .. }
                | Request::PipeRead { .. }
                | Request::PipeWrite { .. }
                | Request::RmdirSerialize { .. }
                | Request::LookupPath { .. }
                | Request::Register { .. }
                // MigrateBegin can park behind an rmdir mark, so its reply
                // may not come inline.
                | Request::MigrateBegin { .. }
                | Request::Shutdown
        )
    }

    /// Executes a batch: entries run in order, each paying its normal
    /// service cost (charged by [`base_service_cost`] on the envelope plus
    /// the per-entry `ctx.extra` its handler adds), while the message
    /// overhead is paid once for the whole exchange in [`Server::handle`].
    fn op_batch(
        &mut self,
        reqs: Vec<Request>,
        fail_fast: bool,
        src_core: usize,
        reply: &msg::Sender<WireReply>,
        ctx: &mut Ctx,
    ) -> WireReply {
        let mut out = Vec::with_capacity(reqs.len());
        let mut failed = false;
        for req in reqs {
            if fail_fast && failed {
                // Skipped because an earlier entry failed; the client
                // reports that earlier error. The entry never ran, so its
                // base cycles (pre-charged on the whole envelope) are
                // refunded.
                ctx.refund += base_service_cost(&req);
                out.push(Err(Errno::EAGAIN));
                continue;
            }
            let entry = if Self::batchable(&req) {
                // Each riding entry gets its own local span under the
                // batch envelope's, so explain dumps show what the batch
                // actually carried.
                let traced =
                    self.machine
                        .otrace
                        .begin_local(Cause::BatchRide, req.name(), self.core, 0);
                let entry = self
                    .dispatch(req, src_core, reply, ctx)
                    .expect("batchable requests reply inline");
                if traced {
                    self.machine.otrace.end_span(0);
                }
                entry
            } else {
                ctx.refund += base_service_cost(&req);
                Err(Errno::EINVAL)
            };
            // A NotOwner redirect is Ok at the wire level but means the
            // entry did NOT execute — for an ordered (fail-fast) pair the
            // later halves must be skipped too, or rename's add-before-rm
            // guarantee would break while the add half re-routes.
            failed = failed || entry.is_err() || matches!(entry, Ok(Reply::NotOwner { .. }));
            out.push(entry);
        }
        Ok(Reply::Batch(out))
    }

    // ----- Load accounting and placement ----------------------------------

    /// Counts one served operation toward the load counters (total plus,
    /// for entry operations, the per-directory hot counter). Control
    /// traffic — registration, migration, load reports, batch envelopes
    /// (whose entries count individually) — is not load.
    fn note_op(&mut self, req: &Request) {
        const DIR_OPS_CAPACITY: usize = 4096;
        match req {
            Request::Register { .. }
            | Request::Unregister { .. }
            | Request::MigrateBegin { .. }
            | Request::MigrateInstall { .. }
            | Request::MigrateCommit { .. }
            | Request::MigrateAbort { .. }
            | Request::LoadReport { .. }
            | Request::ReplicaExport { .. }
            | Request::ReplicaInstall { .. }
            | Request::ReplicaDrop { .. }
            | Request::ReplicaInval { .. }
            | Request::Batch { .. }
            | Request::Shutdown => return,
            _ => {}
        }
        self.ops_served += 1;
        self.machine.record_server_op(self.id);
        // The per-directory signal counts shard work only: operations that
        // would move with the directory's dentry shard if it migrated.
        let dir = match req {
            Request::Lookup { dir, .. }
            | Request::AddMap { dir, .. }
            | Request::RmMap { dir, .. }
            | Request::ListShard { dir, .. } => Some(*dir),
            Request::Create {
                add_map: Some((dir, _)),
                ..
            } => Some(*dir),
            _ => None,
        };
        if let Some(dir) = dir {
            if self.dir_ops.len() < DIR_OPS_CAPACITY || self.dir_ops.contains_key(&dir) {
                *self.dir_ops.entry(dir).or_insert(0) += 1;
            }
            // The write slice of the same signal: shard mutations, the
            // planner's evidence *against* replicating the directory.
            let is_write = matches!(
                req,
                Request::AddMap { .. }
                    | Request::RmMap { .. }
                    | Request::Create {
                        add_map: Some(_),
                        ..
                    }
            );
            if is_write
                && (self.dir_writes.len() < DIR_OPS_CAPACITY || self.dir_writes.contains_key(&dir))
            {
                *self.dir_writes.entry(dir).or_insert(0) += 1;
            }
        }
    }

    /// The redirect to answer when this server no longer owns `dir`'s
    /// shard (its routing table names another owner). The guard at the top
    /// of every entry-operation handler: a stale client pays exactly one
    /// extra exchange, folds the redirect into its table, and retries at
    /// the named owner.
    fn not_owner(&self, dir: InodeId) -> Option<WireReply> {
        self.routing.foreign_owner(dir, self.id).map(|r| {
            self.machine
                .events
                .not_owner_bounces
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(Reply::NotOwner {
                dir,
                epoch: r.epoch,
                owner: r.owner,
            })
        })
    }

    /// Phase 1 of a shard migration, at the source: validate, mark the
    /// directory migrating (later operations park until COMMIT/ABORT), and
    /// snapshot the entries. Only centralized directories migrate — a
    /// distributed directory's entries are spread by the hash and have no
    /// single shard to move — and the root is pinned. The first migration
    /// starts at the home server, which holds the inode and can check the
    /// distribution flag; re-migrations start at a past destination, where
    /// the invariant is already established.
    fn op_migrate_begin(&mut self, dir: InodeId, ctx: &mut Ctx) -> WireReply {
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        if dir == InodeId::ROOT {
            return Err(Errno::EINVAL);
        }
        if self.dentries.is_tombstoned(dir) {
            return Err(Errno::ENOENT);
        }
        if dir.server == self.id && self.routing.override_of(dir).is_none() {
            // First migration: the home server holds the inode.
            let ino = self.inodes.get(dir.num)?;
            match ino.kind {
                InodeKind::Dir { dist } => {
                    if dist {
                        return Err(Errno::EINVAL);
                    }
                }
                _ => return Err(Errno::ENOTDIR),
            }
        }
        // Evict read replicas *before* reading the snapshot epoch, so the
        // eviction's epoch bump is included in it and the driver's
        // install-at-epoch+1 stays strictly newer than every replica
        // record anywhere.
        self.replica_evict_all(dir, ctx);
        let entries: Vec<MigEntry> = self
            .dentries
            .export(dir)
            .into_iter()
            .map(|(name, v)| MigEntry {
                name,
                target: v.target,
                ftype: v.ftype,
                dist: v.dist,
            })
            .collect();
        ctx.extra += 30 * entries.len() as u64;
        self.migrating.entry(dir).or_default();
        Ok(Reply::MigrateSnapshot {
            epoch: self.routing.epoch_of(dir),
            entries,
        })
    }

    /// Phase 2, at the destination: install the snapshot and own the
    /// directory as of `epoch`. No client routes here until the source
    /// starts redirecting, so the data always lands before the first
    /// redirect can.
    fn op_migrate_install(
        &mut self,
        dir: InodeId,
        epoch: u64,
        entries: Vec<MigEntry>,
        ctx: &mut Ctx,
    ) -> WireReply {
        // A destination mid-rmdir (or itself mid-migration) must REJECT,
        // not park: the rmdir's mark fan-out may be parked behind the
        // *source's* migration window, so parking here would close a wait
        // cycle (driver → install → rmdir → source mark → driver's
        // commit). The inline EAGAIN makes the driver abort — the source
        // unparks and replays, the rmdir proceeds, and the rebalancer
        // simply tries again later. Installing into a marked directory
        // would also let the rmdir's emptiness votes miss the migrated
        // entries and commit a non-empty removal.
        if self.rmdir.is_marked(dir) || self.migrating.contains_key(&dir) {
            return Err(Errno::EAGAIN);
        }
        // A destination that held a read replica of this very directory is
        // about to become its owner: the copy is superseded.
        self.replicas.drop_dir(dir);
        ctx.extra += 30 * entries.len() as u64;
        for e in &entries {
            self.dentries.install(
                dir,
                &e.name,
                DentryVal {
                    target: e.target,
                    ftype: e.ftype,
                    dist: e.dist,
                },
            )?;
        }
        self.routing.learn(dir, self.id, epoch);
        Ok(Reply::Unit)
    }

    /// Phase 3, at the source: drop the migrated entries, record the
    /// redirect, invalidate every client tracked for the directory (the
    /// existing tracking lists double as the migration's invalidation
    /// fan-out — stale dircache and negative entries are re-resolved and
    /// pick up the redirect), and replay the operations parked since
    /// BEGIN, which now answer [`Reply::NotOwner`].
    fn op_migrate_commit(
        &mut self,
        dir: InodeId,
        epoch: u64,
        to: ServerId,
        ctx: &mut Ctx,
    ) -> WireReply {
        self.routing.learn(dir, to, epoch);
        let dropped = self.dentries.drop_dir(dir);
        ctx.extra += 10 * dropped as u64;
        for (name, clients) in self.dentries.drain_dir_tracking(dir) {
            for c in clients {
                ctx.invals.push((
                    c,
                    Invalidation {
                        dir,
                        name: name.clone(),
                    },
                ));
            }
        }
        ctx.replays = self.migrating.remove(&dir).unwrap_or_default();
        self.machine
            .events
            .migrations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Reply::Unit)
    }

    /// Answers the rebalancer's load probe: total operations served plus
    /// the hottest directories by entry-operation count (and the write
    /// slice of it, the replicate-vs-migrate signal).
    fn op_load_report(&mut self, reset: bool) -> WireReply {
        let mut hot: Vec<(InodeId, u64, u64)> = self
            .dir_ops
            .iter()
            .map(|(d, n)| (*d, *n, self.dir_writes.get(d).copied().unwrap_or(0)))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(8);
        let ops = self.ops_served;
        if reset {
            self.ops_served = 0;
            self.dir_ops.clear();
            self.dir_writes.clear();
        }
        Ok(Reply::Load { ops, hot_dirs: hot })
    }

    // ----- Read replication -----------------------------------------------

    /// Phase 1 of growing a read replica, at the **home**: validate,
    /// register `replica` in the directory's read set (bumping the
    /// placement epoch), and snapshot the entries — *without* parking or
    /// dropping anything, because the home keeps serving reads and all
    /// writes throughout. The guards mirror [`Server::op_migrate_begin`],
    /// and the rmdir/migration overlap is an **inline EAGAIN reject,
    /// never a park** — the same discipline as the pinned
    /// `MigrateInstall`-vs-rmdir guard, and for the same wait-cycle
    /// reason.
    fn op_replica_export(&mut self, dir: InodeId, replica: ServerId, ctx: &mut Ctx) -> WireReply {
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        if dir == InodeId::ROOT {
            return Err(Errno::EINVAL);
        }
        if (replica as usize) >= self.peers.len() || replica == self.id {
            return Err(Errno::EINVAL);
        }
        if self.dentries.is_tombstoned(dir) {
            return Err(Errno::ENOENT);
        }
        if self.rmdir.is_marked(dir) || self.migrating.contains_key(&dir) {
            return Err(Errno::EAGAIN);
        }
        if dir.server == self.id && self.routing.override_of(dir).is_none() {
            // First placement change: the home server holds the inode and
            // can check that the directory is centralized.
            let ino = self.inodes.get(dir.num)?;
            match ino.kind {
                InodeKind::Dir { dist } => {
                    if dist {
                        return Err(Errno::EINVAL);
                    }
                }
                _ => return Err(Errno::ENOTDIR),
            }
        }
        let mut set = self
            .routing
            .replicas_of(dir)
            .map(|r| r.servers.clone())
            .unwrap_or_default();
        if !set.contains(&replica) {
            set.push(replica);
        }
        let epoch = self.routing.epoch_of(dir) + 1;
        self.routing.learn_replicas(dir, set, epoch);
        let entries: Vec<MigEntry> = self
            .dentries
            .export(dir)
            .into_iter()
            .map(|(name, v)| MigEntry {
                name,
                target: v.target,
                ftype: v.ftype,
                dist: v.dist,
            })
            .collect();
        ctx.extra += 30 * entries.len() as u64;
        // Unlike MigrateBegin's snapshot (whose epoch the driver bumps on
        // install), the export's epoch is the *new* one: the replica set
        // including the exported-to server.
        Ok(Reply::MigrateSnapshot { epoch, entries })
    }

    /// Phase 2, at the **replica**: store the copy. Refused on a local
    /// tombstone (a committed rmdir outranks any placement change) and
    /// with an inline EAGAIN inside a local rmdir-mark window.
    fn op_replica_install(
        &mut self,
        dir: InodeId,
        home: ServerId,
        epoch: u64,
        entries: Vec<MigEntry>,
        ctx: &mut Ctx,
    ) -> WireReply {
        if self.dentries.is_tombstoned(dir) {
            return Err(Errno::ENOENT);
        }
        if self.rmdir.is_marked(dir) {
            return Err(Errno::EAGAIN);
        }
        ctx.extra += 30 * entries.len() as u64;
        self.replicas.install(
            dir,
            home,
            epoch,
            entries.into_iter().map(|e| {
                (
                    e.name,
                    DentryVal {
                        target: e.target,
                        ftype: e.ftype,
                        dist: e.dist,
                    },
                )
            }),
        );
        Ok(Reply::Unit)
    }

    /// Retires a replica — dual-role by design, so the same message works
    /// driver→home, driver→replica, and home→replica (the one-way
    /// eviction): at the home it unregisters `replica` from the read set
    /// (bumping the epoch); at the replica server itself it drops the
    /// copy and remembers the home as a routing override, so a client
    /// still routing reads here gets a replica-aware [`Reply::NotOwner`]
    /// instead of a stale answer.
    fn op_replica_drop(&mut self, dir: InodeId, replica: ServerId) -> WireReply {
        if let Some(rec) = self.routing.replicas_of(dir) {
            if rec.servers.contains(&replica) {
                let set: Vec<ServerId> = rec
                    .servers
                    .iter()
                    .copied()
                    .filter(|s| *s != replica)
                    .collect();
                let epoch = self.routing.epoch_of(dir) + 1;
                self.routing.learn_replicas(dir, set, epoch);
            }
        }
        if replica == self.id {
            if let Some((home, epoch)) = self.replicas.drop_dir(dir) {
                // Replica-aware NotOwner: remember who answers now.
                self.routing.learn(dir, home, epoch);
            }
        }
        Ok(Reply::Unit)
    }

    /// Queues one upsert-or-remove invalidation to every replica of `dir`
    /// after a write to the home shard. The new state travels with the
    /// message, so the copies *converge* rather than merely shrink — a
    /// replica never answers a stale negative after a create.
    fn replica_fanout(&mut self, dir: InodeId, name: &str, val: Option<DentryVal>, ctx: &mut Ctx) {
        let Some(rec) = self.routing.replicas_of(dir) else {
            return;
        };
        for s in rec.servers.clone() {
            ctx.peer_sends.push((
                s,
                Request::ReplicaInval {
                    dir,
                    name: name.to_string(),
                    val: val.map(|v| (v.target, v.ftype, v.dist)),
                },
            ));
        }
    }

    /// Evicts every replica of `dir` outright (one-way
    /// [`Request::ReplicaDrop`] per copy holder) and retires the read set
    /// locally. Called before any structural change a converging copy
    /// could not survive: a migration of the shard, an rmdir mark, a
    /// centralized removal. Eviction-before-staleness: readers fall back
    /// to the home, where the structural protocol parks or redirects them
    /// correctly.
    fn replica_evict_all(&mut self, dir: InodeId, ctx: &mut Ctx) {
        let Some(rec) = self.routing.replicas_of(dir) else {
            return;
        };
        let servers = rec.servers.clone();
        if servers.is_empty() {
            return;
        }
        let epoch = self.routing.epoch_of(dir) + 1;
        self.routing.learn_replicas(dir, Vec::new(), epoch);
        for s in servers {
            ctx.peer_sends
                .push((s, Request::ReplicaDrop { dir, replica: s }));
        }
    }

    // ----- Directory entry operations ------------------------------------

    /// `lookup(dir, name)` plus its fused `terminal`: resolves the entry
    /// (at the home shard, or from a read replica) and then runs the
    /// terminal's stat/open through [`Server::exec_terminal`], which
    /// answers it only when the target inode is stored here. The terminal
    /// half never creates — a missing name is `ENOENT` whatever the
    /// terminal — and a failing local attempt degrades to lookup-only and
    /// charges nothing extra, so the client still caches the dentry and
    /// its fallback `StatInode`/`OpenInode` reproduces the authoritative
    /// error.
    fn op_lookup(
        &mut self,
        client: ClientId,
        dir: InodeId,
        name: &str,
        terminal: TerminalOp,
        ctx: &mut Ctx,
    ) -> WireReply {
        // A read replica answers before the ownership guard: the client
        // routed here *because* this server holds a copy, not the shard.
        // Served without tracking — replica reads are never client-cached,
        // so there is nothing to invalidate.
        let (v, replica) = match self.replicas.lookup(dir, name) {
            Some(hit) => (hit.ok_or(Errno::ENOENT)?, true),
            None => {
                if let Some(r) = self.not_owner(dir) {
                    return r;
                }
                if self.dentries.is_tombstoned(dir) {
                    return Err(Errno::ENOENT);
                }
                // Track hits and misses alike: a client caching the
                // ENOENT (negative dentry) must be invalidated when the
                // name is later created. Gated so the ablation sheds this
                // state.
                let hit = self.dentries.lookup(dir, name);
                if hit.is_some() || self.cfg.techniques.neg_dircache {
                    self.track_entry(dir, name, client, ctx);
                }
                (hit.ok_or(Errno::ENOENT)?, false)
            }
        };
        let entry = PathEntry {
            target: v.target,
            ftype: v.ftype,
            dist: v.dist,
            replica,
        };
        Ok(Reply::Lookup {
            target: v.target,
            ftype: v.ftype,
            dist: v.dist,
            term: self.exec_terminal(terminal, Some(entry), ctx),
        })
    }

    /// Chained multi-component resolution (the server half of the
    /// `chained_resolution` technique). Resolves consecutive components of
    /// `comps` for as long as this server owns their shard, then either
    /// answers the client with the accumulated prefix or forwards the
    /// remainder to the next component's owner (via `ctx.forward`; the
    /// reply channel travels with it, so the final server answers the
    /// client directly).
    ///
    /// Correctness notes:
    /// * Every resolved component is tracked exactly like a standalone
    ///   [`Request::Lookup`] (misses included when negative caching is
    ///   on), so the client may cache the entire returned prefix.
    /// * Revisiting a server is *normal* (shards alternate along a path);
    ///   termination comes from progress, not visit sets: a forward always
    ///   targets the first remaining component's owner, so every hop
    ///   resolves at least one component. The explicit hop budget only
    ///   guards against mis-routed or crafted requests, answering `ELOOP`
    ///   instead of forwarding further.
    /// * A deletion-marked directory reached mid-walk stops the chain with
    ///   `EAGAIN` (the initial park check in [`Server::handle`] only sees
    ///   the first component's directory); the client retries that
    ///   component as a plain lookup, which parks until COMMIT/ABORT.
    ///   Because the fused terminal runs only after the *whole* walk
    ///   succeeded, an `EAGAIN` stop can never have opened a descriptor —
    ///   a fused open of an rmdir-marked path degrades to the retry,
    ///   never to an orphan fd.
    /// * The fused terminal op executes strictly on this (final) server:
    ///   a remote terminal inode degrades to `term: None` rather than
    ///   forwarding mid-execution, preserving the per-hop-progress
    ///   termination argument.
    #[allow(clippy::too_many_arguments)]
    fn op_lookup_path(
        &mut self,
        client: ClientId,
        dir: InodeId,
        dist: bool,
        mut comps: Vec<String>,
        mut acc: Vec<PathEntry>,
        hops: u32,
        terminal: TerminalOp,
        ctx: &mut Ctx,
    ) -> Option<WireReply> {
        let nservers = self.peers.len();
        let max_hops = (acc.len() + comps.len() + 2 * nservers) as u32;
        let mut cur_dir = dir;
        let mut cur_dist = dist;
        let mut idx = 0;
        let mut stopped = None;
        while idx < comps.len() {
            let name = &comps[idx];
            // Routed through this server's table, not the bare hash: a hop
            // that landed on a stale owner (the directory's shard migrated
            // away) re-forwards to the owner this server knows — still
            // feed-forward, still within the hop budget — instead of
            // bouncing the client.
            let owner =
                self.routing
                    .route(cur_dir, cur_dist, name, self.cfg.dir_shard_width, nservers);
            if owner != self.id {
                // A local read replica of this component's directory lets
                // the walk continue here without a hop — still
                // feed-forward, and untracked like every replica read.
                // Only positive hits are served: a miss forwards to the
                // owner so ENOENT (and any create terminal) stays
                // authoritative at the home shard.
                if let Some(Some(v)) = self.replicas.lookup(cur_dir, name) {
                    ctx.extra += crate::proto::LOOKUP_SERVICE_COST;
                    acc.push(PathEntry {
                        target: v.target,
                        ftype: v.ftype,
                        dist: v.dist,
                        replica: true,
                    });
                    if idx + 1 < comps.len() {
                        if v.ftype != FileType::Directory {
                            stopped = Some(Errno::ENOTDIR);
                            break;
                        }
                        cur_dir = v.target;
                        cur_dist = v.dist;
                    }
                    idx += 1;
                    continue;
                }
                if hops >= max_hops {
                    stopped = Some(Errno::ELOOP);
                    break;
                }
                let rest = comps.split_off(idx);
                ctx.forward = Some((
                    owner,
                    Request::LookupPath {
                        client,
                        dir: cur_dir,
                        dist: cur_dist,
                        comps: rest,
                        acc,
                        hops: hops + 1,
                        terminal,
                    },
                ));
                return None;
            }
            if self.rmdir.is_marked(cur_dir) || self.migrating.contains_key(&cur_dir) {
                // A deletion mark or a migration copy window mid-walk: the
                // client retries this component as a plain (parkable)
                // single RPC, which waits the window out.
                stopped = Some(Errno::EAGAIN);
                break;
            }
            // The per-component lookup work (the chain envelope's base
            // cost covers routing; each component costs what a standalone
            // lookup's service would).
            ctx.extra += crate::proto::LOOKUP_SERVICE_COST;
            if self.dentries.is_tombstoned(cur_dir) {
                stopped = Some(Errno::ENOENT);
                break;
            }
            match self.dentries.lookup(cur_dir, name) {
                Some(v) => {
                    self.track_entry(cur_dir, name, client, ctx);
                    acc.push(PathEntry {
                        target: v.target,
                        ftype: v.ftype,
                        dist: v.dist,
                        replica: false,
                    });
                    if idx + 1 < comps.len() {
                        if v.ftype != FileType::Directory {
                            stopped = Some(Errno::ENOTDIR);
                            break;
                        }
                        cur_dir = v.target;
                        cur_dist = v.dist;
                    }
                    idx += 1;
                }
                None => {
                    // A missing *final* component under a Create terminal
                    // is not a failed walk — it is the create target, and
                    // by routing this server owns its dentry shard, which
                    // is exactly where the coalesced placement policy puts
                    // the inode. Create it here: the chained form of the
                    // coalesced [`Request::Create`].
                    if idx + 1 == comps.len() && self.coalesced_create_here(client) {
                        if let TerminalOp::Create { flags, mode } = terminal {
                            let (ino, open) = self.create_here(
                                client,
                                FileType::Regular,
                                mode,
                                false,
                                Some((cur_dir, name.as_str())),
                                Some(flags),
                                ctx,
                            );
                            // The standalone Create's base, which the chain
                            // envelope never pre-paid.
                            ctx.extra += 900;
                            acc.push(PathEntry {
                                target: ino,
                                ftype: FileType::Regular,
                                dist: false,
                                replica: false,
                            });
                            let open = open.expect("a new regular file opens");
                            return Some(Ok(Reply::Path {
                                entries: acc,
                                stopped: None,
                                term: Some(TerminalReply::Created { ino, open }),
                            }));
                        }
                    }
                    // Track the miss for negative-cache invalidation.
                    if self.cfg.techniques.neg_dircache {
                        self.track_entry(cur_dir, name, client, ctx);
                    }
                    stopped = Some(Errno::ENOENT);
                    break;
                }
            }
        }
        let term = if stopped.is_none() {
            // The fused terminal half runs in place on the last chain
            // server — a local span, no message.
            let traced =
                self.machine
                    .otrace
                    .begin_local(Cause::Terminal, "fused_terminal", self.core, 0);
            let term = self.exec_terminal(terminal, acc.last().copied(), ctx);
            if traced {
                self.machine.otrace.end_span(0);
            }
            term
        } else {
            None
        };
        Some(Ok(Reply::Path {
            entries: acc,
            stopped,
            term,
        }))
    }

    /// Executes the fused terminal op of a completed chain walk or single
    /// lookup against the final resolved dentry, strictly locally.
    /// Anything the final server cannot answer from its own shards — a
    /// remote terminal inode, a non-file open target, a failing local
    /// attempt — degrades to `None`; the client's ordinary follow-up RPC
    /// then reproduces the authoritative result. No path here ever
    /// forwards to a peer.
    fn exec_terminal(
        &mut self,
        terminal: TerminalOp,
        last: Option<PathEntry>,
        ctx: &mut Ctx,
    ) -> Option<TerminalReply> {
        let last = last?;
        match terminal {
            TerminalOp::None => None,
            TerminalOp::Stat => {
                if last.target.server != self.id {
                    return None;
                }
                match self.op_stat(last.target.num) {
                    Ok(Reply::Stat(s)) => {
                        // The stat half (cheaper than a standalone
                        // StatInode: no second dispatch).
                        ctx.extra += 400;
                        Some(TerminalReply::Stat(s))
                    }
                    _ => None,
                }
            }
            // A Create whose name resolved after all: POSIX
            // `open(O_CREAT)` of an existing file opens it. (The
            // created-missing-file case never reaches here — a chain
            // handles it inline at the walk's miss branch.)
            TerminalOp::Open { flags } | TerminalOp::Create { flags, .. } => {
                if last.ftype != FileType::Regular || last.target.server != self.id {
                    return None;
                }
                match self.open_local_file(last.target.num, flags, ctx) {
                    Ok(o) => {
                        // The open half (cheaper than a standalone
                        // OpenInode: no second dispatch).
                        ctx.extra += 700;
                        Some(TerminalReply::Open(o))
                    }
                    Err(_) => None,
                }
            }
            TerminalOp::List { plus } => {
                if last.ftype != FileType::Directory {
                    return None;
                }
                let dir = last.target;
                // A distributed directory has a meaningful shard on every
                // server; a centralized one lives entirely at its home —
                // per this server's routing table, since a migrated
                // directory's entries follow the override — so any other
                // server's listing would be dead weight the client
                // discards.
                if !last.dist && self.routing.dir_home(dir) != self.id {
                    return None;
                }
                // A listing must not race the rmdir mark/commit window or
                // a migration copy (a standalone ListShard would park);
                // degrade and let the client's fan-out park normally.
                if self.rmdir.is_marked(dir)
                    || self.migrating.contains_key(&dir)
                    || self.dentries.is_tombstoned(dir)
                {
                    return None;
                }
                // Page-bounded like a standalone ListShard: a giant shard
                // rides the chain as its first page and the client pages
                // through the rest at this server.
                let (entries, next) = self.dentries.list_page(dir, None, self.cfg.list_page_max);
                ctx.extra += 400 + 25 * entries.len() as u64;
                // The readdir_plus fusion: stat every listed entry whose
                // inode this server stores, so those entries need no
                // follow-up StatInode exchange.
                let stats = if plus {
                    let mut stats = Vec::with_capacity(entries.len());
                    for e in &entries {
                        stats.push(if e.server == self.id {
                            match self.op_stat(e.ino) {
                                Ok(Reply::Stat(s)) => {
                                    ctx.extra += 400;
                                    Some(s)
                                }
                                _ => None,
                            }
                        } else {
                            None
                        });
                    }
                    stats
                } else {
                    Vec::new()
                };
                Some(TerminalReply::List {
                    server: self.id,
                    entries,
                    stats,
                    next,
                })
            }
        }
    }

    /// Whether the creation-affinity policy (§3.6.4) would place a new
    /// inode for `client` on this server. On the client's socket the
    /// dentry-shard owner doubles as the inode server (the coalesced
    /// placement the fused create replicates); across sockets the client
    /// may prefer its designated local server, so the walk degrades to a
    /// plain ENOENT and the client runs its ordinary placed create. The
    /// check uses the registered client core, so a fused create never
    /// moves an inode the unfused path would have placed elsewhere.
    fn coalesced_create_here(&self, client: ClientId) -> bool {
        match self.clients.get(&client) {
            Some((_, core)) => {
                self.machine.topology.socket_of(*core) == self.machine.topology.socket_of(self.core)
            }
            None => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn op_add_map(
        &mut self,
        client: ClientId,
        dir: InodeId,
        name: &str,
        target: InodeId,
        ftype: FileType,
        dist: bool,
        replace: bool,
        ctx: &mut Ctx,
    ) -> WireReply {
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        let val = DentryVal {
            target,
            ftype,
            dist,
        };
        let replaced = self.dentries.insert(dir, name, val, replace)?;
        // Invalidate on fresh inserts too (when negative caching is on),
        // not just replacements: clients may hold *negative* entries for
        // the name (they probed it and cached the ENOENT) and must
        // re-resolve now that it exists.
        if replaced.is_some() || self.cfg.techniques.neg_dircache {
            self.queue_invals(client, dir, name, ctx);
        }
        self.track_entry(dir, name, client, ctx);
        self.replica_fanout(dir, name, Some(val), ctx);
        Ok(Reply::AddMapped {
            replaced: replaced.map(|v| (v.target, v.ftype)),
        })
    }

    fn op_rm_map(
        &mut self,
        client: ClientId,
        dir: InodeId,
        name: &str,
        must_be_file: bool,
        ctx: &mut Ctx,
    ) -> WireReply {
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        let cur = self.dentries.lookup(dir, name).ok_or(Errno::ENOENT)?;
        if must_be_file && cur.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let v = self.dentries.remove(dir, name)?;
        self.queue_invals(client, dir, name, ctx);
        self.replica_fanout(dir, name, None, ctx);
        Ok(Reply::RmMapped {
            target: v.target,
            ftype: v.ftype,
        })
    }

    fn op_list_shard(
        &mut self,
        dir: InodeId,
        after: Option<&str>,
        max: u32,
        ctx: &mut Ctx,
    ) -> WireReply {
        // A read replica serves the page before the ownership guard, with
        // the same server-side bound. The name cursor makes this safe
        // across pages even if the client's later pages land on a
        // *different* replica (or the home): the cursor is an entry name,
        // not a copy-local position.
        let bound = match max {
            0 => self.cfg.list_page_max,
            m => (m as usize).min(self.cfg.list_page_max),
        };
        if let Some((entries, next)) = self.replicas.list_page(dir, after, bound) {
            ctx.extra += 25 * entries.len() as u64;
            return Ok(Reply::Shard { entries, next });
        }
        // Only centralized directories migrate, so a foreign override
        // means this server's (empty) shard would silently truncate the
        // listing — redirect instead. Distributed fan-outs never see an
        // override and answer their shard as before.
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        if self.dentries.is_tombstoned(dir) {
            return Err(Errno::ENOENT);
        }
        // The server's page bound always applies; the client may only
        // tighten it. One giant shard can therefore never materialize in
        // a single reply regardless of what the client asks for.
        let (entries, next) = self.dentries.list_page(dir, after, bound);
        ctx.extra += 25 * entries.len() as u64;
        Ok(Reply::Shard { entries, next })
    }

    /// Queues invalidations for every client tracking `(dir, name)` other
    /// than the mutator.
    fn queue_invals(&mut self, mutator: ClientId, dir: InodeId, name: &str, ctx: &mut Ctx) {
        for c in self.dentries.take_trackers(dir, name, mutator) {
            ctx.invals.push((
                c,
                Invalidation {
                    dir,
                    name: name.to_string(),
                },
            ));
        }
    }

    /// Records `client` in `(dir, name)`'s tracking list. When the bounded
    /// tracking table evicts an older slot to make room, its clients are
    /// queued an invalidation — they drop the cached entry and re-resolve,
    /// which is what keeps the bound sound.
    fn track_entry(&mut self, dir: InodeId, name: &str, client: ClientId, ctx: &mut Ctx) {
        for ev in self.dentries.track(dir, name, client) {
            for c in ev.clients {
                ctx.invals.push((
                    c,
                    Invalidation {
                        dir: ev.dir,
                        name: ev.name.clone(),
                    },
                ));
            }
        }
    }

    // ----- rmdir protocol -------------------------------------------------

    fn op_rmdir_serialize(
        &mut self,
        dir: InodeId,
        src_core: usize,
        reply: &msg::Sender<WireReply>,
    ) -> Option<WireReply> {
        // The home server stores the directory inode; a vanished inode means
        // another rmdir already won.
        debug_assert_eq!(dir.server, self.id, "serialize goes to the home server");
        match self.inodes.get(dir.num) {
            Err(_) => return Some(Err(Errno::ENOENT)),
            Ok(ino) if ino.ftype() != FileType::Directory => return Some(Err(Errno::ENOTDIR)),
            Ok(_) => {}
        }
        let granted = self.rmdir.lock(dir, || LockWaiter {
            reply: reply.clone(),
            src_core,
        });
        if granted {
            Some(Ok(Reply::RmdirLocked))
        } else {
            None
        }
    }

    fn op_rmdir_mark(&mut self, dir: InodeId, ctx: &mut Ctx) -> WireReply {
        if self.dentries.is_tombstoned(dir) {
            return Err(Errno::ENOENT);
        }
        if self.dentries.count(dir) > 0 {
            return Ok(Reply::RmdirMark(MarkResult::NotEmpty));
        }
        // The mark opens the deletion window; any read replica of this
        // directory must die with it (eviction-before-staleness). The mark
        // fan-out reaches every server, so each copy holder drops its own
        // copy here; the registering owner additionally evicts the set,
        // which is idempotent with the local drops.
        if let Some((home, epoch)) = self.replicas.drop_dir(dir) {
            self.routing.learn(dir, home, epoch);
        }
        self.replica_evict_all(dir, ctx);
        let fresh = self.rmdir.mark(dir);
        debug_assert!(fresh, "serialization must prevent double marks");
        Ok(Reply::RmdirMark(MarkResult::Marked))
    }

    fn op_rmdir_central(&mut self, dir: InodeId, ctx: &mut Ctx) -> WireReply {
        // A migrated directory's entries live elsewhere: the single-message
        // removal no longer applies (the emptiness check and the inode are
        // on different servers). Redirect; the client reruns the removal
        // through the distributed three-phase protocol.
        if let Some(r) = self.not_owner(dir) {
            return r;
        }
        debug_assert_eq!(dir.server, self.id, "centralized rmdir at home server");
        let ino = self.inodes.get(dir.num)?;
        if ino.ftype() != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        if self.dentries.count(dir) > 0 {
            return Err(Errno::ENOTEMPTY);
        }
        // Evict read replicas before the tombstone lands: copy holders
        // answer the directory's reads ENOENT-or-redirect from here on,
        // never from a surviving copy.
        self.replica_evict_all(dir, ctx);
        self.dentries.tombstone(dir);
        self.inodes.remove(dir.num);
        Ok(Reply::Unit)
    }

    // ----- Inode / descriptor operations ----------------------------------

    #[allow(clippy::too_many_arguments)]
    fn op_create(
        &mut self,
        client: ClientId,
        ftype: FileType,
        mode: Mode,
        dist: bool,
        add_map: Option<(InodeId, String)>,
        open: Option<OpenFlags>,
        ctx: &mut Ctx,
    ) -> WireReply {
        if let Some((dir, name)) = &add_map {
            // The coalesced ADD_MAP half must run at the shard owner; a
            // stale creator is redirected before any inode is allocated.
            if let Some(r) = self.not_owner(*dir) {
                return r;
            }
            if self.dentries.is_tombstoned(*dir) {
                return Err(Errno::ENOENT);
            }
            if self.dentries.lookup(*dir, name).is_some() {
                return Err(Errno::EEXIST);
            }
        }
        if ftype == FileType::Pipe {
            return Err(Errno::EINVAL);
        }
        let entry = add_map.as_ref().map(|(dir, name)| (*dir, name.as_str()));
        let (ino, open) = self.create_here(client, ftype, mode, dist, entry, open, ctx);
        Ok(Reply::Created { ino, open })
    }

    /// The one create body, shared by the standalone [`Request::Create`]
    /// and a chain's `Create` terminal: allocates a file or directory
    /// inode here and, given `entry`, inserts its dentry `(dir, name)` —
    /// checked absent, live and owned here by the caller — with the
    /// invalidations, tracking and replica updates of any insert (the
    /// coalesced ADD_MAP half, 300 cycles). A new regular file gets a
    /// descriptor when `open` asks for one.
    #[allow(clippy::too_many_arguments)]
    fn create_here(
        &mut self,
        client: ClientId,
        ftype: FileType,
        mode: Mode,
        dist: bool,
        entry: Option<(InodeId, &str)>,
        open: Option<OpenFlags>,
        ctx: &mut Ctx,
    ) -> (InodeId, Option<OpenResult>) {
        let kind = match ftype {
            FileType::Directory => InodeKind::Dir { dist },
            _ => InodeKind::File {
                blocks: Vec::new(),
                size: 0,
            },
        };
        let num = self.inodes.alloc(mode, kind);
        let ino = InodeId {
            server: self.id,
            num,
        };
        if let Some((dir, name)) = entry {
            let val = DentryVal {
                target: ino,
                ftype,
                dist,
            };
            // Checked by the caller; the server is single-threaded so
            // this cannot race.
            self.dentries
                .insert(dir, name, val, false)
                .expect("entry checked absent");
            // Clients holding a cached ENOENT for this name must hear
            // about the creation (negative dentry invalidation).
            if self.cfg.techniques.neg_dircache {
                self.queue_invals(client, dir, name, ctx);
            }
            self.track_entry(dir, name, client, ctx);
            self.replica_fanout(dir, name, Some(val), ctx);
            ctx.extra += 300; // coalesced ADD_MAP work
        }
        let open = match open {
            Some(flags) if ftype == FileType::Regular => {
                let fd = self.fds.open(num, FdKind::File, flags);
                self.inodes.get_mut(num).expect("just created").open_fds += 1;
                Some(OpenResult {
                    fd: FdId(fd),
                    size: 0,
                    blocks: Vec::new(),
                    extent: self.extent_of(num),
                })
            }
            _ => None,
        };
        (ino, open)
    }

    fn op_open(&mut self, num: u64, flags: OpenFlags, ctx: &mut Ctx) -> WireReply {
        Ok(Reply::Opened(self.open_local_file(num, flags, ctx)?))
    }

    /// Opens a descriptor on a locally stored regular file after POSIX
    /// permission checks (paper §3.2). Shared by the standalone
    /// [`Request::OpenInode`] and the fused open terminal.
    fn open_local_file(
        &mut self,
        num: u64,
        flags: OpenFlags,
        ctx: &mut Ctx,
    ) -> FsResult<OpenResult> {
        let ino = self.inodes.get(num)?;
        match ino.kind {
            InodeKind::File { .. } => {}
            InodeKind::Dir { .. } => return Err(Errno::EISDIR),
            InodeKind::Pipe => return Err(Errno::EINVAL),
        }
        // Standard POSIX permission checks at the server (paper §3.2).
        if flags.readable() && !ino.mode.owner_read() {
            return Err(Errno::EACCES);
        }
        if flags.writable() && !ino.mode.owner_write() {
            return Err(Errno::EACCES);
        }
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            self.truncate_inode(num, 0)?;
        }
        let fd = self.fds.open(num, FdKind::File, flags);
        let ino = self.inodes.get_mut(num).expect("checked");
        ino.open_fds += 1;
        let (blocks, size) = match &ino.kind {
            InodeKind::File { blocks, size } => (blocks.clone(), *size),
            _ => unreachable!("checked file"),
        };
        ctx.extra += 8 * blocks.len() as u64; // block-list transfer
        Ok(OpenResult {
            fd: FdId(fd),
            size,
            blocks,
            extent: self.extent_of(num),
        })
    }

    /// The striping policy's verdict for a local file: which servers
    /// service its stripes (see [`crate::placement::extent_for`]). `None`
    /// (always, at width 1) is the paper's all-blocks-home layout.
    fn extent_of(&self, num: u64) -> Option<crate::proto::ExtentMap> {
        crate::placement::extent_for(
            InodeId {
                server: self.id,
                num,
            },
            self.cfg.stripe_unit,
            self.cfg.stripe_width,
            self.peers.len(),
        )
    }

    fn op_close(&mut self, fd: FdId, size: Option<u64>, ctx: &mut Ctx) -> WireReply {
        let (kind, ino_num) = {
            let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
            (rec.kind, rec.ino)
        };
        // Pipe end reference counts mirror the descriptor's refs: every
        // dropped reference is one fewer reader/writer (EOF and EPIPE
        // depend on these reaching zero).
        if matches!(kind, FdKind::PipeRead | FdKind::PipeWrite) {
            self.close_pipe_end(ino_num, kind, ctx);
        }
        match self.fds.close(fd.0) {
            Some(rec) => {
                // Last reference gone.
                if kind == FdKind::File {
                    let ino = self.inodes.get_mut(rec.ino)?;
                    if let (Some(sz), InodeKind::File { size, .. }) = (size, &mut ino.kind) {
                        *size = sz;
                    }
                    ino.open_fds -= 1;
                    if ino.open_fds == 0 {
                        let defer: Vec<BlockId> = std::mem::take(&mut ino.defer_free);
                        let orphaned = ino.orphaned;
                        let num = rec.ino;
                        self.release_blocks(defer);
                        if orphaned {
                            self.destroy_inode(num);
                        }
                    }
                }
                Ok(Reply::Closed { refs: 0 })
            }
            None => {
                let refs = self.fds.get(fd.0).map_or(0, |f| f.refs);
                Ok(Reply::Closed { refs })
            }
        }
    }

    fn close_pipe_end(&mut self, num: u64, kind: FdKind, ctx: &mut Ctx) {
        if let Some(pipe) = self.pipes.get_mut(num) {
            match kind {
                FdKind::PipeRead => pipe.close_reader(&mut ctx.wake),
                FdKind::PipeWrite => pipe.close_writer(&mut ctx.wake),
                FdKind::File => unreachable!("pipe end expected"),
            }
            if pipe.defunct() {
                self.pipes.remove_if_defunct(num);
                self.inodes.remove(num);
            }
        }
    }

    fn op_incref(&mut self, fd: FdId, offset: u64) -> WireReply {
        let kind = self.fds.get(fd.0).ok_or(Errno::EBADF)?.kind;
        if !self.fds.incref(fd.0, offset) {
            return Err(Errno::EBADF);
        }
        // Sharing a pipe end also adds a reader/writer reference.
        if let Some(rec) = self.fds.get(fd.0) {
            if let Some(pipe) = self.pipes.get_mut(rec.ino) {
                match kind {
                    FdKind::PipeRead => pipe.readers += 1,
                    FdKind::PipeWrite => pipe.writers += 1,
                    FdKind::File => {}
                }
            }
        }
        Ok(Reply::Unit)
    }

    fn op_shared_io(
        &mut self,
        fd: FdId,
        len: u64,
        write: bool,
        append: bool,
        ctx: &mut Ctx,
    ) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::EBADF);
        }
        let num = rec.ino;
        let cur = rec.shared_offset.ok_or(Errno::EIO)?;
        if write {
            let ino = self.inodes.get(num)?;
            let start = if append { ino.size() } else { cur };
            self.ensure_capacity(num, start + len, ctx)?;
            let ino = self.inodes.get_mut(num)?;
            if let InodeKind::File { size, .. } = &mut ino.kind {
                *size = (*size).max(start + len);
            }
            self.finish_shared_io(fd, num, start, len, ctx)
        } else {
            let ino = self.inodes.get(num)?;
            let n = len.min(ino.size().saturating_sub(cur));
            self.finish_shared_io(fd, num, cur, n, ctx)
        }
    }

    fn finish_shared_io(
        &mut self,
        fd: FdId,
        num: u64,
        offset: u64,
        len: u64,
        ctx: &mut Ctx,
    ) -> WireReply {
        let ino = self.inodes.get(num)?;
        let (all_blocks, size) = match &ino.kind {
            InodeKind::File { blocks, size } => (blocks.clone(), *size),
            _ => return Err(Errno::EBADF),
        };
        let blocks = covering_blocks(&all_blocks, offset, len);
        ctx.extra += 10 * blocks.len() as u64;
        let rec = self.fds.get_mut(fd.0).expect("looked up above");
        rec.shared_offset = Some(offset + len);
        let demote = if rec.demote_armed {
            rec.demote_armed = false;
            let off = rec.shared_offset.take().expect("was shared");
            Some(DemoteInfo {
                offset: off,
                size,
                blocks: all_blocks,
            })
        } else {
            None
        };
        Ok(Reply::SharedIo {
            offset,
            len,
            blocks,
            size,
            demote,
        })
    }

    fn op_seek(&mut self, fd: FdId, offset: i64, whence: Whence) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::ESPIPE);
        }
        let num = rec.ino;
        let cur = rec.shared_offset.ok_or(Errno::EIO)?;
        let ino = self.inodes.get(num)?;
        let size = ino.size();
        let new = fsapi::flags::apply_seek(cur, size, offset, whence)?;
        let (all_blocks, size) = match &ino.kind {
            InodeKind::File { blocks, size } => (blocks.clone(), *size),
            _ => return Err(Errno::EBADF),
        };
        let rec = self.fds.get_mut(fd.0).expect("looked up above");
        rec.shared_offset = Some(new);
        let demote = if rec.demote_armed {
            rec.demote_armed = false;
            rec.shared_offset = None;
            Some(DemoteInfo {
                offset: new,
                size,
                blocks: all_blocks,
            })
        } else {
            None
        };
        Ok(Reply::Seeked {
            offset: new,
            demote,
        })
    }

    fn op_alloc(&mut self, fd: FdId, min_size: u64, ctx: &mut Ctx) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::EBADF);
        }
        let num = rec.ino;
        self.ensure_capacity(num, min_size, ctx)?;
        let ino = self.inodes.get(num)?;
        match &ino.kind {
            InodeKind::File { blocks, size } => Ok(Reply::Blocks {
                blocks: blocks.clone(),
                size: *size,
            }),
            _ => Err(Errno::EBADF),
        }
    }

    /// Grows `num`'s block list to cover `bytes` bytes, allocating from this
    /// server's buffer-cache partition.
    fn ensure_capacity(&mut self, num: u64, bytes: u64, ctx: &mut Ctx) -> FsResult<()> {
        let ino = self.inodes.get(num)?;
        let have = ino.nblocks() as usize;
        let need = (bytes as usize).div_ceil(BLOCK_SIZE);
        if need <= have {
            return Ok(());
        }
        let fresh = self.alloc.alloc(need - have)?;
        ctx.extra += 40 * fresh.len() as u64;
        let ino = self.inodes.get_mut(num)?;
        match &mut ino.kind {
            InodeKind::File { blocks, .. } => blocks.extend(fresh),
            _ => return Err(Errno::EBADF),
        }
        Ok(())
    }

    fn op_set_size(&mut self, fd: FdId, size: u64) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        let ino = self.inodes.get_mut(rec.ino)?;
        match &mut ino.kind {
            InodeKind::File { size: s, .. } => {
                *s = size;
                Ok(Reply::Unit)
            }
            _ => Err(Errno::EBADF),
        }
    }

    fn op_truncate(&mut self, fd: FdId, size: u64) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::EBADF);
        }
        self.truncate_inode(rec.ino, size)?;
        Ok(Reply::Unit)
    }

    /// Truncates a file inode; surplus blocks are defer-freed while
    /// descriptors remain open (paper §3.2). The tail of the last kept
    /// block is zeroed so a later size extension reads zeros, as POSIX
    /// requires.
    fn truncate_inode(&mut self, num: u64, new_size: u64) -> FsResult<()> {
        let ino = self.inodes.get_mut(num)?;
        let keep = (new_size as usize).div_ceil(BLOCK_SIZE);
        let mut tail_zero: Option<(BlockId, usize)> = None;
        let cut: Vec<BlockId> = match &mut ino.kind {
            InodeKind::File { blocks, size } => {
                if new_size < *size {
                    let tail_off = new_size as usize % BLOCK_SIZE;
                    if tail_off != 0 {
                        if let Some(b) = blocks.get(keep - 1) {
                            tail_zero = Some((*b, tail_off));
                        }
                    }
                }
                *size = new_size;
                if blocks.len() > keep {
                    blocks.split_off(keep)
                } else {
                    Vec::new()
                }
            }
            _ => return Err(Errno::EBADF),
        };
        if let Some((b, off)) = tail_zero {
            let zeros = [0u8; BLOCK_SIZE];
            self.machine.dram.write(b, off, &zeros[off..]);
        }
        let ino = self.inodes.get_mut(num)?;
        if ino.open_fds > 0 {
            ino.defer_free.extend(cut);
        } else {
            self.release_blocks(cut);
        }
        Ok(())
    }

    fn op_read_data(&mut self, fd: FdId, offset: u64, len: u64, ctx: &mut Ctx) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::EBADF);
        }
        let ino = self.inodes.get(rec.ino)?;
        let (blocks, size) = match &ino.kind {
            InodeKind::File { blocks, size } => (blocks, *size),
            _ => return Err(Errno::EBADF),
        };
        let n = len.min(size.saturating_sub(offset)) as usize;
        let mut data = vec![0u8; n];
        let mut filled = 0usize;
        while filled < n {
            let pos = offset as usize + filled;
            let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(n - filled);
            // Holes past the allocated block list read as zeros.
            if let Some(b) = blocks.get(bi) {
                self.machine
                    .dram
                    .read(*b, bo, &mut data[filled..filled + chunk]);
            }
            filled += chunk;
            ctx.extra += self.machine.cost.dram_direct_blk;
        }
        Ok(Reply::Data {
            data: data.into(),
            _eof: false,
        })
    }

    fn op_write_data(
        &mut self,
        fd: FdId,
        offset: u64,
        data: Arc<[u8]>,
        append: bool,
        ctx: &mut Ctx,
    ) -> WireReply {
        let rec = self.fds.get(fd.0).ok_or(Errno::EBADF)?;
        if rec.kind != FdKind::File {
            return Err(Errno::EBADF);
        }
        let num = rec.ino;
        let start = if append {
            self.inodes.get(num)?.size()
        } else {
            offset
        };
        let end = start + data.len() as u64;
        self.ensure_capacity(num, end, ctx)?;
        let ino = self.inodes.get_mut(num)?;
        let blocks = match &mut ino.kind {
            InodeKind::File { blocks, size } => {
                *size = (*size).max(end);
                blocks.clone()
            }
            _ => return Err(Errno::EBADF),
        };
        let mut written = 0usize;
        while written < data.len() {
            let pos = start as usize + written;
            let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(data.len() - written);
            self.machine
                .dram
                .write(blocks[bi], bo, &data[written..written + chunk]);
            written += chunk;
            ctx.extra += self.machine.cost.dram_direct_blk;
        }
        Ok(Reply::Written {
            n: data.len() as u64,
        })
    }

    /// Services a stripe read against an explicit block list (the striped
    /// data plane). Stateless by design: the request names the blocks, so
    /// *any* server can service it against the shared DRAM — ownership of
    /// the descriptor and inode stays at the home server, only the data
    /// movement is spread. `offset` is relative to the byte range the
    /// block list covers.
    fn op_read_stripe(
        &mut self,
        blocks: &[BlockId],
        offset: u64,
        len: u64,
        ctx: &mut Ctx,
    ) -> WireReply {
        let cover = (blocks.len() * BLOCK_SIZE) as u64;
        let n = len.min(cover.saturating_sub(offset)) as usize;
        let mut data = vec![0u8; n];
        let mut filled = 0usize;
        while filled < n {
            let pos = offset as usize + filled;
            let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(n - filled);
            self.machine
                .dram
                .read(blocks[bi], bo, &mut data[filled..filled + chunk]);
            filled += chunk;
            ctx.extra += self.machine.cost.dram_direct_blk;
        }
        Ok(Reply::Data {
            data: data.into(),
            _eof: false,
        })
    }

    /// The write half of the striped data plane; see
    /// [`Server::op_read_stripe`] for the addressing model. Capacity is
    /// the client's problem (blocks come pre-allocated from the home
    /// server), so writing past the listed blocks is a protocol error.
    fn op_write_stripe(
        &mut self,
        blocks: &[BlockId],
        offset: u64,
        data: Arc<[u8]>,
        ctx: &mut Ctx,
    ) -> WireReply {
        let cover = (blocks.len() * BLOCK_SIZE) as u64;
        if offset + data.len() as u64 > cover {
            return Err(Errno::EINVAL);
        }
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset as usize + written;
            let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(data.len() - written);
            self.machine
                .dram
                .write(blocks[bi], bo, &data[written..written + chunk]);
            written += chunk;
            ctx.extra += self.machine.cost.dram_direct_blk;
        }
        Ok(Reply::Written {
            n: data.len() as u64,
        })
    }

    fn op_link_incref(&mut self, num: u64) -> WireReply {
        self.inodes.get_mut(num)?.nlink += 1;
        Ok(Reply::Unit)
    }

    fn op_link_decref(&mut self, num: u64) -> WireReply {
        let ino = self.inodes.get_mut(num)?;
        debug_assert!(ino.nlink > 0);
        ino.nlink -= 1;
        if ino.nlink == 0 {
            if ino.open_fds > 0 {
                // Unlinked while open: keep data until last close
                // (paper §3.4).
                ino.orphaned = true;
            } else {
                self.destroy_inode(num);
            }
        }
        Ok(Reply::Unit)
    }

    fn op_stat(&mut self, num: u64) -> WireReply {
        let ino = self.inodes.get(num)?;
        Ok(Reply::Stat(Stat {
            ino: num,
            server: self.id,
            ftype: ino.ftype(),
            size: ino.size(),
            nlink: ino.nlink,
            mode: ino.mode.0,
            blocks: ino.nblocks(),
        }))
    }

    // ----- Pipes -----------------------------------------------------------

    fn op_pipe_create(&mut self) -> WireReply {
        let num = self.inodes.alloc(Mode(0o600), InodeKind::Pipe);
        self.pipes.insert(num, Pipe::new(self.cfg.pipe_capacity));
        let rfd = self.fds.open(num, FdKind::PipeRead, OpenFlags::RDONLY);
        let wfd = self.fds.open(num, FdKind::PipeWrite, OpenFlags::WRONLY);
        self.inodes.get_mut(num).expect("just created").open_fds += 2;
        Ok(Reply::Pipe {
            ino: InodeId {
                server: self.id,
                num,
            },
            rfd: FdId(rfd),
            wfd: FdId(wfd),
        })
    }

    fn op_pipe_read(
        &mut self,
        fd: FdId,
        max: u64,
        src_core: usize,
        reply: &msg::Sender<WireReply>,
        ctx: &mut Ctx,
    ) -> Option<WireReply> {
        let rec = match self.fds.get(fd.0) {
            Some(r) if r.kind == FdKind::PipeRead => r,
            Some(_) => return Some(Err(Errno::EBADF)),
            None => return Some(Err(Errno::EBADF)),
        };
        let num = rec.ino;
        let pipe = match self.pipes.get_mut(num) {
            Some(p) => p,
            None => return Some(Err(Errno::EBADF)),
        };
        match pipe.read(max, &mut ctx.wake) {
            Some(r) => Some(r),
            None => {
                pipe.pending_reads.push_back(Parked {
                    reply: reply.clone(),
                    src_core,
                    payload: ParkedPayload::Read(max),
                });
                None
            }
        }
    }

    fn op_pipe_write(
        &mut self,
        fd: FdId,
        data: Arc<[u8]>,
        src_core: usize,
        reply: &msg::Sender<WireReply>,
        ctx: &mut Ctx,
    ) -> Option<WireReply> {
        let rec = match self.fds.get(fd.0) {
            Some(r) if r.kind == FdKind::PipeWrite => r,
            Some(_) => return Some(Err(Errno::EBADF)),
            None => return Some(Err(Errno::EBADF)),
        };
        let num = rec.ino;
        ctx.extra += data.len() as u64 / 64;
        let pipe = match self.pipes.get_mut(num) {
            Some(p) => p,
            None => return Some(Err(Errno::EBADF)),
        };
        match pipe.write(data, &mut ctx.wake) {
            Ok(r) => Some(r),
            Err(data) => {
                pipe.pending_writes.push_back(Parked {
                    reply: reply.clone(),
                    src_core,
                    payload: ParkedPayload::Write(data),
                });
                None
            }
        }
    }

    // ----- Block bookkeeping ----------------------------------------------

    /// Returns blocks to the free list, zeroing them so recycled blocks
    /// never leak prior file contents.
    fn release_blocks(&mut self, blocks: Vec<BlockId>) {
        for b in &blocks {
            self.machine.dram.zero(*b);
        }
        self.alloc.free(blocks);
    }

    /// Destroys an inode and reclaims all its blocks.
    fn destroy_inode(&mut self, num: u64) {
        if let Some(ino) = self.inodes.remove(num) {
            let mut blocks = ino.defer_free;
            if let InodeKind::File { blocks: b, .. } = ino.kind {
                blocks.extend(b);
            }
            self.release_blocks(blocks);
        }
    }

    /// Test-only view of internal state.
    #[cfg(test)]
    pub(crate) fn debug_state(&self) -> (usize, usize, usize) {
        (self.inodes.len(), self.fds.len(), self.alloc.available())
    }
}

/// The sub-slice of a file's block list covering `[offset, offset + len)`.
fn covering_blocks(blocks: &[BlockId], offset: u64, len: u64) -> Vec<BlockId> {
    if len == 0 {
        return Vec::new();
    }
    let first = (offset as usize) / BLOCK_SIZE;
    let last = ((offset + len - 1) as usize) / BLOCK_SIZE;
    blocks
        .get(first..=last.min(blocks.len().saturating_sub(1)))
        .unwrap_or(&[])
        .to_vec()
}

/// Handles to access a freshly spawned inode for tests.
#[cfg(test)]
mod tests;
