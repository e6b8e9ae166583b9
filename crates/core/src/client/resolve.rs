//! Pathname resolution through the directory cache.
//!
//! "Pathname lookups proceed iteratively, issuing the following RPC to each
//! directory server in turn: `lookup(dir, name) -> (server, inode)`"
//! (paper §3.6.1). Results are cached; servers invalidate stale entries.
//!
//! This reproduction layers three mechanisms on top of the paper's loop,
//! all expressed as [`MultiStepOp`] state machines driven by the operation
//! engine (`engine.rs`):
//!
//! * **Chained resolution** ([`ResolveOp`]): with the `chained_resolution`
//!   technique on, a cold walk ships the *whole remaining component list*
//!   to the first uncached component's shard server as one
//!   [`Request::LookupPath`]; servers resolve what they own and forward
//!   the rest directly to the next owner, so the client pays one exchange
//!   per run of co-located components instead of one round trip per
//!   component.
//! * **Terminal ops** ([`FusedPathOp`]): a walk run for `stat`/`open`
//!   carries the operation it is *for* on the request that resolves the
//!   final component — a single [`Request::Lookup`] `{ terminal }`, or,
//!   with `fused_terminal` on, the chain itself (which can also carry the
//!   first shard of a `readdir` listing) — and the answering server
//!   executes it in the same exchange when its shards align. Cold deep
//!   `stat`/`open` becomes one end-to-end exchange.
//! * **Pair resolution** ([`PairResolveOp`]): rename's two parent chains
//!   advance in lockstep; per round the two frontier requests are
//!   deduplicated — fully when the remainders are identical, and down to
//!   the shared prefix when one remainder is a prefix of the other — and
//!   shipped together (batched when they are plain lookups, overlapped
//!   when they are chains).

use super::dircache::{Cached, CachedDentry};
use super::engine::{MultiStepOp, Next, Step};
use super::{expect_reply, ClientLib, ClientState};
use crate::otrace::Cause;
use crate::proto::{Reply, Request, TerminalOp, TerminalReply, WireReply};
use crate::types::{InodeId, ServerId};
use fsapi::{Errno, FileType, FsResult};

/// A `(parent directory, final name)` pair for each of two resolved paths
/// (the result of lockstep pair resolution).
pub(crate) type ParentPair<'a, 'b> = ((DirRef, &'a str), (DirRef, &'b str));

/// A resolved directory: its inode plus distribution flag (needed to route
/// subsequent entry operations to the right shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirRef {
    /// Directory inode.
    pub ino: InodeId,
    /// Whether its entries are distributed over all servers.
    pub dist: bool,
}

impl ClientLib {
    /// The root directory reference.
    pub(crate) fn root_ref(&self) -> DirRef {
        DirRef {
            ino: InodeId::ROOT,
            dist: self.cfg.root_distributed,
        }
    }

    /// Consults the directory cache for `(dir, name)`, charging the hit
    /// cost plus invalidation-drain work. `None` when the cache is
    /// disabled or has no slot for the name.
    pub(crate) fn consult_dircache(
        &self,
        st: &mut ClientState,
        dir: InodeId,
        name: &str,
    ) -> Option<Cached> {
        if !self.cfg.techniques.dircache {
            return None;
        }
        let (hit, drained) = st.dircache.lookup(dir, name);
        self.charge(self.machine.cost.dircache_hit + drained as u64 * 50);
        hit
    }

    /// Records an ENOENT result as a negative dentry, when the technique
    /// is enabled (the normalized config turns it off with the dircache).
    /// The single gate for every ENOENT-caching path.
    pub(crate) fn cache_negative(&self, st: &mut ClientState, dir: InodeId, name: &str) {
        if self.cfg.techniques.neg_dircache {
            st.dircache.insert_negative(dir, name);
        }
    }

    /// Resolves one component inside `dir`, consulting the lookup cache
    /// first (when the technique is enabled). Misses are cached negatively
    /// (when `neg_dircache` is enabled) so repeated probes of absent names
    /// cost no RPC; the server tracks the miss and invalidates the
    /// negative entry when the name is created.
    pub(crate) fn lookup_child(
        &self,
        st: &mut ClientState,
        dir: DirRef,
        name: &str,
    ) -> FsResult<CachedDentry> {
        match self.consult_dircache(st, dir.ino, name) {
            Some(Cached::Pos(v)) => return Ok(v),
            Some(Cached::Neg) => return Err(Errno::ENOENT),
            None => {}
        }
        self.lookup_child_uncached(st, dir, name)
    }

    /// The RPC half of [`Self::lookup_child`]: resolves at the dentry
    /// shard and updates the cache, without consulting it first (for
    /// callers that already did).
    pub(crate) fn lookup_child_uncached(
        &self,
        st: &mut ClientState,
        dir: DirRef,
        name: &str,
    ) -> FsResult<CachedDentry> {
        // Read-routed: a replica of the directory may answer the lookup.
        // Only home-served replies (positive or negative) may enter the
        // dircache — replicas keep no tracking lists, so a cached replica
        // answer would never be invalidated.
        let (wire, from_home) =
            self.call_entry_read(dir.ino, dir.dist, name, |lib| Request::Lookup {
                client: lib.id,
                dir: dir.ino,
                name: name.to_string(),
                terminal: TerminalOp::None,
            });
        let got = expect_reply!(
            wire,
            Reply::Lookup { target, ftype, dist, .. } => CachedDentry { target, ftype, dist }
        );
        match got {
            Ok(v) => {
                if from_home && self.cfg.techniques.dircache {
                    st.dircache.insert(dir.ino, name, v);
                }
                Ok(v)
            }
            Err(Errno::ENOENT) => {
                if from_home {
                    self.cache_negative(st, dir.ino, name);
                }
                Err(Errno::ENOENT)
            }
            Err(e) => Err(e),
        }
    }

    /// Resolves a component list to a directory.
    pub(crate) fn resolve_dir(&self, st: &mut ClientState, comps: &[&str]) -> FsResult<DirRef> {
        self.run_op(st, ResolveOp::new(self.root_ref(), comps))
    }

    /// Resolves `path` to `(parent directory, final name)`.
    pub(crate) fn resolve_parent<'p>(
        &self,
        st: &mut ClientState,
        path: &'p str,
    ) -> FsResult<(DirRef, &'p str)> {
        let (parents, name) = fsapi::path::split_parent(path)?;
        let dir = self.resolve_dir(st, &parents)?;
        Ok((dir, name))
    }

    /// Resolves two paths to their `(parent directory, final name)` pairs
    /// *in lockstep*: per round the two chains' frontier requests ship
    /// together and shared-prefix duplicates collapse to one. Used by
    /// `rename`, whose two resolutions are the one hot multi-path pattern.
    ///
    /// Error precedence matches sequential resolution: a failure on the
    /// first path is reported even if the second failed too.
    pub(crate) fn resolve_parent_pair<'a, 'b>(
        &self,
        st: &mut ClientState,
        a: &'a str,
        b: &'b str,
    ) -> FsResult<ParentPair<'a, 'b>> {
        let (pa, na) = fsapi::path::split_parent(a)?;
        let (pb, nb) = fsapi::path::split_parent(b)?;
        let (da, db) = self.run_op(st, PairResolveOp::new(self.root_ref(), &pa, &pb))?;
        Ok(((da, na), (db, nb)))
    }

    /// Interprets a resolved dentry as a directory to descend into.
    fn enter_dir(&self, d: CachedDentry) -> FsResult<DirRef> {
        if d.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        Ok(DirRef {
            ino: d.target,
            dist: d.dist,
        })
    }
}

/// The request a resolve chain has in flight.
enum Pending {
    /// Nothing outstanding.
    Idle,
    /// A chained `LookupPath` covering the next `upto` components (all of
    /// them, unless a pair-dedup'd prefix chain asked for fewer).
    Chain {
        /// Components the chain was asked to resolve.
        upto: usize,
    },
    /// A single `Lookup` for the current component (carrying the walk's
    /// terminal op when that component is the final one).
    Single,
}

/// The path-walk state machine: one directory-component cursor advanced by
/// cache hits, chained `LookupPath` exchanges, or per-component lookups.
///
/// With a [`TerminalOp`] other than `None`, the *last* component is the
/// walk's target rather than a directory to descend into: its dentry is
/// captured (`final_dentry`), a chain reaching it carries the terminal op,
/// and a final ENOENT finishes the op with `final_dentry: None` (cached
/// negatively) instead of erroring — callers like `open(O_CREAT)` need the
/// resolved parent in that case.
pub(crate) struct ResolveOp<'p> {
    comps: &'p [&'p str],
    cur: DirRef,
    pos: usize,
    pending: Pending,
    /// Resolve the next component with a plain (parkable) single RPC
    /// before chaining again — set when a chain stopped `EAGAIN` on a
    /// directory marked for deletion.
    single_once: bool,
    /// When the pending single/terminal RPC was read-routed to a
    /// **replica** rather than the directory's home, the server it went
    /// to. The reply then bypasses the dircache (nothing would ever
    /// invalidate it) and a `NotOwner` means that copy is gone, not that
    /// the shard moved.
    sent_replica: Option<ServerId>,
    /// What the walk is for (fused into the chain's tail).
    terminal: TerminalOp,
    /// The final component's dentry, when `terminal` is not `None`.
    final_dentry: Option<CachedDentry>,
    /// The fused terminal result, when the final server answered it.
    term: Option<TerminalReply>,
}

impl<'p> ResolveOp<'p> {
    /// A walk of `comps` starting at `root`, descending every component.
    pub(crate) fn new(root: DirRef, comps: &'p [&'p str]) -> Self {
        Self::with_terminal(root, comps, TerminalOp::None)
    }

    /// A walk whose last component is the target of `terminal`.
    fn with_terminal(root: DirRef, comps: &'p [&'p str], terminal: TerminalOp) -> Self {
        ResolveOp {
            comps,
            cur: root,
            pos: 0,
            pending: Pending::Idle,
            single_once: false,
            sent_replica: None,
            terminal,
            final_dentry: None,
            term: None,
        }
    }

    /// True when the cursor stands on the final component of a terminal
    /// walk (captured, not descended).
    fn at_terminal(&self) -> bool {
        self.terminal != TerminalOp::None && self.pos + 1 == self.comps.len()
    }

    /// Caches (unless the component was replica-served) and descends into
    /// one resolved component.
    fn descend(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        d: CachedDentry,
        cacheable: bool,
    ) -> FsResult<()> {
        if cacheable && lib.cfg.techniques.dircache {
            st.dircache.insert(self.cur.ino, self.comps[self.pos], d);
        }
        self.cur = lib.enter_dir(d)?;
        self.pos += 1;
        Ok(())
    }

    /// Caches (unless replica-served) and captures the final component of
    /// a terminal walk.
    fn capture_final(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        d: CachedDentry,
        cacheable: bool,
    ) {
        if cacheable && lib.cfg.techniques.dircache {
            st.dircache.insert(self.cur.ino, self.comps[self.pos], d);
        }
        self.final_dentry = Some(d);
        self.pos += 1;
    }

    /// Records a final-component ENOENT: the miss is cached (unless the
    /// answer came from a replica) and the walk finishes with
    /// `final_dentry: None` (the parent is resolved).
    fn finish_absent(&mut self, lib: &ClientLib, st: &mut ClientState, cacheable: bool) {
        if cacheable {
            lib.cache_negative(st, self.cur.ino, self.comps[self.pos]);
        }
        self.pos = self.comps.len();
    }

    /// Applies the reply of the previously emitted request.
    fn absorb(&mut self, lib: &ClientLib, st: &mut ClientState, reply: WireReply) -> FsResult<()> {
        // A NotOwner redirect (the addressed server no longer holds the
        // directory's migrated shard) is not an outcome for any pending
        // kind: fold it into the routing table and leave the cursor where
        // it is — the next `next_request` re-emits at the owner. Chains
        // never produce one (stale hops re-forward server-side).
        if let Ok(Reply::NotOwner { dir, epoch, owner }) = &reply {
            debug_assert!(!matches!(self.pending, Pending::Chain { .. }));
            self.pending = Pending::Idle;
            // A redirect from a *replica* means that copy is gone —
            // forget the dead route and retry (the next emission routes
            // around it), tolerating a no-news epoch. A redirect from the
            // home keeps the strict rule: no news means the route that
            // produced it is unchanged — re-sending would loop, so treat
            // it as the protocol error it is. Every accepted redirect
            // strictly raises the directory's epoch, which bounds the
            // retries.
            if let Some(server) = self.sent_replica.take() {
                lib.routing.lock().forget_replica(*dir, server);
                let _ = lib.learn_owner(*dir, *owner, *epoch);
                lib.machine.otrace.tag_next(Cause::Redirect);
                return Ok(());
            }
            return if lib.learn_owner(*dir, *owner, *epoch) {
                lib.machine.otrace.tag_next(Cause::Redirect);
                Ok(())
            } else {
                Err(Errno::EIO)
            };
        }
        let from_home = self.sent_replica.take().is_none();
        match std::mem::replace(&mut self.pending, Pending::Idle) {
            Pending::Single => {
                let got = expect_reply!(
                    reply,
                    Reply::Lookup { target, ftype, dist, term } =>
                        (CachedDentry { target, ftype, dist }, term)
                );
                match got {
                    Ok((d, term)) if self.at_terminal() => {
                        self.capture_final(lib, st, d, from_home);
                        self.term = term;
                        Ok(())
                    }
                    Ok((d, _)) => self.descend(lib, st, d, from_home),
                    Err(Errno::ENOENT) if self.at_terminal() => {
                        self.finish_absent(lib, st, from_home);
                        Ok(())
                    }
                    Err(Errno::ENOENT) => {
                        if from_home {
                            lib.cache_negative(st, self.cur.ino, self.comps[self.pos]);
                        }
                        Err(Errno::ENOENT)
                    }
                    Err(e) => Err(e),
                }
            }
            Pending::Chain { upto } => {
                let start = self.pos;
                let (entries, stopped, term) = expect_reply!(
                    reply,
                    Reply::Path { entries, stopped, term } => (entries, stopped, term)
                )?;
                debug_assert!(entries.len() <= upto);
                for e in entries {
                    let d = CachedDentry {
                        target: e.target,
                        ftype: e.ftype,
                        dist: e.dist,
                    };
                    // Replica-served components (`e.replica`) resolve but
                    // never enter the dircache.
                    if self.at_terminal() {
                        // Only reachable when the chain covered the final
                        // component (and therefore carried the terminal).
                        self.capture_final(lib, st, d, !e.replica);
                    } else {
                        // A non-directory intermediate surfaces ENOTDIR
                        // here, exactly like the sequential walk entering
                        // it would.
                        self.descend(lib, st, d, !e.replica)?;
                    }
                }
                debug_assert!(term.is_none() || stopped.is_none());
                if stopped.is_none() {
                    self.term = term;
                }
                match stopped {
                    None => {
                        debug_assert_eq!(self.pos, start + upto);
                        Ok(())
                    }
                    // A chain's ENOENT is always home-authoritative:
                    // replica copies only serve positive hits (a miss
                    // forwards to the owner), so the negative is safely
                    // cacheable.
                    Some(Errno::ENOENT) if self.at_terminal() => {
                        self.finish_absent(lib, st, true);
                        Ok(())
                    }
                    Some(Errno::ENOENT) => {
                        lib.cache_negative(st, self.cur.ino, self.comps[self.pos]);
                        Err(Errno::ENOENT)
                    }
                    // The chain reached a directory marked for deletion:
                    // re-ask that component as a plain single RPC, which
                    // parks at the server until the rmdir commits or
                    // aborts.
                    Some(Errno::EAGAIN) => {
                        self.single_once = true;
                        lib.machine.otrace.tag_next(Cause::Retry);
                        Ok(())
                    }
                    Some(e) => Err(e),
                }
            }
            Pending::Idle => {
                debug_assert!(false, "reply without a pending request");
                Err(Errno::EIO)
            }
        }
    }

    /// Advances the cursor through the directory cache. Returns `true`
    /// when resolution is complete (nothing left to ask a server).
    fn advance_cached(&mut self, lib: &ClientLib, st: &mut ClientState) -> FsResult<bool> {
        while self.pos < self.comps.len() {
            let name = self.comps[self.pos];
            match lib.consult_dircache(st, self.cur.ino, name) {
                Some(Cached::Pos(d)) => {
                    if self.at_terminal() {
                        self.final_dentry = Some(d);
                        self.pos += 1;
                    } else {
                        self.cur = lib.enter_dir(d)?;
                        self.pos += 1;
                    }
                }
                Some(Cached::Neg) => {
                    if self.at_terminal() {
                        // Known absent: finish with no dentry (the
                        // negative entry is already cached).
                        self.pos = self.comps.len();
                    } else {
                        return Err(Errno::ENOENT);
                    }
                }
                None => break,
            }
        }
        Ok(self.pos == self.comps.len())
    }

    /// How many components from the cursor a chain may cover: all of
    /// them, except that without `fused_terminal` a terminal walk's chain
    /// stops one short and the final component goes as a single `Lookup`
    /// carrying the terminal op.
    fn chain_len(&self, lib: &ClientLib) -> usize {
        let end = if self.terminal != TerminalOp::None && !lib.cfg.techniques.fused_terminal {
            self.comps.len() - 1
        } else {
            self.comps.len()
        };
        end.saturating_sub(self.pos)
    }

    /// True when the next emission would be a chained `LookupPath`.
    /// Chaining pays off once two or more uncached components remain; a
    /// single component is exactly one round trip either way, and the
    /// single RPC parks correctly on deletion-marked directories.
    fn would_chain(&self, lib: &ClientLib) -> bool {
        lib.cfg.techniques.chained_resolution && self.chain_len(lib) >= 2 && !self.single_once
    }

    /// Emits a chain covering the next `upto` components. Only a chain
    /// that reaches the final component carries the terminal op; a
    /// pair-dedup'd prefix chain resolves directories only.
    fn chain_request(&mut self, lib: &ClientLib, upto: usize) -> (ServerId, Request) {
        debug_assert!(upto >= 1 && self.pos + upto <= self.comps.len());
        let name = self.comps[self.pos];
        // Hop 0 of a centralized chain is read-routed: a replica of the
        // starting directory serves the components it can from its copy
        // (flagged `replica` in the reply, so they bypass the dircache)
        // and forwards the rest feed-forward like any chain hop. No
        // per-reply bookkeeping is needed here — chains never answer
        // `NotOwner` and the entry flags carry the cacheability.
        let shard = if self.cur.dist {
            lib.shard_of(self.cur.ino, true, name)
        } else {
            lib.read_server_of(self.cur.ino)
        };
        let terminal = if self.pos + upto == self.comps.len() {
            self.terminal
        } else {
            TerminalOp::None
        };
        self.pending = Pending::Chain { upto };
        (
            shard,
            Request::LookupPath {
                client: lib.id,
                dir: self.cur.ino,
                dist: self.cur.dist,
                comps: self.comps[self.pos..self.pos + upto]
                    .iter()
                    .map(|c| c.to_string())
                    .collect(),
                acc: Vec::new(),
                hops: 0,
                terminal,
            },
        )
    }

    /// Emits the single `Lookup` for the current component, carrying the
    /// walk's terminal op when that component is the final one.
    fn single_request(&mut self, lib: &ClientLib) -> (ServerId, Request) {
        self.single_once = false;
        let name = self.comps[self.pos];
        // Every single emission here is a read (a create terminal included
        // — a single lookup never creates), so a centralized component is
        // read-routed over the directory's replica set; `sent_replica`
        // remembers a non-home pick so the reply bypasses the dircache.
        let shard = if self.cur.dist {
            lib.shard_of(self.cur.ino, true, name)
        } else {
            let s = lib.read_server_of(self.cur.ino);
            self.sent_replica = (s != lib.dir_home_of(self.cur.ino)).then_some(s);
            if self.sent_replica.is_some() {
                lib.machine.otrace.tag_next(Cause::ReplicaRead);
            }
            s
        };
        let terminal = match self.terminal {
            // A listing's final single is a plain lookup (the shard server
            // is not, in general, where the listing lives).
            TerminalOp::List { .. } => TerminalOp::None,
            t if self.at_terminal() => t,
            _ => TerminalOp::None,
        };
        self.pending = Pending::Single;
        (
            shard,
            Request::Lookup {
                client: lib.id,
                dir: self.cur.ino,
                name: name.to_string(),
                terminal,
            },
        )
    }

    /// Advances through the directory cache, then picks the next request —
    /// a chain covering the remaining components when the technique
    /// applies, a single RPC otherwise. `None` when resolution is
    /// complete.
    fn next_request(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
    ) -> FsResult<Option<(ServerId, Request)>> {
        if self.advance_cached(lib, st)? {
            return Ok(None);
        }
        if self.would_chain(lib) {
            let upto = self.chain_len(lib);
            return Ok(Some(self.chain_request(lib, upto)));
        }
        Ok(Some(self.single_request(lib)))
    }

    /// True when the in-flight request must not travel in a batch
    /// envelope (its reply may come from a different server).
    fn pending_unbatchable(&self) -> bool {
        matches!(self.pending, Pending::Chain { .. })
    }

    /// The `(directory, remaining components)` frontier, for pair
    /// deduplication. Only meaningful after [`Self::advance_cached`].
    fn frontier(&self) -> (InodeId, &'p [&'p str]) {
        (self.cur.ino, &self.comps[self.pos..])
    }
}

impl MultiStepOp for ResolveOp<'_> {
    type Out = DirRef;

    fn step(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<DirRef>> {
        if let Some(mut rs) = replies {
            debug_assert_eq!(rs.len(), 1);
            self.absorb(lib, st, rs.pop().ok_or(Errno::EIO)?)?;
        }
        match self.next_request(lib, st)? {
            Some((server, req)) => Ok(Next::Run(Step::Call(server, req))),
            None => Ok(Next::Done(self.cur)),
        }
    }
}

/// What a terminal walk resolved.
pub(crate) struct FusedOut {
    /// The final component's parent directory (always resolved on
    /// success).
    pub(crate) parent: DirRef,
    /// The final component's dentry; `None` means the name is absent
    /// (`ENOENT`, cached negatively) while every parent resolved —
    /// `open(O_CREAT)` creates into `parent` from here.
    pub(crate) dentry: Option<CachedDentry>,
    /// The fused terminal result, when the final server answered it.
    pub(crate) term: Option<TerminalReply>,
}

/// A full-path walk with a fused terminal: resolves `comps` (parents *and*
/// final component, favoring a single `LookupPath` chain that carries the
/// terminal op, else per-component `Lookup`s whose last one carries it)
/// and reports the final dentry plus any fused result.
/// Mid-path errors abort the op; a final-component ENOENT completes with
/// `dentry: None` so callers keep the resolved parent.
pub(crate) struct FusedPathOp<'p>(ResolveOp<'p>);

impl<'p> FusedPathOp<'p> {
    /// A terminal walk of `comps` (which must be non-empty) from `root`.
    pub(crate) fn new(root: DirRef, comps: &'p [&'p str], terminal: TerminalOp) -> Self {
        debug_assert!(!comps.is_empty());
        debug_assert!(terminal != TerminalOp::None);
        FusedPathOp(ResolveOp::with_terminal(root, comps, terminal))
    }
}

impl MultiStepOp for FusedPathOp<'_> {
    type Out = FusedOut;

    fn step(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<FusedOut>> {
        if let Some(mut rs) = replies {
            debug_assert_eq!(rs.len(), 1);
            self.0.absorb(lib, st, rs.pop().ok_or(Errno::EIO)?)?;
        }
        match self.0.next_request(lib, st)? {
            Some((server, req)) => Ok(Next::Run(Step::Call(server, req))),
            None => {
                debug_assert!(self.0.term.is_none() || self.0.final_dentry.is_some());
                Ok(Next::Done(FusedOut {
                    parent: self.0.cur,
                    dentry: self.0.final_dentry,
                    term: self.0.term.take(),
                }))
            }
        }
    }
}

/// Two [`ResolveOp`] chains advanced in lockstep (rename's pair
/// resolution). Each round collects both chains' frontier requests and
/// collapses shared work to one request: identical remainders share the
/// whole chain, and when one remainder is a *prefix* of the other the
/// prefix resolves once (the longer chain continues from there next
/// round). A chain that errors stops advancing while the other finishes,
/// and the first path's error takes precedence.
pub(crate) struct PairResolveOp<'p> {
    ops: [ResolveOp<'p>; 2],
    err: [Option<Errno>; 2],
    done: [Option<DirRef>; 2],
    /// Which chains contributed a request to the in-flight step.
    in_flight: [bool; 2],
    /// The in-flight step was deduplicated: one request answers both.
    dedup: bool,
}

impl<'p> PairResolveOp<'p> {
    /// Lockstep resolution of two component lists from `root`.
    pub(crate) fn new(root: DirRef, a: &'p [&'p str], b: &'p [&'p str]) -> Self {
        PairResolveOp {
            ops: [ResolveOp::new(root, a), ResolveOp::new(root, b)],
            err: [None, None],
            done: [None, None],
            in_flight: [false, false],
            dedup: false,
        }
    }

    /// Feeds one chain's reply, downgrading failures to per-chain errors.
    fn absorb_into(&mut self, i: usize, lib: &ClientLib, st: &mut ClientState, reply: WireReply) {
        if let Err(e) = self.ops[i].absorb(lib, st, reply) {
            self.err[i] = Some(e);
        }
    }

    /// Whether chain `i` still has work (and no recorded outcome).
    fn active(&self, i: usize) -> bool {
        self.err[i].is_none() && self.done[i].is_none()
    }

    /// Builds one request serving both chains, when their frontiers allow
    /// it: same directory and either one remainder a prefix of the other
    /// (shared chain — the identical-remainder case included) or the same
    /// next single lookup. Returns the request plus whether it is a chain
    /// (unbatchable). Both ops' pending states are armed to absorb the
    /// shared reply.
    fn dedup_request(&mut self, lib: &ClientLib) -> Option<((ServerId, Request), bool)> {
        let (d0, r0) = self.ops[0].frontier();
        let (d1, r1) = self.ops[1].frontier();
        if d0 != d1 || r0.is_empty() || r1.is_empty() {
            return None;
        }
        let chain = [self.ops[0].would_chain(lib), self.ops[1].would_chain(lib)];
        let (short, long) = if r0.len() <= r1.len() { (0, 1) } else { (1, 0) };
        let prefix_len = if r0.len() <= r1.len() {
            r1.starts_with(r0).then_some(r0.len())
        } else {
            r0.starts_with(r1).then_some(r1.len())
        };
        if let (Some(upto), [true, true]) = (prefix_len, chain) {
            // Shared-prefix chain: one LookupPath over the common prefix
            // (the shorter remainder in full); the longer chain absorbs
            // the same entries and continues with its own suffix.
            debug_assert!(upto >= 2, "would_chain requires 2+ remaining");
            let req = self.ops[short].chain_request(lib, upto);
            self.ops[long].pending = Pending::Chain { upto };
            return Some((req, true));
        }
        if let ([true, true], None) = (chain, prefix_len) {
            // Diverging suffixes that still share a leading run of 2+
            // components (e.g. rename("a/b/c/x", "a/b/c/y/z")): chain the
            // shared prefix once and split there. With hashed dentry
            // placement a k-component prefix expects 1 + (k-1)(1 - 1/n)
            // distinct server runs, so resolving it twice would forward
            // through ~2x the servers; one shared chain halves that, and
            // both suffixes still resolve (overlapped) next round.
            let upto = r0.iter().zip(r1).take_while(|(a, b)| a == b).count();
            if upto >= 2 {
                let req = self.ops[short].chain_request(lib, upto);
                self.ops[long].pending = Pending::Chain { upto };
                return Some((req, true));
            }
        }
        if chain == [false, false] && r0[0] == r1[0] {
            // Both chains next ask the same single lookup.
            let req = self.ops[short].single_request(lib);
            debug_assert!(matches!(self.ops[short].pending, Pending::Single));
            self.ops[long].single_once = false;
            self.ops[long].pending = Pending::Single;
            return Some((req, false));
        }
        // Mixed chain/single frontiers (or suffixes diverging on the first
        // or second component): resolving them independently overlaps in
        // one round; a forced shared prefix would serialize an extra round
        // for no message saving.
        None
    }
}

impl MultiStepOp for PairResolveOp<'_> {
    type Out = (DirRef, DirRef);

    fn step(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<(DirRef, DirRef)>> {
        if let Some(rs) = replies {
            let mut it = rs.into_iter();
            if self.dedup {
                let r = it.next().ok_or(Errno::EIO)?;
                self.absorb_into(0, lib, st, r.clone());
                self.absorb_into(1, lib, st, r);
            } else {
                for i in 0..2 {
                    if self.in_flight[i] {
                        let r = it.next().ok_or(Errno::EIO)?;
                        self.absorb_into(i, lib, st, r);
                    }
                }
            }
            self.in_flight = [false, false];
            self.dedup = false;
        }

        // Advance both chains through the directory cache first, so the
        // frontiers compared below are the real next requests.
        for i in 0..2 {
            if !self.active(i) {
                continue;
            }
            match self.ops[i].advance_cached(lib, st) {
                Ok(true) => self.done[i] = Some(self.ops[i].cur),
                Ok(false) => {}
                Err(e) => self.err[i] = Some(e),
            }
        }

        let mut reqs: Vec<(ServerId, Request)> = Vec::with_capacity(2);
        let mut unbatchable = false;
        if self.active(0) && self.active(1) {
            if let Some((req, chain)) = self.dedup_request(lib) {
                self.dedup = true;
                self.in_flight = [true, true];
                unbatchable = chain;
                reqs.push(req);
            }
        }
        if reqs.is_empty() {
            for i in 0..2 {
                if !self.active(i) {
                    continue;
                }
                let req = if self.ops[i].would_chain(lib) {
                    let upto = self.ops[i].chain_len(lib);
                    self.ops[i].chain_request(lib, upto)
                } else {
                    self.ops[i].single_request(lib)
                };
                unbatchable = unbatchable || self.ops[i].pending_unbatchable();
                reqs.push(req);
                self.in_flight[i] = true;
            }
        }

        if reqs.is_empty() {
            if let Some(e) = self.err[0] {
                return Err(e);
            }
            if let Some(e) = self.err[1] {
                return Err(e);
            }
            let (a, b) = (self.done[0], self.done[1]);
            return Ok(Next::Done((a.ok_or(Errno::EIO)?, b.ok_or(Errno::EIO)?)));
        }
        Ok(Next::Run(if unbatchable {
            Step::Overlapped(reqs)
        } else {
            Step::Grouped(reqs)
        }))
    }
}
