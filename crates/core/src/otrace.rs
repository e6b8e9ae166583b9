//! Per-operation causal tracing: span trees across chains, replicas, and
//! migrations.
//!
//! Every hard regression gate in this repo is an exchange count, but an
//! aggregate RPCs/op number cannot say *which* hop, redirect,
//! invalidation, or park/replay spent the message. This module attributes
//! every send to a node in a per-operation **span tree**:
//!
//! * A client operation ([`fsapi::ProcFs`] call) opens a **root span**.
//! * Every request send allocates a compact [`SpanCtx`] — root op id,
//!   parent span id, child position, and a [`Cause`] tag — that travels on
//!   the [`crate::proto::ServerMsg`] envelope.
//! * The receiving server opens a **child span** from that context and
//!   charges the sends *it* issues (reply, chain forward, invalidations,
//!   replica callbacks) to it; continuations — chained `LookupPath`
//!   forwards, migration/rmdir park-and-replay, replica installs — open
//!   further children, so the whole causal history of one operation is
//!   mechanically reconstructable.
//!
//! The sum of `sends` over a finished tree is exactly the number of
//! [`msg`]-layer sends the operation caused: a span charges a send if and
//! only if the underlying [`msg::Sender::send`] succeeded (the only case
//! [`msg::MsgStats`] counts). That identity is pinned by tests and lets
//! span trees *prove* the committed RPCs/op baselines.
//!
//! Tracing is config-gated ([`crate::HareConfig::trace_ops`], default
//! off). Disabled, every entry point returns before touching the lock or
//! allocating, and no span context travels — the system is byte-for-byte
//! the untraced one (sends-parity pinned in `tests/otrace.rs`).
//!
//! Finished trees serialize two ways: deterministically ordered Chrome
//! trace-event JSON ([`Tracer::to_chrome_json`], loadable in Perfetto) and
//! an indented per-op text rendering ([`SpanNode::render`], the perf
//! gate's `--explain` output). See `docs/tracing.md` for how to read them.

use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a message was sent — the edge label between a span and its parent.
///
/// The tag is chosen by the *sender*: the client's engine knows whether a
/// send is a first resolution attempt or a redirect retry, the server
/// knows whether a send is a chain hop or a replica invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// A client-side operation span (the root of a tree, or an operation
    /// nested inside another operation).
    Op,
    /// A plain request/reply exchange with no more specific cause (data
    /// plane, descriptor control, load reports).
    Rpc,
    /// A name-resolution exchange (`Lookup*`, `LookupPath`, `ListShard`).
    Resolve,
    /// A server-to-server hand-off of a chained `LookupPath` remainder,
    /// or a one-way structural peer callback riding the same fabric.
    ChainHop,
    /// A post-resolution terminal operation on the inode server
    /// (`OpenInode`, `StatInode`, `Create`), including the fused terminal
    /// half executed locally by the last chain server.
    Terminal,
    /// A retry after a `NotOwner` redirect was folded into the routing
    /// table (placement moved under the client).
    Redirect,
    /// A read routed to a replica-set member instead of the home.
    ReplicaRead,
    /// A cache-invalidation notice (dircache callback or replica
    /// write-through invalidation).
    Inval,
    /// A replay of an operation that parked behind an rmdir deletion mark
    /// or a migration copy window.
    ParkReplay,
    /// A retry after a transient `EAGAIN` refusal.
    Retry,
    /// A stripe fetch issued ahead of the requested byte range.
    Readahead,
    /// An entry riding a coalesced `Batch` envelope.
    BatchRide,
}

impl Cause {
    /// Stable lower-case name (serialization and rendering).
    pub fn name(self) -> &'static str {
        match self {
            Cause::Op => "op",
            Cause::Rpc => "rpc",
            Cause::Resolve => "resolve",
            Cause::ChainHop => "chain_hop",
            Cause::Terminal => "terminal",
            Cause::Redirect => "redirect",
            Cause::ReplicaRead => "replica_read",
            Cause::Inval => "inval",
            Cause::ParkReplay => "park_replay",
            Cause::Retry => "retry",
            Cause::Readahead => "readahead",
            Cause::BatchRide => "batch_ride",
        }
    }
}

/// The compact span context a request send carries on its
/// [`crate::proto::ServerMsg`] envelope: enough for the receiver to
/// attach its own span at the right place in the right tree.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Root operation id of the tree this message belongs to.
    pub op: u64,
    /// Global id of the parent span (the sender's open span).
    pub parent: u64,
    /// Position among the parent's children (allocated at send time, so
    /// sibling order is the causal send order).
    pub idx: u32,
    /// Why the message was sent.
    pub cause: Cause,
}

/// One recorded span.
struct Span {
    op: u64,
    /// Parent span id; 0 for a root.
    parent: u64,
    /// Position among the parent's children.
    idx: u32,
    cause: Cause,
    label: &'static str,
    core: usize,
    start: u64,
    end: u64,
    /// Successful [`msg`]-layer sends this span itself issued.
    sends: u64,
    /// Next child position to hand out.
    next_child: u32,
    open: bool,
}

#[derive(Default)]
struct Inner {
    /// Next global span id (0 is reserved for "no parent").
    next_id: u64,
    /// Highest span id discarded by the last [`Tracer::reset`].
    reset_below: u64,
    /// Next root operation id.
    next_op: u64,
    spans: HashMap<u64, Span>,
    /// Root span ids in operation order.
    roots: Vec<u64>,
}

impl Inner {
    fn alloc(&mut self, span: Span) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spans.insert(id, span);
        id
    }

    /// The recorded span `id`, or `None` if a reset discarded it: what a
    /// server does after sending its reply (charging it, invalidations,
    /// closing its span) races with the woken client's
    /// [`Tracer::reset`], and is dropped with the span.
    fn span(&mut self, id: u64) -> Option<&mut Span> {
        let reset_below = self.reset_below;
        let s = self.spans.get_mut(&id);
        assert!(s.is_some() || id <= reset_below, "span {id} recorded");
        s
    }

    fn next_idx(&mut self, parent: u64) -> Option<u32> {
        let p = self.span(parent)?;
        p.next_child += 1;
        Some(p.next_child - 1)
    }
}

// Per-thread bookkeeping. A simulated process (and each server loop) is a
// single thread of control, so "the span whose work this thread is doing
// right now" is exactly a stack. Entries carry the owning tracer's
// instance id so two traced machines in one test process cannot charge
// each other's spans.
thread_local! {
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TAG: Cell<Option<Cause>> = const { Cell::new(None) };
}

/// Tracer instance ids (disambiguate thread-local stack entries when one
/// OS thread touches several traced machines).
static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

/// The per-machine span recorder. Lives on [`crate::Machine`] as
/// `otrace`; shared by the client libraries and the servers (the
/// simulation is one process, so no distributed reassembly is needed —
/// the [`SpanCtx`] on the wire only tells the receiver *where to attach*).
pub struct Tracer {
    enabled: bool,
    tid: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(enabled={})", self.enabled)
    }
}

impl Tracer {
    /// Builds a tracer. Disabled, every method is a no-op returning
    /// before any lock or allocation.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            tid: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Innermost open span owned by this tracer on the current thread.
    fn cur(&self) -> Option<u64> {
        STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _)| *t == self.tid)
                .map(|(_, id)| *id)
        })
    }

    fn push(&self, id: u64) {
        STACK.with(|s| s.borrow_mut().push((self.tid, id)));
    }

    /// Pops this tracer's innermost stack entry and returns it.
    fn pop(&self) -> Option<u64> {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let pos = s.iter().rposition(|(t, _)| *t == self.tid)?;
            Some(s.remove(pos).1)
        })
    }

    // ----- Client-side: operations and request sends ---------------------

    /// Opens an operation span on the current thread. The first (only, in
    /// practice) non-nested call opens a **root**; an operation invoked
    /// from inside another traced operation nests as a child.
    pub fn begin_op(&self, label: &'static str, core: usize, now: u64) {
        if !self.enabled {
            return;
        }
        TAG.set(None);
        let parent = self.cur();
        let mut inner = self.inner.lock();
        let span = match parent {
            Some(p) => {
                let op = inner.spans[&p].op;
                let idx = inner.next_idx(p).expect("parent span recorded");
                Span {
                    op,
                    parent: p,
                    idx,
                    cause: Cause::Op,
                    label,
                    core,
                    start: now,
                    end: now,
                    sends: 0,
                    next_child: 0,
                    open: true,
                }
            }
            None => {
                inner.next_op += 1;
                Span {
                    op: inner.next_op,
                    parent: 0,
                    idx: 0,
                    cause: Cause::Op,
                    label,
                    core,
                    start: now,
                    end: now,
                    sends: 0,
                    next_child: 0,
                    open: true,
                }
            }
        };
        let root = span.parent == 0;
        let id = inner.alloc(span);
        if root {
            inner.roots.push(id);
        }
        drop(inner);
        self.push(id);
    }

    /// Closes the current operation span.
    pub fn end_op(&self, now: u64) {
        if !self.enabled {
            return;
        }
        TAG.set(None);
        self.end_span(now);
    }

    /// Overrides the [`Cause`] of the *next* [`Tracer::send_ctx`] on this
    /// thread — how retry/redirect/replica/readahead decision points tag
    /// the send they are about to cause without threading a value through
    /// the transport layers.
    pub fn tag_next(&self, cause: Cause) {
        if !self.enabled {
            return;
        }
        TAG.set(Some(cause));
    }

    /// Allocates the span context for a request send from the current
    /// span: charges the send to it and hands out the next child
    /// position. `None` (attach nothing, charge nothing) when tracing is
    /// off or no operation is open — registration and raw test traffic
    /// stays outside every tree.
    pub fn send_ctx(&self, default_cause: Cause) -> Option<SpanCtx> {
        if !self.enabled {
            return None;
        }
        let parent = self.cur()?;
        let cause = TAG.take().unwrap_or(default_cause);
        let mut inner = self.inner.lock();
        let idx = inner.next_idx(parent)?;
        let p = inner.span(parent)?;
        p.sends += 1;
        Some(SpanCtx {
            op: p.op,
            parent,
            idx,
            cause,
        })
    }

    /// Charges one successful send (a reply, a parked-op wake) to the
    /// current span.
    pub fn charge_send(&self) {
        if !self.enabled {
            return;
        }
        let Some(id) = self.cur() else { return };
        if let Some(s) = self.inner.lock().span(id) {
            s.sends += 1;
        }
    }

    /// Records a zero-width child of the current span that issued exactly
    /// one send — invalidation notices, which carry no span context and
    /// get no reply.
    pub fn leaf_send(&self, cause: Cause, label: &'static str, core: usize, now: u64) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.cur() else { return };
        let mut inner = self.inner.lock();
        let Some(idx) = inner.next_idx(parent) else {
            return;
        };
        let op = inner.spans[&parent].op;
        inner.alloc(Span {
            op,
            parent,
            idx,
            cause,
            label,
            core,
            start: now,
            end: now,
            sends: 1,
            next_child: 0,
            open: false,
        });
    }

    // ----- Server-side: child spans from received contexts ---------------

    /// Opens a span from a received [`SpanCtx`] (the server side of a
    /// request). Returns whether a span was opened — the caller must pair
    /// a `true` with exactly one [`Tracer::end_span`].
    pub fn begin_from(
        &self,
        ctx: Option<SpanCtx>,
        label: &'static str,
        core: usize,
        now: u64,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(ctx) = ctx else { return false };
        let mut inner = self.inner.lock();
        let id = inner.alloc(Span {
            op: ctx.op,
            parent: ctx.parent,
            idx: ctx.idx,
            cause: ctx.cause,
            label,
            core,
            start: now,
            end: now,
            sends: 0,
            next_child: 0,
            open: true,
        });
        drop(inner);
        self.push(id);
        true
    }

    /// Opens a local child of the current span (a fused terminal executed
    /// in place, a batch entry) — no message travels, so the child runs on
    /// the same core and starts no earlier than its parent (`now` is
    /// clamped up to the parent's start; pass 0 where no finer time is at
    /// hand). Returns whether a span was opened (pair `true` with
    /// [`Tracer::end_span`]).
    pub fn begin_local(&self, cause: Cause, label: &'static str, core: usize, now: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(parent) = self.cur() else {
            return false;
        };
        let mut inner = self.inner.lock();
        let idx = inner.next_idx(parent).expect("parent span recorded");
        let p = &inner.spans[&parent];
        let (op, start) = (p.op, p.start.max(now));
        let id = inner.alloc(Span {
            op,
            parent,
            idx,
            cause,
            label,
            core,
            start,
            end: start,
            sends: 0,
            next_child: 0,
            open: true,
        });
        drop(inner);
        self.push(id);
        true
    }

    /// Closes the current span at `now` (clamped forward to its start).
    pub fn end_span(&self, now: u64) {
        if !self.enabled {
            return;
        }
        let Some(id) = self.pop() else { return };
        if let Some(s) = self.inner.lock().span(id) {
            s.end = now.max(s.start);
            s.open = false;
        }
    }

    /// Records a zero-send leaf marking that a request parked behind a
    /// deletion mark or migration window, consuming the parked context's
    /// child position. The eventual replay re-attaches at a fresh
    /// position via [`Tracer::replay_ctx`], so one tree shows both the
    /// wait and the work.
    pub fn park_leaf(&self, ctx: Option<SpanCtx>, core: usize, now: u64) {
        if !self.enabled {
            return;
        }
        let Some(ctx) = ctx else { return };
        let mut inner = self.inner.lock();
        inner.alloc(Span {
            op: ctx.op,
            parent: ctx.parent,
            idx: ctx.idx,
            cause: ctx.cause,
            label: "(parked)",
            core,
            start: now,
            end: now,
            sends: 0,
            next_child: 0,
            open: false,
        });
    }

    /// Re-contexts a parked request for replay: same tree, same parent,
    /// fresh child position, [`Cause::ParkReplay`]. The parent span may
    /// long be closed — its child counter outlives it.
    pub fn replay_ctx(&self, ctx: Option<SpanCtx>) -> Option<SpanCtx> {
        if !self.enabled {
            return None;
        }
        let ctx = ctx?;
        let idx = self.inner.lock().next_idx(ctx.parent)?;
        Some(SpanCtx {
            op: ctx.op,
            parent: ctx.parent,
            idx,
            cause: Cause::ParkReplay,
        })
    }

    // ----- Reading the record --------------------------------------------

    /// Number of spans still open (must be 0 once every operation and
    /// server is quiesced — the span-leak assertion).
    pub fn open_spans(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        self.inner.lock().spans.values().filter(|s| s.open).count()
    }

    /// Number of recorded root operations.
    pub fn op_count(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        self.inner.lock().roots.len()
    }

    /// Drops every recorded span (measurement phases that only want their
    /// own window).
    pub fn reset(&self) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        inner.spans.clear();
        inner.roots.clear();
        inner.reset_below = inner.next_id;
        // Ids keep counting: contexts minted before the reset must not
        // collide with spans recorded after it.
    }

    /// Assembled span trees, one per recorded root operation, in
    /// operation order; children in child-position (causal send) order.
    /// The assembly is deterministic however server threads interleaved.
    pub fn op_trees(&self) -> Vec<SpanNode> {
        if !self.enabled {
            return Vec::new();
        }
        let inner = self.inner.lock();
        let mut kids: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
        for (id, s) in &inner.spans {
            if s.parent != 0 {
                kids.entry(s.parent).or_default().push((s.idx, *id));
            }
        }
        for v in kids.values_mut() {
            v.sort_unstable();
        }
        fn build(inner: &Inner, kids: &HashMap<u64, Vec<(u32, u64)>>, id: u64) -> SpanNode {
            let s = &inner.spans[&id];
            SpanNode {
                cause: s.cause,
                label: s.label,
                core: s.core,
                start: s.start,
                end: s.end,
                sends: s.sends,
                children: kids
                    .get(&id)
                    .map(|v| v.iter().map(|(_, c)| build(inner, kids, *c)).collect())
                    .unwrap_or_default(),
            }
        }
        inner
            .roots
            .iter()
            .map(|r| build(&inner, &kids, *r))
            .collect()
    }

    /// The root operations whose span tree *ended* in `[start, end)`, as
    /// `(label, total sends, duration)` triples, costliest first (ties:
    /// earlier start, then operation order) — the per-window top-K
    /// expensive-ops feed for [`crate::metrics::TimeSeries`].
    pub fn window_top_ops(&self, start: u64, end: u64, k: usize) -> Vec<(String, u64, u64)> {
        if !self.enabled {
            return Vec::new();
        }
        let mut ops: Vec<(u64, u64, u64, String)> = self
            .op_trees()
            .into_iter()
            .filter(|t| t.end >= start && t.end < end)
            .map(|t| (t.total_sends(), t.start, t.end, t.label.to_string()))
            .collect();
        ops.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ops.truncate(k);
        ops.into_iter()
            .map(|(sends, s, e, label)| (label, sends, e - s))
            .collect()
    }

    /// The costliest recorded operation's text rendering, if any.
    pub fn explain_worst(&self) -> Option<String> {
        self.op_trees()
            .into_iter()
            .max_by_key(|t| t.total_sends())
            .map(|t| t.render())
    }

    /// Serializes every recorded tree to Chrome trace-event JSON
    /// (Perfetto-loadable): one complete (`"ph":"X"`) event per span,
    /// `ts`/`dur` in virtual cycles, `pid` = operation number, `tid` =
    /// core. Events are emitted in deterministic DFS order with serially
    /// renumbered ids, so the same workload replayed yields byte-identical
    /// output regardless of thread interleaving.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut serial = 0u64;
        let mut first = true;
        for (opno, tree) in self.op_trees().iter().enumerate() {
            emit_chrome(tree, opno as u64 + 1, 0, &mut serial, &mut first, &mut out);
        }
        out.push_str("]}");
        out
    }
}

fn emit_chrome(
    n: &SpanNode,
    pid: u64,
    parent: u64,
    serial: &mut u64,
    first: &mut bool,
    out: &mut String,
) {
    *serial += 1;
    let id = *serial;
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"sends\":{}}}}}",
        n.label,
        n.cause.name(),
        n.start,
        n.end - n.start,
        pid,
        n.core,
        id,
        parent,
        n.sends
    );
    for c in &n.children {
        emit_chrome(c, pid, id, serial, first, out);
    }
}

/// One node of an assembled span tree (the public, read-only view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Why the span's message (or operation) happened.
    pub cause: Cause,
    /// Request or operation name.
    pub label: &'static str,
    /// Core the span's work ran on.
    pub core: usize,
    /// Virtual start time (cycles).
    pub start: u64,
    /// Virtual end time (cycles).
    pub end: u64,
    /// Successful sends this span itself issued.
    pub sends: u64,
    /// Children in causal send order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total sends over the whole subtree — for a finished root, exactly
    /// the [`msg`]-layer sends the operation caused.
    pub fn total_sends(&self) -> u64 {
        self.sends + self.children.iter().map(|c| c.total_sends()).sum::<u64>()
    }

    /// Maximum node depth (a root alone is 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// The tree's cause tags in depth-first order — the compact shape
    /// tests pin.
    pub fn causes(&self) -> Vec<Cause> {
        let mut out = vec![self.cause];
        for c in &self.children {
            out.extend(c.causes());
        }
        out
    }

    /// Indented text rendering (the `explain` format):
    ///
    /// ```text
    /// stat  op  core=0  vt=[120..980]  sends=2  total=8
    ///   LookupPath  resolve  core=1  vt=[200..400]  sends=1
    ///     LookupPath  chain_hop  core=2  vt=[450..600]  sends=1
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{}  {}  core={}  vt=[{}..{}]  sends={}",
            self.label,
            self.cause.name(),
            self.core,
            self.start,
            self.end,
            self.sends
        );
        if depth == 0 {
            let _ = write!(out, "  total={}", self.total_sends());
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.begin_op("stat", 0, 0);
        assert!(t.send_ctx(Cause::Resolve).is_none());
        t.charge_send();
        t.end_op(10);
        assert_eq!(t.op_count(), 0);
        assert_eq!(t.open_spans(), 0);
        assert!(t.op_trees().is_empty());
    }

    #[test]
    fn root_child_and_leaf_assemble_in_send_order() {
        let t = Tracer::new(true);
        t.begin_op("open", 3, 100);
        let c1 = t.send_ctx(Cause::Resolve).unwrap();
        let c2 = t.send_ctx(Cause::Terminal).unwrap();
        assert_eq!((c1.idx, c2.idx), (0, 1));
        // "Server" side, out of order: the terminal first.
        assert!(t.begin_from(Some(c2), "OpenInode", 1, 300));
        t.charge_send();
        t.end_span(350);
        assert!(t.begin_from(Some(c1), "Lookup", 2, 150));
        t.charge_send();
        t.leaf_send(Cause::Inval, "inval", 2, 170);
        t.end_span(200);
        t.end_op(400);
        assert_eq!(t.open_spans(), 0);
        let trees = t.op_trees();
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.label, "open");
        assert_eq!(root.sends, 2);
        assert_eq!(root.total_sends(), 5);
        // Children come back in send order despite reversed processing.
        assert_eq!(root.children[0].label, "Lookup");
        assert_eq!(root.children[0].children[0].cause, Cause::Inval);
        assert_eq!(root.children[1].label, "OpenInode");
        assert_eq!(
            root.causes(),
            vec![Cause::Op, Cause::Resolve, Cause::Inval, Cause::Terminal]
        );
    }

    #[test]
    fn park_and_replay_share_a_parent() {
        let t = Tracer::new(true);
        t.begin_op("stat", 0, 0);
        let ctx = t.send_ctx(Cause::Resolve).unwrap();
        t.park_leaf(Some(ctx), 1, 50);
        let replay = t.replay_ctx(Some(ctx)).unwrap();
        assert_eq!(replay.cause, Cause::ParkReplay);
        assert!(replay.idx > ctx.idx);
        assert!(t.begin_from(Some(replay), "Lookup", 1, 90));
        t.charge_send();
        t.end_span(120);
        t.end_op(130);
        let trees = t.op_trees();
        assert_eq!(
            trees[0].causes(),
            vec![Cause::Op, Cause::Resolve, Cause::ParkReplay]
        );
        assert_eq!(trees[0].children[0].label, "(parked)");
        assert_eq!(trees[0].total_sends(), 2);
    }

    #[test]
    fn reply_charged_after_a_reset_is_dropped() {
        let t = Tracer::new(true);
        t.begin_op("stat", 0, 0);
        let ctx = t.send_ctx(Cause::Resolve).unwrap();
        t.end_op(10);
        // The server has sent its reply; the woken client resets before
        // the server charges that send.
        assert!(t.begin_from(Some(ctx), "Lookup", 1, 5));
        t.reset();
        t.charge_send();
        t.end_span(8);
        assert!(t.op_trees().is_empty());
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn chrome_json_is_deterministic_and_integer_only() {
        let t = Tracer::new(true);
        t.begin_op("readdir", 0, 10);
        let c = t.send_ctx(Cause::Resolve).unwrap();
        assert!(t.begin_from(Some(c), "ListShard", 1, 20));
        t.charge_send();
        t.end_span(40);
        t.end_op(50);
        let js = t.to_chrome_json();
        assert_eq!(js, t.to_chrome_json());
        assert!(js.starts_with("{\"displayTimeUnit\""));
        assert!(js.contains("\"name\":\"ListShard\""));
        assert!(js.contains("\"cat\":\"resolve\""));
        assert!(!js.contains('.'), "integer vtimes only: {js}");
    }

    #[test]
    fn two_tracers_on_one_thread_stay_separate() {
        let a = Tracer::new(true);
        let b = Tracer::new(true);
        a.begin_op("stat", 0, 0);
        b.begin_op("open", 1, 0);
        a.charge_send();
        b.charge_send();
        b.end_op(5);
        a.end_op(9);
        assert_eq!(a.op_trees()[0].label, "stat");
        assert_eq!(a.op_trees()[0].sends, 1);
        assert_eq!(b.op_trees()[0].label, "open");
        assert_eq!(b.op_trees()[0].sends, 1);
    }
}
