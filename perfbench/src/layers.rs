//! Reading the counters each layer already exposes, as deltas over the
//! measured region, and splitting message sends by cause.

use hare_core::{Cause, Machine, SpanNode};
use nccmem::CacheStats;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// One snapshot of the machine-level counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `msg`: sends on every channel of the machine.
    pub sends: u64,
    /// `msg`: requests that rode a coalesced batch envelope.
    pub batched: u64,
    /// `nccmem`: private-cache events summed over cores.
    pub cache: CacheStats,
    /// `server`: operations served, per server.
    pub server_ops: Vec<u64>,
    /// Executed cycles per core.
    pub busy: Vec<u64>,
    /// `placement` and `client::io` event counters.
    pub migrations: u64,
    pub invalidations: u64,
    pub readaheads: u64,
    pub bounces: u64,
    pub park_replays: u64,
}

impl Counters {
    pub fn read(m: &Machine) -> Counters {
        let ev = &m.events;
        Counters {
            sends: m.msg_stats.sends(),
            batched: m.msg_stats.batched_ops(),
            cache: m.cache_stats(),
            server_ops: m.server_ops(),
            busy: m.busy.snapshot(),
            migrations: ev.migrations.load(Ordering::Relaxed),
            invalidations: ev.invalidations.load(Ordering::Relaxed),
            readaheads: ev.readaheads.load(Ordering::Relaxed),
            bounces: ev.not_owner_bounces.load(Ordering::Relaxed),
            park_replays: ev.park_replays.load(Ordering::Relaxed),
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        let (c, b) = (&self.cache, &before.cache);
        Counters {
            sends: self.sends - before.sends,
            batched: self.batched - before.batched,
            cache: CacheStats {
                hits: c.hits - b.hits,
                misses: c.misses - b.misses,
                writes: c.writes - b.writes,
                writebacks: c.writebacks - b.writebacks,
                invalidations: c.invalidations - b.invalidations,
                evictions: c.evictions - b.evictions,
                dirty_evictions: c.dirty_evictions - b.dirty_evictions,
            },
            server_ops: sub(&self.server_ops, &before.server_ops),
            busy: sub(&self.busy, &before.busy),
            migrations: self.migrations - before.migrations,
            invalidations: self.invalidations - before.invalidations,
            readaheads: self.readaheads - before.readaheads,
            bounces: self.bounces - before.bounces,
            park_replays: self.park_replays - before.park_replays,
        }
    }
}

/// The causes message sends are split by, in report order.
pub const CAUSES: [Cause; 12] = [
    Cause::Op,
    Cause::Rpc,
    Cause::Resolve,
    Cause::ChainHop,
    Cause::Terminal,
    Cause::Redirect,
    Cause::ReplicaRead,
    Cause::Inval,
    Cause::ParkReplay,
    Cause::Retry,
    Cause::Readahead,
    Cause::BatchRide,
];

/// Whether `child` was opened by a request its parent sent (the parent's
/// span was charged for that send). Local children — nested operations,
/// fused terminals, batch entries, replays of parked requests — and
/// one-way invalidation leaves carry no such send.
fn request_born(parent: &SpanNode, child: &SpanNode) -> bool {
    if child.label == "(parked)" {
        return true;
    }
    let inval_leaf = child.cause == Cause::Inval
        && child.label == "inval"
        && child.children.is_empty()
        && child.sends == 1;
    let batch_entry = child.cause == Cause::BatchRide && parent.label == "Batch";
    !(matches!(child.cause, Cause::Op | Cause::ParkReplay)
        || inval_leaf
        || batch_entry
        || child.label == "fused_terminal")
}

/// Adds `tree`'s sends to `out` by cause: each request is charged to the
/// cause of the span it opened at the receiver, and every other send
/// (replies, forwards' replies, invalidation notices) to the cause of the
/// span that issued it. Returns the number of spans whose request-born
/// children outnumber their own sends (0 when the classification is
/// consistent).
pub fn sends_by_cause(tree: &SpanNode, out: &mut BTreeMap<&'static str, u64>) -> u64 {
    let mut own = tree.sends;
    let mut anomalies = 0;
    for c in &tree.children {
        if request_born(tree, c) {
            if own == 0 {
                anomalies += 1;
            } else {
                own -= 1;
                *out.entry(c.cause.name()).or_default() += 1;
            }
        }
        anomalies += sends_by_cause(c, out);
    }
    *out.entry(tree.cause.name()).or_default() += own;
    anomalies
}
