//! The simulated machine: clocks, topology, shared DRAM, private caches.
//!
//! ## Virtual-time model
//!
//! Two kinds of time are tracked:
//!
//! * **Entity timelines** ([`Entity`]): each client library, file server,
//!   and scheduling server has a logical clock that advances with its own
//!   work *and* with waiting (an RPC reply moves the caller's timeline to
//!   the reply's delivery time). A saturated server delays completions by
//!   its accumulated service since the last phase barrier (see
//!   `Server::serve`), which is what makes a hot server a queueing
//!   bottleneck.
//! * **Per-core busy counters** ([`Machine::busy`]): CPU cycles actually
//!   executed on each core. Waiting is *not* busy: while a client polls
//!   for a reply, the other entities time-sharing its core run — exactly
//!   the overlap the paper's timeshare configuration relies on (§5.3.2).
//!
//! A run's virtual duration is `max(latest timeline, busiest core)`:
//! latency-bound executions are limited by their critical path, and
//! throughput-bound executions by the most-loaded core.

use crate::config::HareConfig;
use nccmem::{Dram, PrivateCache};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vtime::{Clocks, CostModel, Distance, Topology};

/// One schedulable entity's logical clock, bound to a core.
///
/// Thread-safe: entities belonging to a process are driven by that
/// process's thread, but spawn plumbing may touch them from elsewhere.
#[derive(Debug)]
pub struct Entity {
    /// The core this entity runs on.
    pub core: usize,
    now: AtomicU64,
}

impl Entity {
    /// A fresh entity starting at logical time `start`.
    pub fn new(core: usize, start: u64) -> Entity {
        Entity {
            core,
            now: AtomicU64::new(start),
        }
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Executes `cycles` of CPU work: advances the timeline and the core's
    /// busy counter.
    pub fn work(&self, machine: &Machine, cycles: u64) -> u64 {
        machine.busy.advance(self.core, cycles);
        let t = self.now.fetch_add(cycles, Ordering::SeqCst) + cycles;
        machine.note(t);
        t
    }

    /// Waits (without consuming CPU) until logical time `t`.
    pub fn wait_until(&self, machine: &Machine, t: u64) -> u64 {
        let now = self.now.fetch_max(t, Ordering::SeqCst).max(t);
        machine.note(now);
        now
    }
}

/// Shared hardware state of one simulated non-cache-coherent machine.
///
/// Everything an entity (client library, file server, scheduling server)
/// touches lives here: the per-core busy counters, the NUMA topology, the
/// cost model, the shared DRAM holding the buffer cache, and the per-core
/// private caches. Entities on the same core time-share it: the machine
/// tracks how many entities are resident per core so message handling can
/// charge context switches only when a core actually multiplexes (the
/// paper's timeshare vs. split distinction, §5.3.2/§5.3.3).
pub struct Machine {
    /// Per-core busy-cycle counters.
    pub busy: Clocks,
    /// Latest entity timeline observed anywhere on the machine.
    timeline: AtomicU64,
    /// Virtual time of the last phase barrier (servers anchor their
    /// service accumulation here).
    sync_time: AtomicU64,
    /// NUMA layout.
    pub topology: Topology,
    /// Cost constants.
    pub cost: CostModel,
    /// Shared DRAM (the buffer cache's backing store).
    pub dram: Dram,
    /// Per-core private caches. Locked because several simulated processes
    /// time-share a core; the lock models exclusive use of the core's cache
    /// by whoever is running.
    caches: Vec<Mutex<PrivateCache>>,
    /// Machine-wide message counters.
    pub msg_stats: Arc<msg::MsgStats>,
    /// Number of runnable entities resident on each core.
    entities: Vec<AtomicUsize>,
    /// Operations served per file server — the machine-level mirror of the
    /// servers' own op counters, readable without an RPC (diagnostics).
    /// The protocol-level view travels as `Request::LoadReport`.
    server_ops: Vec<AtomicU64>,
    /// Event counters for the time-series observability layer.
    pub events: EventCounters,
    /// Per-operation causal span recorder ([`crate::otrace`]); a no-op
    /// unless the config enabled `trace_ops`.
    pub otrace: crate::otrace::Tracer,
}

/// Monotone counters for the rare-but-interesting events the time-series
/// observability layer (`crate::metrics`) windows over virtual time:
/// directory migrations committing, cache-invalidation notices sent,
/// readahead stripe fetches issued, `NotOwner` redirect bounces answered,
/// and parked operations replayed. Like [`Machine::server_ops`] these are
/// machine-level mirrors readable without an RPC — the protocol itself
/// never consults them.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Directory migrations committed (`MigrateCommit` applied).
    pub migrations: AtomicU64,
    /// Invalidation notices sent to registered sharers.
    pub invalidations: AtomicU64,
    /// Stripe fetches issued ahead of the requested range.
    pub readaheads: AtomicU64,
    /// `Reply::NotOwner` redirects answered to stale-routed clients (each
    /// costs the client one extra exchange before it folds the redirect).
    pub not_owner_bounces: AtomicU64,
    /// Operations replayed after parking behind an rmdir deletion mark or
    /// a migration copy window.
    pub park_replays: AtomicU64,
}

impl EventCounters {
    /// Snapshot as `(migrations, invalidations, readaheads,
    /// not_owner_bounces, park_replays)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.migrations.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
            self.readaheads.load(Ordering::Relaxed),
            self.not_owner_bounces.load(Ordering::Relaxed),
            self.park_replays.load(Ordering::Relaxed),
        )
    }
}

impl Machine {
    /// Builds the machine described by `cfg`.
    pub fn new(cfg: &HareConfig) -> Arc<Machine> {
        Arc::new(Machine {
            busy: Clocks::new(cfg.ncores),
            timeline: AtomicU64::new(0),
            sync_time: AtomicU64::new(0),
            topology: cfg.topology,
            cost: cfg.cost,
            dram: Dram::new(cfg.dram_blocks),
            caches: (0..cfg.ncores)
                .map(|_| Mutex::new(PrivateCache::new(cfg.cache_blocks)))
                .collect(),
            msg_stats: msg::MsgStats::shared(),
            entities: (0..cfg.ncores).map(|_| AtomicUsize::new(0)).collect(),
            server_ops: cfg.server_cores.iter().map(|_| AtomicU64::new(0)).collect(),
            events: EventCounters::default(),
            otrace: crate::otrace::Tracer::new(cfg.trace_ops),
        })
    }

    /// Records one operation served by file server `server`.
    pub fn record_server_op(&self, server: crate::types::ServerId) {
        self.server_ops[server as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of operations served per file server.
    pub fn server_ops(&self) -> Vec<u64> {
        self.server_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.entities.len()
    }

    /// Registers a runnable entity on `core`.
    pub fn register_entity(&self, core: usize) {
        self.entities[core].fetch_add(1, Ordering::SeqCst);
    }

    /// Removes a runnable entity from `core`.
    pub fn unregister_entity(&self, core: usize) {
        self.entities[core].fetch_sub(1, Ordering::SeqCst);
    }

    /// True when `core` hosts more than one entity, so an incoming message
    /// costs a context switch (paper §5.3.3 measures this at ~1500 cycles
    /// per switch for the same-core rename case).
    pub fn timeshared(&self, core: usize) -> bool {
        self.entities[core].load(Ordering::SeqCst) > 1
    }

    /// Message latency between two cores.
    pub fn latency(&self, from: usize, to: usize) -> u64 {
        self.cost.latency(self.topology.distance(from, to))
    }

    /// Distance class between two cores.
    pub fn distance(&self, from: usize, to: usize) -> Distance {
        self.topology.distance(from, to)
    }

    /// Runs `f` with exclusive access to `core`'s private cache.
    pub fn with_cache<R>(&self, core: usize, f: impl FnOnce(&mut PrivateCache, &Dram) -> R) -> R {
        let mut guard = self.caches[core].lock();
        f(&mut guard, &self.dram)
    }

    /// Aggregated private-cache statistics over all cores.
    pub fn cache_stats(&self) -> nccmem::CacheStats {
        self.caches
            .iter()
            .fold(Default::default(), |acc, c| acc.merged(c.lock().stats()))
    }

    /// Publishes an entity timeline value to the machine-wide maximum.
    pub fn note(&self, t: u64) {
        self.timeline.fetch_max(t, Ordering::SeqCst);
    }

    /// Virtual runtime so far: the later of the latest entity timeline and
    /// the busiest core's executed cycles.
    pub fn elapsed_cycles(&self) -> u64 {
        self.busy
            .max_time()
            .max(self.timeline.load(Ordering::SeqCst))
    }

    /// Phase barrier: raises every busy counter and the timeline to the
    /// current virtual runtime, so work after the barrier cannot overlap
    /// work before it.
    pub fn sync(&self) -> u64 {
        let t = self.elapsed_cycles();
        for core in 0..self.ncores() {
            self.busy.observe(core, t);
        }
        self.timeline.fetch_max(t, Ordering::SeqCst);
        self.sync_time.fetch_max(t, Ordering::SeqCst);
        t
    }

    /// Virtual time of the last phase barrier.
    pub fn sync_time(&self) -> u64 {
        self.sync_time.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Arc<Machine> {
        Machine::new(&HareConfig::timeshare(4))
    }

    #[test]
    fn entity_accounting() {
        let m = machine();
        assert!(!m.timeshared(0));
        m.register_entity(0);
        assert!(!m.timeshared(0));
        m.register_entity(0);
        assert!(m.timeshared(0));
        m.unregister_entity(0);
        assert!(!m.timeshared(0));
    }

    #[test]
    fn latency_uses_topology() {
        let m = Machine::new(&HareConfig::timeshare(40));
        assert_eq!(m.latency(0, 0), m.cost.lat_same_core);
        assert_eq!(m.latency(0, 5), m.cost.lat_same_socket);
        assert_eq!(m.latency(0, 15), m.cost.lat_cross_socket);
    }

    #[test]
    fn private_caches_are_per_core() {
        let m = machine();
        m.with_cache(0, |c, d| {
            c.write(d, nccmem::BlockId(0), 0, &[1]);
        });
        // Core 1 sees DRAM (zeros), not core 0's dirty private copy.
        let v = m.with_cache(1, |c, d| {
            let mut b = [0u8];
            c.read(d, nccmem::BlockId(0), 0, &mut b);
            b[0]
        });
        assert_eq!(v, 0);
    }
}
