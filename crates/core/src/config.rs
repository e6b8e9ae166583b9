//! Hare instance configuration: core/server layout and technique toggles.

use vtime::{CostModel, Topology};

/// The five techniques the paper ablates in §5.4 (Figure 9), plus six
/// extensions this reproduction adds in the same spirit.
///
/// Each toggle removes one optimization while keeping the system correct,
/// which is exactly how the paper measures technique importance.
///
/// Not a toggle: the paper's §3.6.3 message coalescing is always extended
/// from `create` to *open-existing* and `stat`. The final component's
/// `Lookup` carries the stat/open it is for, and when the dentry shard
/// also stores the inode (the common case under creation affinity §3.6.4)
/// the server answers both in one round trip; a remote inode costs the
/// ordinary `StatInode`/`OpenInode` follow-up.
///
/// The extensions:
///
/// * `neg_dircache` extends the §3.6.1 directory cache to *negative*
///   entries: an ENOENT lookup result is cached and invalidated by the
///   server on a later ADD_MAP, so `O_CREAT` existence probes and
///   create-heavy workloads (mailbench) stop re-asking servers about names
///   known to be absent.
/// * `batching` is the batched RPC transport: independent requests bound
///   for the same server ship as one `Batch` message executed in order,
///   paying one message overhead (receive, reply send, context switch) for
///   the group. It vectorizes `readdir`'s per-shard fan-out, the
///   readdir+stat (`ls -l`) pattern, same-shard rename `AddMap`+`RmMap`
///   pairs, the rmdir mark/commit fan-out, write-behind `SetSize` flushes
///   on fsync, and client `Unregister` teardown.
/// * `chained_resolution` is server-side `LookupPath` chaining: on a cold
///   multi-component resolution the client sends the *whole remaining
///   path* to the first uncached component's shard server, which resolves
///   as many consecutive components as it owns and forwards the remainder
///   directly to the next owner; the final server answers the client.
///   Cold resolution of a deep path costs one message per *run* of
///   co-located components (plus the reply) instead of one round trip per
///   component. When off, the resolve loop walks component-by-component
///   exactly as the paper describes (§3.6.1).
/// * `fused_terminal` fuses the *terminal* operation into the chain: the
///   `LookupPath` carries what the walk was for (`stat`, `open`, or the
///   first shard of a `readdir` listing), and the server resolving the
///   final component executes it against its co-located inode shard and
///   replies directly — a cold deep `stat`/`open` whose shards align is
///   one end-to-end exchange. When the terminal inode lives elsewhere the
///   chain degrades to the resolved dentry and the client pays the
///   ordinary follow-up RPC. When off, the chain stops one component
///   short and the final component goes as its own single `Lookup`
///   carrying the stat/open (chain-then-call, one extra exchange).
/// * `rebalancing` is the dynamic placement subsystem (`crate::placement`):
///   epoch-versioned routing tables, live migration of a hot centralized
///   directory's dentry shard to the least-loaded server, and `NotOwner`
///   redirects that teach stale clients the new owner in one extra
///   exchange. When off, routing is the paper's fixed hash forever —
///   migration requests become no-ops and every pinned exchange count is
///   byte-for-byte the static system's (with it *on* but no migration
///   performed, the tables stay at epoch 0 and the counts are identical
///   too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Techniques {
    /// Directory distribution (§3.3): when off, every directory is
    /// centralized at its home server regardless of creation flags.
    pub distribution: bool,
    /// Directory broadcast (§3.6.2): when off, `readdir`/`rmdir` over a
    /// distributed directory issue sequential RPCs to each server instead of
    /// parallel fan-out.
    pub broadcast: bool,
    /// Direct buffer-cache access (§3.6, Figure 12): when off, file data
    /// moves through the file server by RPC instead of through shared DRAM.
    pub direct_access: bool,
    /// Directory-entry lookup cache with server invalidations (§3.6.1).
    pub dircache: bool,
    /// Creation affinity (§3.6.4): place a new file's inode on a server
    /// close to the creating core.
    pub affinity: bool,
    /// Negative directory-entry caching (extends §3.6.1): when off, every
    /// ENOENT miss re-probes the dentry shard. Requires `dircache`.
    pub neg_dircache: bool,
    /// Batched RPC transport: when off, requests that would share a
    /// `Batch` message to one server are issued as independent RPCs.
    pub batching: bool,
    /// Server-side `LookupPath` chaining for cold multi-component
    /// resolution: when off, the resolve loop issues one `Lookup` round
    /// trip per uncached component (the paper's §3.6.1 protocol).
    pub chained_resolution: bool,
    /// Terminal-op fusion for chained resolution: the final server of a
    /// `LookupPath` chain executes the stat/open (or lists its shard of
    /// the target directory) in the same exchange. When off, the final
    /// component's stat/open rides its own single `Lookup` instead. Inert
    /// without `chained_resolution`.
    pub fused_terminal: bool,
    /// The dynamic placement subsystem: when off, the rebalancer and the
    /// migration driver are no-ops and the routing tables stay at epoch 0
    /// (the paper's fixed hash) forever.
    pub rebalancing: bool,
    /// Read replication for hot shards: when off, clients route every
    /// read to the directory's home (replica selection short-circuits),
    /// the replication driver is a no-op, and — with no `ReplicaExport`
    /// ever driven — routing tables never grow a replica record, so
    /// behavior is byte-for-byte the unreplicated system. Writes are
    /// unaffected either way: they always serialize at the home.
    pub replication: bool,
}

impl Default for Techniques {
    /// All techniques enabled (the paper's normal configuration).
    fn default() -> Self {
        Techniques {
            distribution: true,
            broadcast: true,
            direct_access: true,
            dircache: true,
            affinity: true,
            neg_dircache: true,
            batching: true,
            chained_resolution: true,
            fused_terminal: true,
            rebalancing: true,
            replication: true,
        }
    }
}

impl Techniques {
    /// Returns the default set with one named technique disabled; used by
    /// the Figure 9–14 ablation harness.
    pub fn without(name: &str) -> Techniques {
        let mut t = Techniques::default();
        match name {
            "distribution" => t.distribution = false,
            "broadcast" => t.broadcast = false,
            "direct_access" => t.direct_access = false,
            "dircache" => {
                // The negative cache lives inside the directory cache.
                t.dircache = false;
                t.neg_dircache = false;
            }
            "affinity" => t.affinity = false,
            "neg_dircache" => t.neg_dircache = false,
            "batching" => t.batching = false,
            "chained_resolution" => t.chained_resolution = false,
            "fused_terminal" => t.fused_terminal = false,
            "rebalancing" => t.rebalancing = false,
            "replication" => t.replication = false,
            other => panic!("unknown technique {other:?}"),
        }
        t
    }
}

/// Placement policy for remote execution (paper §3.5: "our prototype
/// supports both a random and a round-robin policy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly random core.
    Random,
    /// Round-robin over cores, with the cursor propagated from parent to
    /// child.
    RoundRobin,
}

/// Full configuration of one simulated Hare machine.
#[derive(Debug, Clone)]
pub struct HareConfig {
    /// Total cores in the machine.
    pub ncores: usize,
    /// Cores that run a file server (one server per listed core).
    pub server_cores: Vec<usize>,
    /// Cores available to application processes.
    pub app_cores: Vec<usize>,
    /// NUMA layout.
    pub topology: Topology,
    /// Cost model for virtual-time accounting.
    pub cost: CostModel,
    /// Buffer-cache size in blocks, divided evenly among servers
    /// (2 GB in the paper's setup; scaled down here).
    pub dram_blocks: usize,
    /// Per-core private cache capacity in blocks.
    pub cache_blocks: usize,
    /// Whether directories are distributed when the application does not
    /// say (applications pass [`fsapi::MkdirOpts`] to choose per directory).
    pub default_distributed: bool,
    /// The root directory's distribution flag.
    pub root_distributed: bool,
    /// Technique toggles.
    pub techniques: Techniques,
    /// Remote-execution placement policy.
    pub placement: Placement,
    /// Pipe capacity in bytes (Linux default 64 KiB).
    pub pipe_capacity: usize,
    /// Per-client directory-cache capacity in entries (positive and
    /// negative slots combined); oldest entries are evicted beyond this,
    /// so adversarial probe streams cannot grow the cache without bound.
    pub dircache_capacity: usize,
    /// Per-server capacity of the `(dir, name)` client-tracking table
    /// (hits and misses alike). Evicting a slot invalidates its tracked
    /// clients first, so bounding this state never leaves a stale cache.
    pub server_track_capacity: usize,
    /// Stripe unit of the striped data plane in bytes (a multiple of the
    /// block size). Only meaningful with `stripe_width ≥ 2`.
    pub stripe_unit: u64,
    /// The striped data plane: how many servers a file's stripe I/O is
    /// spread over (clamped to the machine's server count). At width ≥ 2,
    /// opens carry an extent map and clients address each stripe's
    /// `ReadStripe`/`WriteStripe` to its service owner in parallel. The
    /// default 1 keeps the paper's all-blocks-home layout: every block is
    /// serviced by the file's home server and every exchange count is
    /// byte-for-byte the seed's. Width 1 is the data plane's ablation.
    pub stripe_width: usize,
    /// Windowed stripe readahead: how many stripe fetches the client
    /// keeps in flight ahead of a sequential reader of a striped file.
    /// Window 1 (the ablation; `0` is read as 1) fetches one stripe at a
    /// time, still parallel across a multi-stripe read call. Inert at
    /// `stripe_width = 1`.
    pub readahead_window: usize,
    /// How many servers a *distributed* directory's dentries are spread
    /// over (clamped to the machine's server count; `0` means every
    /// server). The default 0 keeps the paper's `hash % NSERVERS` routing
    /// byte-for-byte. A narrower width bounds every per-directory fan-out
    /// — readdir's `ListShard` sweep, rmdir's mark/commit rounds, the
    /// redirect retry budgets — at O(owned shards) instead of O(servers
    /// on the machine), which is what keeps a 4-shard directory equally
    /// cheap to list on an 8-core and a 256-core machine.
    pub dir_shard_width: usize,
    /// Upper bound on the entries one `ListShard` reply (or fused `List`
    /// terminal) may carry. Listings of larger shards return a
    /// continuation cursor and the client pages through lexicographically;
    /// one giant directory can therefore never materialize in a single
    /// server arena. Small directories (every pre-existing benchmark and
    /// test) fit one page, so exchange counts are unchanged.
    pub list_page_max: usize,
    /// Per-operation causal tracing ([`crate::otrace`]). Off by default:
    /// the disabled tracer is a no-op at every instrumentation point and
    /// no span context travels, so the system is byte-for-byte the
    /// untraced one (sends-parity pinned). On, every client operation
    /// records a span tree attributing each message send to its cause.
    pub trace_ops: bool,
}

impl HareConfig {
    /// The paper's *timeshare* configuration: a file server and application
    /// processes on every core (§5.3.2, used for the headline scalability
    /// results).
    pub fn timeshare(ncores: usize) -> Self {
        let all: Vec<usize> = (0..ncores).collect();
        HareConfig {
            ncores,
            server_cores: all.clone(),
            app_cores: all,
            topology: Topology::with_cores(ncores),
            cost: CostModel::default(),
            // Scaled-down buffer cache (the paper uses 2 GB): 8 MiB per
            // server keeps per-partition headroom at every machine size.
            dram_blocks: 2048 * ncores,
            cache_blocks: 256, // 1 MiB private cache
            default_distributed: false,
            root_distributed: true,
            techniques: Techniques::default(),
            placement: Placement::RoundRobin,
            pipe_capacity: 64 * 1024,
            dircache_capacity: 4096,
            server_track_capacity: 8192,
            stripe_unit: 64 * 1024,
            stripe_width: 1,
            readahead_window: 4,
            dir_shard_width: 0,
            list_page_max: 4096,
            trace_ops: false,
        }
    }

    /// The paper's *split* configuration: `nserver` dedicated server cores,
    /// the rest running applications (§5.3.2, Figure 7).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < nservers < ncores`.
    pub fn split(ncores: usize, nservers: usize) -> Self {
        assert!(nservers > 0 && nservers < ncores);
        let mut cfg = HareConfig::timeshare(ncores);
        cfg.server_cores = (0..nservers).collect();
        cfg.app_cores = (nservers..ncores).collect();
        cfg
    }

    /// Number of file servers (`NSERVERS` in the paper's hash function).
    pub fn nservers(&self) -> usize {
        self.server_cores.len()
    }

    /// True when some core hosts both a server and applications.
    pub fn is_timeshare(&self) -> bool {
        self.server_cores.iter().any(|c| self.app_cores.contains(c))
    }

    /// This configuration with every derived knob resolved, as the
    /// servers and clients of a booted instance read it:
    /// * the root is distributed only with the distribution technique
    ///   (which is what makes every stored directory flag effective);
    /// * negative caching is off without the directory cache it lives
    ///   in (it would otherwise leak invalidations);
    /// * `dir_shard_width` is the effective width in `1..=nservers`: `0`
    ///   and any width above the server count both mean "every server",
    ///   the paper's spread, with routing byte-for-byte the seed's
    ///   `hash % NSERVERS`;
    /// * `list_page_max` and `readahead_window` are at least 1.
    pub fn normalized(mut self) -> Self {
        let t = &mut self.techniques;
        self.root_distributed &= t.distribution;
        t.neg_dircache &= t.dircache;
        if self.dir_shard_width == 0 || self.dir_shard_width > self.nservers() {
            self.dir_shard_width = self.nservers();
        }
        self.list_page_max = self.list_page_max.max(1);
        self.readahead_window = self.readahead_window.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeshare_layout() {
        let c = HareConfig::timeshare(8);
        assert_eq!(c.nservers(), 8);
        assert_eq!(c.app_cores.len(), 8);
        assert!(c.is_timeshare());
    }

    #[test]
    fn split_layout() {
        let c = HareConfig::split(40, 20);
        assert_eq!(c.nservers(), 20);
        assert_eq!(c.app_cores, (20..40).collect::<Vec<_>>());
        assert!(!c.is_timeshare());
    }

    #[test]
    #[should_panic]
    fn split_needs_app_cores() {
        HareConfig::split(4, 4);
    }

    #[test]
    fn technique_toggles() {
        let t = Techniques::without("broadcast");
        assert!(!t.broadcast);
        assert!(t.distribution && t.direct_access && t.dircache && t.affinity);
        assert!(t.neg_dircache && t.batching);
    }

    #[test]
    fn new_technique_toggles() {
        let t = Techniques::without("neg_dircache");
        assert!(!t.neg_dircache && t.dircache && t.batching);
        // Disabling the directory cache disables the negative cache too.
        let t = Techniques::without("dircache");
        assert!(!t.dircache && !t.neg_dircache);
        let t = Techniques::without("batching");
        assert!(!t.batching && t.neg_dircache && t.broadcast);
        let t = Techniques::without("chained_resolution");
        assert!(!t.chained_resolution && t.batching && t.dircache);
        // fused_terminal stays on (it is simply inert without chaining).
        assert!(t.fused_terminal);
        let t = Techniques::without("fused_terminal");
        assert!(!t.fused_terminal && t.chained_resolution && t.batching);
        let t = Techniques::without("rebalancing");
        assert!(!t.rebalancing && t.chained_resolution && t.fused_terminal);
        let t = Techniques::without("replication");
        assert!(!t.replication && t.rebalancing && t.direct_access && t.batching);
    }

    #[test]
    fn normalized_resolves_derived_knobs() {
        let mut c = HareConfig::timeshare(4);
        c.techniques = Techniques::without("distribution");
        (c.dir_shard_width, c.list_page_max, c.readahead_window) = (9, 0, 0);
        let n = c.normalized();
        assert!(!n.root_distributed);
        assert_eq!(
            (n.dir_shard_width, n.list_page_max, n.readahead_window),
            (4, 1, 1)
        );
        let mut c = HareConfig::timeshare(4);
        c.techniques = Techniques::without("dircache");
        c.techniques.neg_dircache = true;
        c.dir_shard_width = 2;
        let n = c.normalized();
        assert!(n.root_distributed && !n.techniques.neg_dircache);
        assert_eq!(n.dir_shard_width, 2);
        assert_eq!(HareConfig::timeshare(8).normalized().dir_shard_width, 8);
    }

    #[test]
    fn default_stripe_knobs_are_the_paper_layout() {
        let c = HareConfig::timeshare(8);
        assert_eq!(c.stripe_width, 1, "default layout is all-blocks-home");
        assert_eq!(c.stripe_unit % 4096, 0, "stripe unit is block-aligned");
        assert!(c.readahead_window >= 1);
    }

    #[test]
    #[should_panic]
    fn unknown_technique_rejected() {
        Techniques::without("bogus");
    }
}
