//! The dynamic placement subsystem: epoch-versioned routing tables, the
//! live shard-migration protocol's bookkeeping, and the load-aware
//! rebalancing policy.
//!
//! The paper places every directory entry with a fixed hash over
//! `NSERVERS` ([`crate::types::dentry_shard`], §3.3). That is the **epoch-0
//! policy** here too, so with no migrations the system is byte-for-byte
//! the static system — same servers contacted, same message counts. On top
//! of it, a [`RoutingTable`] records per-directory *placement overrides*:
//! `dir → (owner, epoch)` pairs created by migrating a (centralized)
//! directory's dentry shard from one server to another. Routing a name
//! consults the override first and falls back to the hash.
//!
//! Tables are **distributed and lazily consistent**: every client library
//! and every server holds its own copy. A migration updates only the two
//! servers involved (source and destination); everyone else learns on
//! demand:
//!
//! * A *client* with a stale table sends an entry RPC to the old owner,
//!   which answers `Reply::NotOwner {dir, epoch, owner}`
//!   ([`crate::proto::Reply::NotOwner`]); the client folds the redirect
//!   into its table (epochs keep late redirects from regressing fresh
//!   knowledge) and retries at the named owner — **one extra exchange per
//!   stale directory**, after which the client routes directly.
//! * A *chained* [`crate::proto::Request::LookupPath`] hop landing on a
//!   stale owner is **re-forwarded** under the server's own table instead
//!   of bounced to the client: still feed-forward (a forward is a plain
//!   send carrying the reply channel), still bounded by the chain's hop
//!   budget, so the §3.3 no-deadlock argument and the `ELOOP` guard are
//!   untouched. The redirect costs one extra hop, not an extra exchange.
//!
//! Migration itself is client-composed from single-server RPCs, like every
//! other multi-server protocol in Hare (no server-to-server RPC, §3.3):
//! `MigrateBegin` at the source (marks the shard *migrating* — operations
//! on the directory park exactly like behind an rmdir deletion mark — and
//! snapshots the entries), `MigrateInstall` at the destination (installs
//! entries + the override), `MigrateCommit` back at the source (drops the
//! entries, records the redirect, invalidates every client tracked for the
//! directory through the existing tracking lists, and replays the parked
//! operations — which now answer `NotOwner`, so no in-flight operation is
//! ever failed by a migration). `MigrateAbort` undoes a begun migration
//! whose install failed.
//!
//! Only **centralized** directories migrate: a distributed directory's
//! entries are already spread over every server by the hash, so there is
//! no single hot shard to move (and an override would wrongly claim the
//! other servers' shards). The rebalancer enforces this; the scenario it
//! exists for — one hot mail-spool directory pinning a single server — is
//! exactly the centralized case.
//!
//! **Read replication** composes with all of this over the same table
//! (sharding and replication as two strategies on one hash-space map):
//! a read-hot *centralized* directory can additionally map to N read-only
//! replica servers ([`ReplicaSet`], sharing the override epoch space).
//! Reads — lookups, stats, readdir pages, chain hop 0 — pick the
//! least-loaded member of the read set; writes always go to the home,
//! which pushes an upsert-or-remove invalidation to every replica through
//! the same one-way send fabric as chain forwards (a replica is just a
//! very large tracked client, so the dircache's queue-drain soundness
//! argument carries over verbatim). Structural events evict before they
//! can strand staleness: an rmdir mark, a migration, and a replica
//! retirement all drop the copies outright.
//!
//! Inodes do **not** migrate: Hare names an inode by `(server, number)`
//! (§3.6.4), so moving one would break the global naming invariant every
//! descriptor and block list relies on. New files created under a migrated
//! directory *do* coalesce their inodes at the new owner (creation
//! placement follows the routing table), so a churning hot directory's
//! inode load drains to the new owner naturally.

use crate::proto::ExtentMap;
use crate::types::{dentry_shard_in, InodeId, ServerId};
use std::collections::HashMap;
use std::sync::Arc;

/// The striping policy: which servers *service* a file's stripe I/O (the
/// data-plane sibling of the dentry-shard hash above). Like the dentry
/// hash it is a pure function — every server and client derives the same
/// [`ExtentMap`] from the inode alone, so extent maps carry no durable
/// state: nothing migrates with a directory, nothing can be stranded, and
/// the epoch-0 default (`stripe_width < 2`, or a single-server machine)
/// is **byte-for-byte the paper's layout**: every block of a file is
/// serviced by its home server, pinned by test below.
///
/// With width `w ≥ 2`, stripe `k` is serviced by server
/// `(home + k) mod nservers` walked round-robin from the home server —
/// home-anchored so a file still leads with its own server (stripe 0 is
/// home: the first stripe of a cold read never leaves the inode's server)
/// and different files anchored at different homes interleave instead of
/// converging on server 0.
pub fn stripe_servers(ino: InodeId, stripe_width: usize, nservers: usize) -> Vec<ServerId> {
    let width = stripe_width.min(nservers);
    if width < 2 {
        return vec![ino.server];
    }
    (0..width)
        .map(|k| ((ino.server as usize + k) % nservers) as ServerId)
        .collect()
}

/// The servers a distributed directory's dentries can live on under a
/// shard width of `width` (`HareConfig::dir_shard_width`): the
/// home-anchored set `{(home + k) % nservers : k < width}` that
/// [`crate::types::dentry_shard_in`] selects within, returned in
/// ascending server order (the order every fan-out iterates). At full
/// width this is simply `0..nservers` — the paper's spread — so the
/// default readdir/rmdir fan-outs are byte-for-byte the seed's.
///
/// Like [`stripe_servers`] this is a pure function of the directory id
/// and the knobs: clients, servers, and tests all derive the same set
/// with no state to migrate or invalidate. It is what turns every
/// O(nservers) client fan-out into O(owned shards): a 4-shard directory
/// costs four `ListShard` sends whether the machine has 8 servers or 256.
pub fn dir_shard_servers(dir: InodeId, width: usize, nservers: usize) -> Vec<ServerId> {
    let width = if width == 0 {
        nservers
    } else {
        width.min(nservers)
    };
    let mut set: Vec<ServerId> = (0..width)
        .map(|k| ((dir.server as usize + k) % nservers) as ServerId)
        .collect();
    set.sort_unstable();
    set
}

/// The full extent map for `ino` under the policy: `None` when the
/// layout is the paper's all-blocks-home (width < 2), so every consumer
/// treats "no extent" and "epoch-0 layout" as the same thing.
pub fn extent_for(
    ino: InodeId,
    stripe_unit: u64,
    stripe_width: usize,
    nservers: usize,
) -> Option<ExtentMap> {
    let servers = stripe_servers(ino, stripe_width, nservers);
    (servers.len() >= 2).then_some(ExtentMap {
        stripe_unit,
        servers,
    })
}

/// One placement override: the directory's entries live at `owner` as of
/// migration `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerRecord {
    /// The server holding every entry of the directory.
    pub owner: ServerId,
    /// Epoch of the migration that installed this override. Strictly
    /// increasing per directory; a table only accepts a record that is
    /// newer than what it holds.
    pub epoch: u64,
}

/// The read-replica record for a directory: the servers holding read-only
/// copies of its dentry shard (the home/override owner is *not* listed —
/// it always serves), as of placement `epoch`.
///
/// Replica epochs share the per-directory epoch space with migration
/// overrides: every install or retirement bumps the directory's epoch, and
/// a migration's `learn` at a newer epoch evicts the replica record
/// outright. One monotonic counter therefore orders *every* placement
/// change of a directory, which is what lets a late replica advertisement
/// and a late migration redirect be compared at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicaSet {
    /// Read-only replica servers (home excluded), in install order.
    pub servers: Vec<ServerId>,
    /// Epoch of the placement change that produced this set.
    pub epoch: u64,
}

/// An epoch-versioned routing table: the paper's hash plus per-directory
/// placement overrides. Every client library and every server holds one;
/// see the module docs for how copies converge.
///
/// The override map lives behind an [`Arc`], so [`RoutingTable::clone`]
/// is a pointer bump: hot paths that route many names in one operation
/// (a readdir fan-out, a multi-component resolve) take a snapshot clone
/// once instead of re-locking the owner's table per name. An epoch bump
/// ([`RoutingTable::learn`]) is **copy-on-write**: it mutates in place
/// while the table is unshared and clones the map only when a snapshot
/// is actually outstanding — never a full-table clone per bump.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    overrides: Arc<HashMap<InodeId, OwnerRecord>>,
    /// Read-replica sets, keyed like the overrides and sharing their
    /// epoch space. Empty on every epoch-0 table, so a system that never
    /// replicates routes byte-for-byte the paper's hash (pinned below).
    replicas: Arc<HashMap<InodeId, ReplicaSet>>,
}

impl RoutingTable {
    /// An empty (epoch-0) table: pure hash routing.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// The dentry shard for `name` in `dir`: the override owner when one
    /// exists, the paper's hash otherwise — bounded to the directory's
    /// shard set when `width < nservers` (see
    /// [`crate::types::dentry_shard_in`]). This is *the* routing function —
    /// clients route every entry RPC and servers route every chain hop
    /// through their table with the same `width`, which is what keeps a
    /// forwarded request landing at a server that either owns the shard
    /// or knows who does.
    pub fn route(
        &self,
        dir: InodeId,
        dist: bool,
        name: &str,
        width: usize,
        nservers: usize,
    ) -> ServerId {
        match self.overrides.get(&dir) {
            Some(rec) => rec.owner,
            None => dentry_shard_in(dir, dist, name, width, nservers),
        }
    }

    /// The server holding a **centralized** directory's entries: the
    /// override owner, or its home server. (Used for whole-directory
    /// operations — `ListShard` of a centralized directory, the emptiness
    /// side of `rmdir`.)
    pub fn dir_home(&self, dir: InodeId) -> ServerId {
        self.overrides.get(&dir).map_or(dir.server, |r| r.owner)
    }

    /// The override record for `dir`, if any.
    pub fn override_of(&self, dir: InodeId) -> Option<OwnerRecord> {
        self.overrides.get(&dir).copied()
    }

    /// The epoch of `dir`'s placement (0 = never migrated *or*
    /// replicated): the newest change from either the override or the
    /// replica record, since both draw from one per-directory counter.
    pub fn epoch_of(&self, dir: InodeId) -> u64 {
        let mig = self.overrides.get(&dir).map_or(0, |r| r.epoch);
        let rep = self.replicas.get(&dir).map_or(0, |r| r.epoch);
        mig.max(rep)
    }

    /// Folds a redirect (or a migration this party performed) into the
    /// table. Returns true when the record was news; an equal-or-older
    /// epoch is ignored, so a late redirect can never regress fresher
    /// knowledge. A migration at a newer epoch also evicts the
    /// directory's replica record: the copies were snapshotted from the
    /// old owner, so routing reads to them past a move would be
    /// staleness, not caching (eviction-before-staleness).
    pub fn learn(&mut self, dir: InodeId, owner: ServerId, epoch: u64) -> bool {
        // Check against the shared maps first: rejecting a stale record
        // must not fault a copy-on-write clone.
        if self.epoch_of(dir) >= epoch {
            return false;
        }
        Arc::make_mut(&mut self.overrides).insert(dir, OwnerRecord { owner, epoch });
        if self.replicas.contains_key(&dir) {
            Arc::make_mut(&mut self.replicas).remove(&dir);
        }
        true
    }

    /// Folds a replica advertisement into the table: `dir`'s read set
    /// gains the listed replica `servers` as of placement `epoch`. The
    /// same monotonic-epoch rule as [`RoutingTable::learn`] applies (and
    /// shares its counter), so a late advertisement can never resurrect a
    /// retired or migrated-away replica set. An empty `servers` list
    /// *retires* the record entirely.
    pub fn learn_replicas(&mut self, dir: InodeId, servers: Vec<ServerId>, epoch: u64) -> bool {
        if self.epoch_of(dir) >= epoch {
            return false;
        }
        // An empty set is stored too: it remembers the epoch of the
        // retirement so a stale late advertisement cannot re-install the
        // dropped replicas.
        Arc::make_mut(&mut self.replicas).insert(dir, ReplicaSet { servers, epoch });
        true
    }

    /// The replica record for `dir`, if any (an empty `servers` list is a
    /// remembered retirement, not a live set).
    pub fn replicas_of(&self, dir: InodeId) -> Option<&ReplicaSet> {
        self.replicas.get(&dir)
    }

    /// The **read set** for entries of centralized directory `dir`: the
    /// home (override owner or hash home) first, then every read replica.
    /// Epoch-0 (and any never-replicated directory) returns just the
    /// home, so read routing degenerates to the paper's single server.
    pub fn read_set(&self, dir: InodeId) -> Vec<ServerId> {
        let home = self.dir_home(dir);
        let mut set = vec![home];
        if let Some(rec) = self.replicas.get(&dir) {
            set.extend(rec.servers.iter().copied().filter(|s| *s != home));
        }
        set
    }

    /// Removes one server from `dir`'s replica read set in place — local
    /// route hygiene after a replica-aware `NotOwner` (that copy is
    /// gone), not an epoch event: what remains is the same set minus a
    /// dead route, so no epoch moves and a genuinely newer advertisement
    /// still supersedes the record normally.
    pub fn forget_replica(&mut self, dir: InodeId, server: ServerId) {
        if self
            .replicas
            .get(&dir)
            .is_some_and(|r| r.servers.contains(&server))
        {
            let rec = Arc::make_mut(&mut self.replicas)
                .get_mut(&dir)
                .expect("checked above");
            rec.servers.retain(|s| *s != server);
        }
    }

    /// Number of directories with a live (non-empty) replica set
    /// (diagnostics).
    pub fn replica_dirs(&self) -> usize {
        self.replicas
            .values()
            .filter(|r| !r.servers.is_empty())
            .count()
    }

    /// For a server's own table: the redirect to answer when this server
    /// (`me`) receives an entry operation for `dir` it no longer (or
    /// never) owns under its override knowledge. `None` means no override
    /// names another server — the hash decides, and a client that routed
    /// here by hash is correct.
    pub fn foreign_owner(&self, dir: InodeId, me: ServerId) -> Option<OwnerRecord> {
        self.overrides.get(&dir).copied().filter(|r| r.owner != me)
    }

    /// Number of overrides held (diagnostics).
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// True when the table is pure epoch-0 hash routing (no overrides
    /// and no replica records).
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty() && self.replicas.is_empty()
    }
}

/// One server's load report: total operations served plus its hottest
/// directories by entry-operation count (what
/// [`crate::proto::Reply::Load`] carries).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The reporting server.
    pub server: ServerId,
    /// Operations served since the last reset.
    pub ops: u64,
    /// `(directory, entry ops, entry writes)` triples, hottest first. The
    /// write count (ADD_MAP / RM_MAP / coalesced creates) is what lets
    /// the planner tell a read-hot directory (worth replicating) from a
    /// churn-hot one (worth migrating): replicas amplify reads but every
    /// write still serializes at the home *and* fans out an invalidation
    /// per replica.
    pub hot_dirs: Vec<(InodeId, u64, u64)>,
}

/// A migration the rebalancer decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The directory whose dentry shard moves.
    pub dir: InodeId,
    /// Current owner (the overloaded server).
    pub from: ServerId,
    /// New owner (the least-loaded server).
    pub to: ServerId,
}

/// A replication the rebalancer decided on: install a read-only copy of
/// `dir`'s dentry shard (home `home`) at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// The read-hot directory.
    pub dir: InodeId,
    /// Its current home (the overloaded server).
    pub home: ServerId,
    /// The server that gains the read-only copy (the least-loaded one).
    pub to: ServerId,
}

/// One placement action out of [`plan_rebalance_actions`]: either move a
/// (write-churning) hot shard or grow a read replica of a read-mostly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Move the shard wholesale (the PR 5 protocol).
    Migrate(MigrationPlan),
    /// Install one more read replica (this PR's protocol).
    Replicate(ReplicationPlan),
}

impl RebalanceAction {
    /// The directory the action concerns (hysteresis streaks key on it).
    pub fn dir(&self) -> InodeId {
        match self {
            RebalanceAction::Migrate(p) => p.dir,
            RebalanceAction::Replicate(p) => p.dir,
        }
    }
}

/// Tuning knobs for [`plan_rebalance_actions`].
#[derive(Debug, Clone, Copy)]
pub struct RebalancePolicy {
    /// A server must have served at least this many operations to be
    /// considered hot (keeps cold systems, and every pinned test, inert).
    pub min_ops: u64,
    /// The hottest server must carry at least `imbalance` times the
    /// load of the coolest before a migration pays for itself.
    pub imbalance: f64,
    /// The candidate directory must account for at least this share of
    /// the hot server's operations — migrating a minor directory would
    /// not relieve the hotspot.
    pub min_dir_share: f64,
    /// Replicate-vs-migrate bar: a candidate whose write share
    /// (writes / entry ops) is at or below this replicates; above it,
    /// the churn would serialize at the home and fan an invalidation to
    /// every replica per write, so the shard migrates wholesale instead.
    pub max_replica_write_share: f64,
    /// Upper bound on read replicas per directory: once a directory's
    /// read set reaches `1 + max_replicas` servers the planner falls
    /// back to nominating other candidates.
    pub max_replicas: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            min_ops: 64,
            imbalance: 1.5,
            min_dir_share: 0.25,
            max_replica_write_share: 0.1,
            max_replicas: 3,
        }
    }
}

/// A nominated candidate's `(dir, ops, writes)` load triple.
type DirLoad = (InodeId, u64, u64);

/// The hottest-vs-coolest nomination behind [`plan_rebalance_actions`]:
/// `(hot server, cool server, candidate [`DirLoad`] triples hottest
/// first)`, or `None` when the load picture clears no bar.
fn nominate(
    reports: &[LoadReport],
    policy: &RebalancePolicy,
) -> Option<(ServerId, ServerId, Vec<DirLoad>)> {
    let (hot, cool) = (
        reports.iter().max_by_key(|r| r.ops)?,
        reports.iter().min_by_key(|r| r.ops)?,
    );
    if hot.server == cool.server || hot.ops < policy.min_ops {
        return None;
    }
    if (hot.ops as f64) < (cool.ops as f64).max(1.0) * policy.imbalance {
        return None;
    }
    let dirs: Vec<DirLoad> = hot
        .hot_dirs
        .iter()
        .filter(|(dir, dir_ops, _)| {
            *dir != InodeId::ROOT && (*dir_ops as f64) >= hot.ops as f64 * policy.min_dir_share
        })
        .copied()
        .collect();
    (!dirs.is_empty()).then_some((hot.server, cool.server, dirs))
}

/// The load-aware rebalancing decision, as a pure function of the load
/// reports so it is unit-testable without a machine: find the hottest and
/// coolest servers; if the imbalance clears the policy bar, nominate
/// every hot-server directory that carries enough of its load, hottest
/// first. The root is never nominated; whether a candidate is
/// *distributed* (and therefore unmigratable) only its home server
/// knows, so the driver tries candidates in order and skips the ones the
/// source refuses — a hot-but-unmigratable directory must not mask a
/// migratable runner-up.
///
/// Each candidate is classified by its **write share**. With `replicate`
/// on, a read-mostly directory (writes / ops ≤
/// [`RebalancePolicy::max_replica_write_share`]) becomes a
/// [`RebalanceAction::Replicate`] targeting the coolest server — reads
/// multiply across the grown read set while writes keep serializing at
/// the home; a churning one (and, with `replicate` off, every one)
/// becomes a [`RebalanceAction::Migrate`]. `routing` supplies the
/// caller's replica knowledge so a directory already replicated onto the
/// cool server (or at the [`RebalancePolicy::max_replicas`] cap) degrades
/// to the migrate/skip path instead of piling copies on one server.
pub fn plan_rebalance_actions(
    reports: &[LoadReport],
    policy: &RebalancePolicy,
    routing: &RoutingTable,
    replicate: bool,
) -> Vec<RebalanceAction> {
    let Some((hot, cool, dirs)) = nominate(reports, policy) else {
        return Vec::new();
    };
    dirs.into_iter()
        .filter_map(|(dir, ops, writes)| {
            let read_mostly =
                replicate && (writes as f64) <= (ops as f64) * policy.max_replica_write_share;
            let replicas = routing
                .replicas_of(dir)
                .map(|r| r.servers.clone())
                .unwrap_or_default();
            if read_mostly && replicas.len() < policy.max_replicas && !replicas.contains(&cool) {
                Some(RebalanceAction::Replicate(ReplicationPlan {
                    dir,
                    home: hot,
                    to: cool,
                }))
            } else if !read_mostly {
                Some(RebalanceAction::Migrate(MigrationPlan {
                    dir,
                    from: hot,
                    to: cool,
                }))
            } else {
                // Read-mostly but already replicated onto the cool server
                // (or at the cap): nothing useful to do with this pair —
                // let a runner-up candidate through instead.
                None
            }
        })
        .collect()
}

/// Cadence knobs for the background rebalancer ([`Rebalancer`]).
///
/// All times are virtual cycles (`vtime::CYCLES_PER_US` per virtual µs).
#[derive(Debug, Clone, Copy)]
pub struct RebalanceCadence {
    /// Minimum virtual time between load probes. Probing costs one
    /// grouped exchange and resets the servers' load windows, so it must
    /// be slow relative to the traffic it observes.
    pub probe_interval: u64,
    /// Consecutive probes that must nominate the *same* hottest directory
    /// before a migration runs — the hysteresis that keeps a one-window
    /// blip (or a probe racing a phase change) from bouncing a directory
    /// back and forth.
    pub confirm: u32,
    /// Back-off after a committed migration, giving redirects time to
    /// propagate and the load picture time to re-form before the next
    /// probe (without it, the first post-migration probe still sees the
    /// old skew and double-migrates).
    pub cooldown: u64,
}

impl Default for RebalanceCadence {
    fn default() -> Self {
        RebalanceCadence {
            probe_interval: 2_000_000, // 1 virtual ms
            confirm: 2,
            cooldown: 4_000_000,
        }
    }
}

/// The background rebalancer's decision state: *when* to probe and *when*
/// a nomination is trustworthy. Pure virtual-time bookkeeping — the RPCs
/// (probing, migrating) live in `ClientLib::rebalance_tick`, so this is
/// unit-testable without a machine, like [`plan_rebalance_actions`].
#[derive(Debug)]
pub struct Rebalancer {
    policy: RebalancePolicy,
    cadence: RebalanceCadence,
    /// Earliest virtual time of the next probe (0 = immediately).
    next_probe: u64,
    /// The directory the streak is building on, and its length.
    streak: Option<(InodeId, u32)>,
}

impl Rebalancer {
    /// A rebalancer with the given policy and cadence, ready to probe.
    pub fn new(policy: RebalancePolicy, cadence: RebalanceCadence) -> Rebalancer {
        Rebalancer {
            policy,
            cadence,
            next_probe: 0,
            streak: None,
        }
    }

    /// The load-plan policy probes are judged against.
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }

    /// True when a probe is due at virtual time `now`.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_probe
    }

    /// Feeds one probe's nominations (from [`plan_rebalance_actions`],
    /// hottest first) taken at virtual time `now`. Returns the actions to
    /// execute — empty until [`RebalanceCadence::confirm`] consecutive
    /// probes have agreed on the hottest directory; an empty or
    /// disagreeing probe restarts the streak. The streak keys on the
    /// nominated directory, so a candidate flapping between replicate and
    /// migrate still counts as agreement on *where* the heat is.
    pub fn observe_actions(
        &mut self,
        now: u64,
        actions: &[RebalanceAction],
    ) -> Vec<RebalanceAction> {
        self.next_probe = now + self.cadence.probe_interval;
        let Some(first) = actions.first().map(|a| a.dir()) else {
            self.streak = None;
            return Vec::new();
        };
        let n = match self.streak {
            Some((dir, n)) if dir == first => n + 1,
            _ => 1,
        };
        if n >= self.cadence.confirm {
            self.streak = None;
            actions.to_vec()
        } else {
            self.streak = Some((first, n));
            Vec::new()
        }
    }

    /// Records a committed migration at virtual time `now`: enter the
    /// cooldown and forget the streak.
    pub fn committed(&mut self, now: u64) {
        self.next_probe = now + self.cadence.cooldown;
        self.streak = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIR: InodeId = InodeId { server: 0, num: 7 };

    #[test]
    fn epoch_zero_is_the_paper_hash() {
        let t = RoutingTable::new();
        assert!(t.is_empty());
        for n in ["a", "b", "spool"] {
            assert_eq!(
                t.route(DIR, true, n, 8, 8),
                crate::types::dentry_shard(DIR, true, n, 8)
            );
        }
        assert_eq!(t.route(DIR, false, "a", 8, 8), 0);
        assert_eq!(t.dir_home(DIR), 0);
        assert_eq!(t.epoch_of(DIR), 0);
    }

    #[test]
    fn shard_set_is_home_anchored_and_full_width_is_everyone() {
        let dir = InodeId { server: 6, num: 9 };
        assert_eq!(dir_shard_servers(dir, 4, 8), vec![0, 1, 6, 7]);
        // Full width (or the 0 default) is every server, ascending — the
        // paper's fan-out order, byte for byte.
        assert_eq!(
            dir_shard_servers(dir, 0, 8),
            (0..8).map(|s| s as ServerId).collect::<Vec<_>>()
        );
        assert_eq!(dir_shard_servers(dir, 8, 8), dir_shard_servers(dir, 0, 8));
        assert_eq!(dir_shard_servers(dir, 99, 8), dir_shard_servers(dir, 0, 8));
        // The home server is always in the set (rmdir's inode removal and
        // a centralized fallback both rely on it).
        for w in 1..=8 {
            assert!(dir_shard_servers(dir, w, 8).contains(&dir.server));
        }
        // Routing always lands inside the set.
        for i in 0..128 {
            let n = format!("f{i}");
            let s = dentry_shard_in(dir, true, &n, 4, 8);
            assert!(dir_shard_servers(dir, 4, 8).contains(&s));
        }
    }

    #[test]
    fn epoch_bumps_are_copy_on_write() {
        let mut t = RoutingTable::new();
        assert!(t.learn(DIR, 5, 1));
        // An outstanding snapshot keeps routing at its epoch while the
        // owner's table moves on — and the bump clones the map rather
        // than mutating the shared one.
        let snap = t.clone();
        assert!(t.learn(DIR, 2, 2));
        assert_eq!(snap.dir_home(DIR), 5, "snapshot unperturbed");
        assert_eq!(t.dir_home(DIR), 2);
        // Rejecting a stale record never faults a clone (pointer-equal
        // maps before and after).
        let before = Arc::as_ptr(&t.overrides);
        assert!(!t.learn(DIR, 9, 1));
        assert_eq!(Arc::as_ptr(&t.overrides), before);
    }

    #[test]
    fn epoch_zero_striping_is_all_blocks_home() {
        // The paper's layout, byte for byte: width < 2 (or one server)
        // services every stripe at the file's home server and advertises
        // no extent map at all — so with striping off (or un-widened)
        // the data plane is indistinguishable from the seed.
        for ino in [InodeId::ROOT, InodeId { server: 3, num: 42 }] {
            assert_eq!(stripe_servers(ino, 1, 8), vec![ino.server]);
            assert_eq!(stripe_servers(ino, 0, 8), vec![ino.server]);
            assert_eq!(stripe_servers(ino, 4, 1), vec![ino.server]);
            assert!(extent_for(ino, 65536, 1, 8).is_none());
            assert!(extent_for(ino, 65536, 4, 1).is_none());
        }
    }

    #[test]
    fn striping_is_home_anchored_round_robin() {
        let ino = InodeId { server: 6, num: 9 };
        // Width 4 over 8 servers: home leads, then the next three.
        assert_eq!(stripe_servers(ino, 4, 8), vec![6, 7, 0, 1]);
        // Width clamps to the machine (home 6 ≡ 2 mod 4 servers).
        assert_eq!(stripe_servers(ino, 16, 4), vec![2, 3, 0, 1]);
        let e = extent_for(ino, 65536, 4, 8).unwrap();
        assert_eq!(e.server_of(0), 6, "stripe 0 stays home");
        assert_eq!(e.server_of(4), 6, "round robin wraps");
        // Deterministic: every party derives the same map.
        assert_eq!(e, extent_for(ino, 65536, 4, 8).unwrap());
    }

    #[test]
    fn override_redirects_all_names() {
        let mut t = RoutingTable::new();
        assert!(t.learn(DIR, 5, 1));
        for n in ["a", "b", "anything"] {
            assert_eq!(t.route(DIR, false, n, 8, 8), 5);
            assert_eq!(t.route(DIR, true, n, 8, 8), 5);
        }
        assert_eq!(t.dir_home(DIR), 5);
        assert_eq!(t.epoch_of(DIR), 1);
        // Other directories keep hashing.
        let other = InodeId { server: 3, num: 9 };
        assert_eq!(t.route(other, false, "a", 8, 8), 3);
    }

    #[test]
    fn stale_redirect_never_regresses_fresh_knowledge() {
        let mut t = RoutingTable::new();
        assert!(t.learn(DIR, 5, 2));
        // A late redirect from the original migration must be ignored.
        assert!(!t.learn(DIR, 3, 1));
        assert!(!t.learn(DIR, 3, 2));
        assert_eq!(t.dir_home(DIR), 5);
        // A newer migration wins.
        assert!(t.learn(DIR, 1, 3));
        assert_eq!(t.dir_home(DIR), 1);
    }

    #[test]
    fn foreign_owner_names_the_redirect_target() {
        let mut t = RoutingTable::new();
        assert!(t.foreign_owner(DIR, 0).is_none(), "no override: hash rules");
        t.learn(DIR, 5, 1);
        let r = t.foreign_owner(DIR, 0).unwrap();
        assert_eq!((r.owner, r.epoch), (5, 1));
        assert!(
            t.foreign_owner(DIR, 5).is_none(),
            "the owner is not foreign"
        );
    }

    fn report(server: ServerId, ops: u64, hot: &[(InodeId, u64)]) -> LoadReport {
        LoadReport {
            server,
            ops,
            // The migrate-only tests predate write counting: all-writes
            // keeps their nominations classified as migrations.
            hot_dirs: hot.iter().map(|&(d, n)| (d, n, n)).collect(),
        }
    }

    #[test]
    fn rebalance_plans_hot_directories_hottest_first() {
        let p = RebalancePolicy::default();
        let second = InodeId { server: 0, num: 9 };
        let reports = [
            report(
                0,
                1000,
                &[
                    (DIR, 600),
                    (second, 300),
                    (InodeId { server: 0, num: 11 }, 50),
                ],
            ),
            report(1, 100, &[]),
            report(2, 200, &[]),
        ];
        let plans = plan_rebalance_actions(&reports, &p, &RoutingTable::new(), true);
        // Both directories above the share bar are nominated (so an
        // unmigratable hottest cannot mask the runner-up); the 50-op one
        // is below the bar and dropped.
        assert_eq!(
            plans,
            vec![
                RebalanceAction::Migrate(MigrationPlan {
                    dir: DIR,
                    from: 0,
                    to: 1
                }),
                RebalanceAction::Migrate(MigrationPlan {
                    dir: second,
                    from: 0,
                    to: 1
                }),
            ]
        );
    }

    #[test]
    fn rebalance_never_nominates_the_root() {
        let p = RebalancePolicy::default();
        let plans = plan_rebalance_actions(
            &[
                report(0, 1000, &[(InodeId::ROOT, 900), (DIR, 400)]),
                report(1, 10, &[]),
            ],
            &p,
            &RoutingTable::new(),
            true,
        );
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].dir(), DIR);
    }

    fn plan(dir: InodeId) -> RebalanceAction {
        RebalanceAction::Migrate(MigrationPlan {
            dir,
            from: 0,
            to: 1,
        })
    }

    #[test]
    fn hysteresis_requires_consecutive_agreement() {
        let cadence = RebalanceCadence {
            probe_interval: 100,
            confirm: 2,
            cooldown: 1000,
        };
        let mut r = Rebalancer::new(RebalancePolicy::default(), cadence);
        assert!(r.due(0), "first probe is immediate");
        // First nomination: streak of 1, nothing executes yet.
        assert!(r.observe_actions(0, &[plan(DIR)]).is_empty());
        assert!(!r.due(50), "cadence: next probe not yet due");
        assert!(r.due(100));
        // Second agreeing nomination: confirmed.
        let go = r.observe_actions(100, &[plan(DIR)]);
        assert_eq!(go, vec![plan(DIR)]);
        r.committed(150);
        assert!(!r.due(1000), "cooldown outlasts the probe interval");
        assert!(r.due(1150));
    }

    #[test]
    fn a_blip_restarts_the_streak() {
        let cadence = RebalanceCadence {
            probe_interval: 100,
            confirm: 2,
            cooldown: 1000,
        };
        let other = InodeId { server: 2, num: 9 };
        let mut r = Rebalancer::new(RebalancePolicy::default(), cadence);
        assert!(r.observe_actions(0, &[plan(DIR)]).is_empty());
        // Balanced probe in between: the streak dies.
        assert!(r.observe_actions(100, &[]).is_empty());
        assert!(
            r.observe_actions(200, &[plan(DIR)]).is_empty(),
            "back to one"
        );
        // A different hottest directory also restarts it...
        assert!(r.observe_actions(300, &[plan(other)]).is_empty());
        // ...and then confirms on its own second probe.
        assert_eq!(r.observe_actions(400, &[plan(other)]), vec![plan(other)]);
    }

    #[test]
    fn confirm_one_migrates_on_first_sight() {
        let cadence = RebalanceCadence {
            probe_interval: 100,
            confirm: 1,
            cooldown: 1000,
        };
        let mut r = Rebalancer::new(RebalancePolicy::default(), cadence);
        assert_eq!(r.observe_actions(0, &[plan(DIR)]), vec![plan(DIR)]);
    }

    #[test]
    fn zero_replica_table_is_the_paper_hash() {
        // The epoch-0 pin for replication: a table that never learned a
        // replica routes, homes, and epoch-counts exactly like the seed,
        // and its read set is the single home server.
        let t = RoutingTable::new();
        assert!(t.replicas_of(DIR).is_none());
        assert_eq!(t.read_set(DIR), vec![DIR.server]);
        assert_eq!(t.replica_dirs(), 0);
        assert_eq!(t.epoch_of(DIR), 0);
    }

    #[test]
    fn replica_learning_is_epoch_monotonic_and_migration_evicts() {
        let mut t = RoutingTable::new();
        assert!(t.learn_replicas(DIR, vec![3], 1));
        assert_eq!(t.read_set(DIR), vec![0, 3]);
        assert_eq!(t.epoch_of(DIR), 1);
        assert_eq!(t.replica_dirs(), 1);
        // Stale advertisement: ignored (shared epoch space).
        assert!(!t.learn_replicas(DIR, vec![5], 1));
        assert!(!t.learn(DIR, 5, 1), "migration at the same epoch loses too");
        // Growth at a newer epoch.
        assert!(t.learn_replicas(DIR, vec![3, 5], 2));
        assert_eq!(t.read_set(DIR), vec![0, 3, 5]);
        // A migration at a newer epoch evicts the replica set outright —
        // the copies were snapshotted from the old owner.
        assert!(t.learn(DIR, 6, 3));
        assert_eq!(t.read_set(DIR), vec![6]);
        assert_eq!(t.replica_dirs(), 0);
        // Retirement (empty set) remembers its epoch, so a late replay of
        // the old advertisement stays dead.
        assert!(t.learn_replicas(DIR, Vec::new(), 4));
        assert!(!t.learn_replicas(DIR, vec![3, 5], 2));
        assert_eq!(t.read_set(DIR), vec![6]);
    }

    #[test]
    fn read_set_leads_with_home_and_skips_a_replica_equal_to_it() {
        let mut t = RoutingTable::new();
        t.learn_replicas(DIR, vec![2, 0], 1);
        // Home (0) is in the advertised list by accident: not doubled.
        assert_eq!(t.read_set(DIR), vec![0, 2]);
    }

    #[test]
    fn planner_replicates_read_mostly_and_migrates_churn() {
        let p = RebalancePolicy::default();
        let churn = InodeId { server: 0, num: 9 };
        let reports = [
            LoadReport {
                server: 0,
                ops: 1000,
                // DIR is read-hot (2% writes); `churn` is write-heavy.
                hot_dirs: vec![(DIR, 600, 12), (churn, 300, 200)],
            },
            report(1, 50, &[]),
        ];
        let actions = plan_rebalance_actions(&reports, &p, &RoutingTable::new(), true);
        assert_eq!(
            actions,
            vec![
                RebalanceAction::Replicate(ReplicationPlan {
                    dir: DIR,
                    home: 0,
                    to: 1
                }),
                RebalanceAction::Migrate(MigrationPlan {
                    dir: churn,
                    from: 0,
                    to: 1
                }),
            ]
        );
        // Already replicated onto the cool server: the pair is useless,
        // the candidate drops out instead of piling copies there.
        let mut known = RoutingTable::new();
        known.learn_replicas(DIR, vec![1], 1);
        let actions = plan_rebalance_actions(&reports, &p, &known, true);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].dir(), churn);
        // At the replica cap the same degradation applies.
        let mut capped = RoutingTable::new();
        capped.learn_replicas(DIR, vec![2, 3, 4], 1);
        let actions = plan_rebalance_actions(&reports, &p, &capped, true);
        assert_eq!(actions.len(), 1, "capped dir is skipped");
        assert_eq!(actions[0].dir(), churn);
        // With replication off every nominee migrates, read-mostly or not.
        let actions = plan_rebalance_actions(&reports, &p, &capped, false);
        assert_eq!(actions, vec![plan(DIR), plan(churn)]);
    }

    #[test]
    fn action_hysteresis_matches_the_migration_hysteresis() {
        let cadence = RebalanceCadence {
            probe_interval: 100,
            confirm: 2,
            cooldown: 1000,
        };
        let act = RebalanceAction::Replicate(ReplicationPlan {
            dir: DIR,
            home: 0,
            to: 1,
        });
        let mut r = Rebalancer::new(RebalancePolicy::default(), cadence);
        assert!(r.observe_actions(0, &[act]).is_empty(), "streak of one");
        // A migrate nomination of the same directory continues the streak:
        // agreement is about where the heat is, not the remedy.
        let mig = plan(DIR);
        assert_eq!(r.observe_actions(100, &[mig]), vec![mig]);
    }

    #[test]
    fn rebalance_stays_inert_below_the_bars() {
        let p = RebalancePolicy::default();
        let nominations = |reports: &[LoadReport], p: &RebalancePolicy| {
            plan_rebalance_actions(reports, p, &RoutingTable::new(), true)
        };
        // Too few ops overall.
        assert!(nominations(&[report(0, 10, &[(DIR, 9)]), report(1, 1, &[])], &p).is_empty());
        // Balanced servers.
        assert!(nominations(&[report(0, 1000, &[(DIR, 900)]), report(1, 900, &[])], &p).is_empty());
        // Hot server, but no single directory dominates.
        assert!(nominations(&[report(0, 1000, &[(DIR, 50)]), report(1, 10, &[])], &p).is_empty());
        // One server: nowhere to move.
        assert!(nominations(&[report(0, 1000, &[(DIR, 900)])], &p).is_empty());
        // No reports at all.
        assert!(nominations(&[], &p).is_empty());
    }
}
