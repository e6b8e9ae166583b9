//! The client half of the dynamic placement subsystem: the live-migration
//! driver and the load-aware rebalancer (see `crate::placement` for the
//! routing model and the protocol walkthrough).
//!
//! Migration is composed from single-server RPCs like every other
//! multi-server protocol in Hare: `MigrateBegin` at the source (parks the
//! shard), `MigrateInstall` at the destination, `MigrateCommit` back at
//! the source (which starts redirecting and replays parked operations).
//! The rebalancer reads every server's load counters in one grouped
//! exchange, asks [`crate::placement::plan_rebalance_actions`] for a
//! decision, and drives the migration or replication it returns.
//! Everything here is a no-op with the `rebalancing` technique off, so the
//! ablation (and every pinned exchange count) sees the static system.

use super::{expect_reply, ClientLib};
use crate::placement::{plan_rebalance_actions, LoadReport, RebalanceAction, Rebalancer};
use crate::proto::{Reply, Request};
use crate::types::{InodeId, ServerId};
use fsapi::{Errno, FsResult};

impl ClientLib {
    /// Reads every server's load counters (total operations served plus
    /// hottest directories) in one grouped exchange. With `reset`, the
    /// counters restart so successive probes cover disjoint windows.
    pub fn server_loads(&self, reset: bool) -> FsResult<Vec<LoadReport>> {
        let reqs: Vec<(ServerId, Request)> = (0..self.servers.len() as ServerId)
            .map(|s| (s, Request::LoadReport { reset }))
            .collect();
        let mut out = Vec::with_capacity(reqs.len());
        for (server, r) in self.call_grouped(reqs, false).into_iter().enumerate() {
            let (ops, hot_dirs) =
                expect_reply!(r, Reply::Load { ops, hot_dirs } => (ops, hot_dirs))?;
            out.push(LoadReport {
                server: server as ServerId,
                ops,
                hot_dirs,
            });
        }
        Ok(out)
    }

    /// Migrates the dentry shard of the **centralized** directory at
    /// `path` to server `to`. Returns `Ok(false)` without touching
    /// anything when the `rebalancing` technique is off or the directory
    /// already lives at `to`; errors if the path is not a centralized
    /// directory (distributed directories have no single shard to move)
    /// or the migration loses to a concurrent removal.
    pub fn migrate_dir(&self, path: &str, to: ServerId) -> FsResult<bool> {
        if !self.cfg.techniques.rebalancing {
            return Ok(false);
        }
        self.syscall();
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;
        let dir = self.resolve_dir(&mut st, &comps)?;
        drop(st);
        if dir.ino == InodeId::ROOT {
            return Err(Errno::EBUSY);
        }
        if dir.dist {
            return Err(Errno::EINVAL);
        }
        self.drive_migration(dir.ino, to)
    }

    /// One tick of the **background** rebalancer. Call it periodically
    /// from whatever loop owns the virtual clock (a trace replay's window
    /// boundaries, a bench's inter-burst points); the [`Rebalancer`]
    /// decides whether this tick probes at all (cadence), and whether a
    /// nomination has been confirmed by enough consecutive probes to act
    /// on (hysteresis) — so calling it too often is harmless and a single
    /// skewed probe never triggers an action. The planner classifies each
    /// confirmed hot directory by its write share: read-mostly ones gain
    /// a read **replica** on the coolest server, churny ones **migrate**
    /// wholesale. Candidates are tried hottest first, and one that turns
    /// out unactionable (distributed, concurrently removed, or racing an
    /// rmdir) is skipped, not allowed to mask an actionable runner-up.
    /// Returns the action performed, if any; `Ok(None)` covers every quiet
    /// case, and the whole tick is a no-op with the `rebalancing`
    /// technique off. With `replication` off (but `rebalancing` on) every
    /// candidate migrates, exactly the pre-replication dynamic system.
    pub fn rebalance_tick(&self, reb: &mut Rebalancer) -> FsResult<Option<RebalanceAction>> {
        if !self.cfg.techniques.rebalancing || !reb.due(self.vnow()) {
            return Ok(None);
        }
        let reports = self.server_loads(true)?;
        let nominated = {
            let routing = self.routing.lock();
            let replicate = self.cfg.techniques.replication;
            plan_rebalance_actions(&reports, reb.policy(), &routing, replicate)
        };
        for action in reb.observe_actions(self.vnow(), &nominated) {
            let done = match &action {
                RebalanceAction::Migrate(p) => self.drive_migration(p.dir, p.to),
                RebalanceAction::Replicate(p) => self.drive_replication(p.dir, p.to),
            };
            match done {
                Ok(true) => {
                    reb.committed(self.vnow());
                    return Ok(Some(action));
                }
                // Not actionable after all (the source refused:
                // distributed or already gone; EAGAIN: lost a race with an
                // rmdir or another migration) — try the next candidate.
                Ok(false) | Err(Errno::EINVAL) | Err(Errno::ENOENT) | Err(Errno::ENOTDIR)
                | Err(Errno::EAGAIN) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Drives one migration of `dir`'s shard to `to`, following `NotOwner`
    /// redirects to find the current source. Returns whether a migration
    /// actually happened (`Ok(false)` when the shard already lives at
    /// `to`).
    pub(crate) fn drive_migration(&self, dir: InodeId, to: ServerId) -> FsResult<bool> {
        if (to as usize) >= self.servers.len() {
            return Err(Errno::EINVAL);
        }
        for _ in 0..self.servers.len() + 2 {
            let from = self.dir_home_of(dir);
            if from == to {
                return Ok(false);
            }
            match self.call(from, Request::MigrateBegin { dir }) {
                Ok(Reply::NotOwner {
                    dir: d,
                    epoch,
                    owner,
                }) => {
                    if !self.learn_owner(d, owner, epoch) {
                        return Err(Errno::EIO);
                    }
                }
                Ok(Reply::MigrateSnapshot { epoch, entries }) => {
                    let epoch = epoch + 1;
                    match self.call(
                        to,
                        Request::MigrateInstall {
                            dir,
                            epoch,
                            entries,
                        },
                    ) {
                        Ok(Reply::Unit) => {
                            self.call_unit(from, Request::MigrateCommit { dir, epoch, to })?;
                            self.learn_owner(dir, to, epoch);
                            return Ok(true);
                        }
                        other => {
                            // Unwind: clear the source's migrating mark so
                            // the parked operations replay against the
                            // unchanged shard.
                            let _ = self.call(from, Request::MigrateAbort { dir });
                            return match other {
                                Ok(_) => Err(Errno::EIO),
                                Err(e) => Err(e),
                            };
                        }
                    }
                }
                Ok(other) => {
                    debug_assert!(false, "protocol mismatch: {other:?}");
                    return Err(Errno::EIO);
                }
                Err(e) => return Err(e),
            }
        }
        Err(Errno::EIO)
    }

    /// Grows a read **replica** of the centralized directory at `path`
    /// on server `to` (the manual sibling of the planner's
    /// [`crate::placement::RebalanceAction::Replicate`]). Returns
    /// `Ok(false)` without touching anything when the `replication`
    /// technique is off, `to` is the directory's home, or this client
    /// already knows `to` holds a copy; errors mirror
    /// [`ClientLib::migrate_dir`].
    pub fn replicate_dir(&self, path: &str, to: ServerId) -> FsResult<bool> {
        if !self.cfg.techniques.replication {
            return Ok(false);
        }
        self.syscall();
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;
        let dir = self.resolve_dir(&mut st, &comps)?;
        drop(st);
        if dir.ino == InodeId::ROOT {
            return Err(Errno::EBUSY);
        }
        if dir.dist {
            return Err(Errno::EINVAL);
        }
        self.drive_replication(dir.ino, to)
    }

    /// Drives one replica installation of `dir`'s entries onto `to`,
    /// following `NotOwner` redirects to find the current home. The same
    /// two-exchange shape as [`ClientLib::drive_migration`] minus the
    /// commit: `ReplicaExport` at the home registers `to` in the read set
    /// (bumping the epoch — the snapshot already carries the *new* epoch,
    /// so unlike a migration there is nothing to bump here) and
    /// `ReplicaInstall` lands the copy. An install failure unwinds with a
    /// `ReplicaDrop` at the home so the read set never names a server
    /// that refused the copy. On success this client adopts the
    /// advertisement; other processes learn it only if the workload
    /// spreads it (see [`ClientLib::adopt_replicas`]).
    pub(crate) fn drive_replication(&self, dir: InodeId, to: ServerId) -> FsResult<bool> {
        if !self.cfg.techniques.replication {
            return Ok(false);
        }
        if (to as usize) >= self.servers.len() {
            return Err(Errno::EINVAL);
        }
        for _ in 0..self.servers.len() + 2 {
            let home = self.dir_home_of(dir);
            if home == to {
                return Ok(false);
            }
            if self
                .routing
                .lock()
                .replicas_of(dir)
                .is_some_and(|r| r.servers.contains(&to))
            {
                return Ok(false);
            }
            match self.call(home, Request::ReplicaExport { dir, replica: to }) {
                Ok(Reply::NotOwner {
                    dir: d,
                    epoch,
                    owner,
                }) => {
                    if !self.learn_owner(d, owner, epoch) {
                        return Err(Errno::EIO);
                    }
                }
                Ok(Reply::MigrateSnapshot { epoch, entries }) => {
                    match self.call(
                        to,
                        Request::ReplicaInstall {
                            dir,
                            home,
                            epoch,
                            entries,
                        },
                    ) {
                        Ok(Reply::Unit) => {
                            // Adopt locally: the union with the known set
                            // covers replicas another driver added that
                            // this export's reply does not enumerate; a
                            // member dropped since merely costs one
                            // replica-aware NotOwner on first use.
                            let mut routing = self.routing.lock();
                            let mut set: Vec<ServerId> = routing
                                .replicas_of(dir)
                                .map(|r| r.servers.clone())
                                .unwrap_or_default();
                            if !set.contains(&to) {
                                set.push(to);
                            }
                            routing.learn_replicas(dir, set, epoch);
                            return Ok(true);
                        }
                        other => {
                            // Unwind: unregister the copy that never
                            // landed, so readers are not routed at it.
                            let _ = self.call(home, Request::ReplicaDrop { dir, replica: to });
                            return match other {
                                Ok(_) => Err(Errno::EIO),
                                Err(e) => Err(e),
                            };
                        }
                    }
                }
                Ok(other) => {
                    debug_assert!(false, "protocol mismatch: {other:?}");
                    return Err(Errno::EIO);
                }
                Err(e) => return Err(e),
            }
        }
        Err(Errno::EIO)
    }

    /// Resolves `path` and reports the directory's inode id (the key for
    /// [`ClientLib::adopt_replicas`]/[`ClientLib::replica_advert`], so a
    /// workload can spread replica knowledge between its processes).
    pub fn dir_inode(&self, path: &str) -> FsResult<InodeId> {
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;
        let dir = self.resolve_dir(&mut st, &comps)?;
        drop(st);
        Ok(dir.ino)
    }

    /// Test/diagnostic hook: number of directories this client believes
    /// have a live replica set.
    pub fn routing_replica_dirs(&self) -> usize {
        self.routing.lock().replica_dirs()
    }

    /// Resolves `path` and reports the server currently holding its
    /// dentry-shard home (diagnostics for examples and tests; for a
    /// migrated centralized directory this is the override owner).
    pub fn dir_owner(&self, path: &str) -> FsResult<ServerId> {
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;
        let dir = self.resolve_dir(&mut st, &comps)?;
        drop(st);
        Ok(self.dir_home_of(dir.ino))
    }

    /// Test/diagnostic hook: number of placement overrides this client has
    /// learned.
    pub fn routing_overrides(&self) -> usize {
        self.routing.lock().len()
    }
}
