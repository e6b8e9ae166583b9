//! Namespace operations: open/create, unlink, mkdir, rmdir, rename,
//! readdir, stat.

use super::dircache::{Cached, CachedDentry};
use super::engine::{MultiStepOp, Next, Step};
use super::fd::{FdEntry, FdMode};
use super::resolve::{DirRef, FusedPathOp};
use super::{expect_reply, ClientLib, ClientState};
use crate::proto::{MarkResult, OpenResult, Reply, Request, TerminalOp, TerminalReply, WireReply};
use crate::types::{InodeId, ServerId};
use fsapi::{DirEntry, Errno, FileType, FsResult, MkdirOpts, Mode, OpenFlags, Stat};
use std::collections::HashSet;

impl ClientLib {
    // ----- open ------------------------------------------------------------

    pub(crate) fn open_impl(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<u32> {
        self.syscall();
        let mut st = self.state.lock();
        let excl = flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL);

        // Every open but O_CREAT|O_EXCL is one terminal walk: the request
        // resolving the final component — a LookupPath chain covering
        // parents *and* final component, or the final single Lookup —
        // carries the open, executed by the answering server when the
        // inode is local. A cold deep open whose shards align is one
        // end-to-end exchange. O_CREAT|O_EXCL keeps the probe-elision path
        // below (its create answers the existence question; a fused open
        // would open a descriptor just to report EEXIST).
        if !excl {
            let (mut comps, name) = fsapi::path::split_parent(path)?;
            comps.push(name);
            // O_CREAT rides as a Create terminal: a chain's final server
            // (which owns the dentry shard — the coalesced placement)
            // creates a missing final component instead of bouncing
            // ENOENT back, so the cold create-open is one exchange too. An
            // existing name behaves exactly like Open.
            let terminal = if flags.contains(OpenFlags::CREAT) {
                TerminalOp::Create { flags, mode }
            } else {
                TerminalOp::Open { flags }
            };
            let out = self.run_op(&mut st, FusedPathOp::new(self.root_ref(), &comps, terminal))?;
            let existing = match out.dentry {
                Some(d) => match out.term {
                    Some(TerminalReply::Open(o)) => self.install_fd(&mut st, d.target, o, flags),
                    Some(TerminalReply::Created { ino, open }) => {
                        debug_assert_eq!(ino, d.target);
                        self.install_fd(&mut st, ino, open, flags)
                    }
                    // Remote inode (or non-file, or a failing local open):
                    // complete with the ordinary follow-up, which also
                    // reproduces the authoritative error (EISDIR, EACCES).
                    _ => self.open_existing(&mut st, d, flags),
                },
                None => Err(Errno::ENOENT),
            };
            return self.finish_open(&mut st, out.parent, name, flags, mode, excl, existing);
        }

        // O_CREAT|O_EXCL expects the name absent: when the create would be
        // coalesced (inode placed at the dentry shard), skip the lookup
        // probe RPC and let the create's atomic existence check answer
        // instead — the maildir delivery pattern, where every spool name
        // is fresh. A cross-server create failing EEXIST would churn an
        // orphan inode (Create + AddMap + CloseFd + LinkDecref), so in that
        // placement keep the probe-first path. The directory cache
        // short-circuits names known present either way.
        let (dir, name) = self.resolve_parent(&mut st, path)?;
        let existing = match self.consult_dircache(&mut st, dir.ino, name) {
            Some(Cached::Pos(_)) => return Err(Errno::EEXIST),
            // Known absent: go straight to the create.
            Some(Cached::Neg) => Err(Errno::ENOENT),
            None => {
                let shard = self.shard_of(dir.ino, dir.dist, name);
                if self.inode_server_for_create(shard) == shard {
                    Err(Errno::ENOENT)
                } else {
                    match self.lookup_child_uncached(&mut st, dir, name) {
                        Ok(_) => return Err(Errno::EEXIST),
                        Err(e) => Err(e),
                    }
                }
            }
        };
        self.finish_open(&mut st, dir, name, flags, mode, excl, existing)
    }

    /// The create tail of `open`: turns an ENOENT on the existing-file
    /// path into a creation when `O_CREAT` asks for one, handling the
    /// create races. Shared by the terminal-walk and `O_EXCL` paths.
    #[allow(clippy::too_many_arguments)]
    fn finish_open(
        &self,
        st: &mut ClientState,
        dir: DirRef,
        name: &str,
        flags: OpenFlags,
        mode: Mode,
        excl: bool,
        existing: FsResult<u32>,
    ) -> FsResult<u32> {
        match existing {
            Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => {
                let created =
                    self.create_entry(st, dir, name, FileType::Regular, mode, false, Some(flags));
                let installed = created.and_then(|(ino, open)| {
                    self.install_fd(st, ino, open.ok_or(Errno::EIO)?, flags)
                });
                match installed {
                    Err(Errno::EEXIST) if !excl => {
                        // Lost a create race: open the winner's file.
                        let d = self.lookup_child(st, dir, name)?;
                        self.open_existing(st, d, flags)
                    }
                    Err(Errno::EEXIST) => {
                        // Probe-elided O_EXCL hit an existing name (a
                        // lock-file retry loop, not fresh maildir spool).
                        // Cache the winner's entry so every further retry
                        // is answered locally until the holder's unlink
                        // invalidates it.
                        if self.cfg.techniques.dircache {
                            let _ = self.lookup_child(st, dir, name);
                        }
                        Err(Errno::EEXIST)
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    fn open_existing(
        &self,
        st: &mut ClientState,
        dentry: CachedDentry,
        flags: OpenFlags,
    ) -> FsResult<u32> {
        if dentry.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let open = expect_reply!(
            self.call(
                dentry.target.server,
                Request::OpenInode {
                    client: self.id,
                    num: dentry.target.num,
                    flags,
                },
            ),
            Reply::Opened(o) => o
        )?;
        self.install_fd(st, dentry.target, open, flags)
    }

    /// Creates `name` in `dir` as a new inode of `ftype` (a directory with
    /// distribution flag `dist`), opened with `open` when given. One
    /// coalesced `Create` carrying the entry when the dentry shard and the
    /// inode server coincide (paper §3.6.3); otherwise the inode is made
    /// near the creator (creation affinity, §3.6.4) and the entry follows
    /// as an ADD_MAP at the shard, undone if that fails.
    #[allow(clippy::too_many_arguments)]
    fn create_entry(
        &self,
        st: &mut ClientState,
        dir: DirRef,
        name: &str,
        ftype: FileType,
        mode: Mode,
        dist: bool,
        open: Option<OpenFlags>,
    ) -> FsResult<(InodeId, Option<OpenResult>)> {
        fsapi::path::validate_name(name)?;
        // The placement decision depends on the routed shard, so a
        // NotOwner redirect (only the coalesced form routes by the
        // directory) restarts the decision under the updated table — new
        // entries under a migrated directory coalesce at its new owner.
        // Every accepted redirect raises the directory's epoch, so the
        // retry loop terminates within the parent's owner count.
        for _ in 0..self.retry_budget(self.owner_count(dir.dist)) {
            let dentry_server = self.shard_of(dir.ino, dir.dist, name);
            let inode_server = self.inode_server_for_create(dentry_server);
            let coalesced = inode_server == dentry_server;
            let created = self.call(
                inode_server,
                Request::Create {
                    client: self.id,
                    ftype,
                    mode,
                    dist,
                    add_map: coalesced.then(|| (dir.ino, name.to_string())),
                    open,
                },
            );
            if let Ok(Reply::NotOwner {
                dir: d,
                epoch,
                owner,
            }) = created
            {
                if !self.learn_owner(d, owner, epoch) {
                    return Err(Errno::EIO);
                }
                continue;
            }
            let (ino, opened) =
                expect_reply!(created, Reply::Created { ino, open } => (ino, open))?;
            if !coalesced {
                // The ADD_MAP follows redirects via call_entry.
                let added = expect_reply!(
                    self.call_entry(dir.ino, dir.dist, name, |lib| Request::AddMap {
                        client: lib.id,
                        dir: dir.ino,
                        name: name.to_string(),
                        target: ino,
                        ftype,
                        dist,
                        replace: false,
                    }),
                    Reply::AddMapped { replaced } => replaced
                );
                if let Err(e) = added {
                    // Undo the orphaned inode (lost race or vanished
                    // directory).
                    if let Some(o) = &opened {
                        let _ = self.call(
                            ino.server,
                            Request::CloseFd {
                                fd: o.fd,
                                size: None,
                            },
                        );
                    }
                    let _ = self.call(ino.server, Request::LinkDecref { num: ino.num });
                    return Err(e);
                }
            }
            if self.cfg.techniques.dircache {
                let target = CachedDentry {
                    target: ino,
                    ftype,
                    dist,
                };
                st.dircache.insert(dir.ino, name, target);
            }
            return Ok((ino, opened));
        }
        Err(Errno::EIO)
    }

    /// Installs a client descriptor for a server-side open, applying the
    /// open half of close-to-open consistency: invalidate this core's
    /// private-cache copies of the file's blocks so reads observe the last
    /// writer's write-back (paper §3.2).
    fn install_fd(
        &self,
        st: &mut ClientState,
        ino: InodeId,
        open: OpenResult,
        flags: OpenFlags,
    ) -> FsResult<u32> {
        let dropped = self.machine.with_cache(self.core, |cache, _| {
            cache.invalidate_all(open.blocks.iter().copied())
        });
        self.charge(self.machine.cost.invalidate_blk * open.blocks.len().max(dropped) as u64);
        let entry = FdEntry {
            ino,
            fdid: open.fd,
            flags,
            ftype: FileType::Regular,
            mode: FdMode::Local { offset: 0 },
            size: open.size,
            blocks: open.blocks,
            extent: open.extent,
            dirty: HashSet::new(),
            wrote: false,
            published_size: open.size,
        };
        st.fds.insert(entry)
    }

    // ----- unlink ----------------------------------------------------------

    pub(crate) fn unlink_impl(&self, path: &str) -> FsResult<()> {
        self.syscall();
        let mut st = self.state.lock();
        let (dir, name) = self.resolve_parent(&mut st, path)?;
        let (target, _ftype) = expect_reply!(
            self.call_entry(dir.ino, dir.dist, name, |lib| Request::RmMap {
                client: lib.id,
                dir: dir.ino,
                name: name.to_string(),
                must_be_file: true,
            }),
            Reply::RmMapped { target, ftype } => (target, ftype)
        )?;
        st.dircache.remove(dir.ino, name);
        self.call_unit(target.server, Request::LinkDecref { num: target.num })
    }

    // ----- mkdir -----------------------------------------------------------

    pub(crate) fn mkdir_impl(&self, path: &str, mode: Mode, opts: MkdirOpts) -> FsResult<()> {
        self.syscall();
        let mut st = self.state.lock();
        let (dir, name) = self.resolve_parent(&mut st, path)?;
        let dist = self.effective_dist(opts.distributed);
        self.create_entry(&mut st, dir, name, FileType::Directory, mode, dist, None)?;
        Ok(())
    }

    // ----- rmdir -----------------------------------------------------------

    pub(crate) fn rmdir_impl(&self, path: &str) -> FsResult<()> {
        self.syscall();
        let mut st = self.state.lock();
        let (parent, name) = self.resolve_parent(&mut st, path)?;
        let d = self.lookup_child(&mut st, parent, name)?;
        if d.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        if d.target == InodeId::ROOT {
            return Err(Errno::EBUSY);
        }
        let (dir, dist) = (d.target, d.dist);

        // The three-phase fan-out set. A distributed directory's entries
        // are confined to its shard set by routing, so marking the set is
        // marking every server that could hold an entry (the home is
        // always a member, so the commit's inode destruction lands). A
        // migrated centralized directory's entries live wholly at its
        // current owner — but the owner this client has recorded may be
        // one migration behind, so that rare path keeps the machine-wide
        // sweep.
        let mark_set: Vec<ServerId> = if dist {
            self.dir_shard_set(dir, true)
        } else {
            (0..self.nservers() as ServerId).collect()
        };

        // A migrated centralized directory's entries and inode live on
        // different servers, so the single-message removal no longer
        // applies: the three-phase protocol checks every server (the
        // override owner reports its entries, the home server destroys the
        // inode on commit). A client that does not yet know about the
        // migration learns it from the central attempt's NotOwner.
        let migrated = self.routing.lock().override_of(dir).is_some();
        if !dist && !migrated {
            // Centralized: a single atomic message to the home server.
            match self.call(dir.server, Request::RmdirCentral { dir }) {
                Ok(Reply::NotOwner {
                    dir: rd,
                    epoch,
                    owner,
                }) => {
                    self.learn_owner(rd, owner, epoch);
                    self.run_op(&mut st, RmdirDistOp::new(dir, mark_set))??;
                }
                r => expect_reply!(r, Reply::Unit => ())?,
            }
        } else {
            self.run_op(&mut st, RmdirDistOp::new(dir, mark_set))??;
        }

        // Remove the entry from the parent and drop the cached dentry.
        let _ = expect_reply!(
            self.call_entry(parent.ino, parent.dist, name, |lib| Request::RmMap {
                client: lib.id,
                dir: parent.ino,
                name: name.to_string(),
                must_be_file: false,
            }),
            Reply::RmMapped { target, ftype } => (target, ftype)
        )?;
        st.dircache.remove(parent.ino, name);
        Ok(())
    }

    // (The three-phase distributed removal protocol lives in
    // [`RmdirDistOp`] below, driven by the operation engine.)

    // ----- rename ----------------------------------------------------------

    pub(crate) fn rename_impl(&self, old: &str, new: &str) -> FsResult<()> {
        self.syscall();
        let old_n = fsapi::path::normalize(old)?;
        let new_n = fsapi::path::normalize(new)?;
        if old_n == new_n {
            return Ok(());
        }
        // POSIX: renaming a directory into its own subtree is invalid
        // (would disconnect the subtree from the namespace).
        if new_n.starts_with(old_n.as_str()) && new_n.as_bytes().get(old_n.len()) == Some(&b'/') {
            return Err(Errno::EINVAL);
        }
        let mut st = self.state.lock();
        // Lockstep prefetch: both parent chains resolve concurrently
        // through the batched transport.
        let ((old_dir, old_name), (new_dir, new_name)) =
            self.resolve_parent_pair(&mut st, &old_n, &new_n)?;
        fsapi::path::validate_name(new_name)?;
        let d = self.lookup_child(&mut st, old_dir, old_name)?;

        // Paper §3.3: "rename first contacts the server storing the new
        // name, to create (or replace) a hard link with the new name, and
        // then contacts the server storing the old name to unlink it."
        // The engine's ordered step keeps exactly that order — and when
        // both names hash to the same shard server, the pair travels as
        // one batched exchange instead of two RPCs. The displaced target's
        // link-decref (if any) is the op's optional third step. Shards are
        // routed at emit time so a NotOwner redirect (a parent's shard
        // migrated) re-issues just the bounced half at the new owner.
        self.run_op(
            &mut st,
            RenameCommitOp {
                new_dir,
                new_name,
                old_dir,
                old_name,
                moved: d,
                sent: RenameSent::Nothing,
                add_done: false,
                rm_done: false,
                replaced: None,
                failed: None,
                redirects: self
                    .retry_budget(self.owner_count(old_dir.dist) + self.owner_count(new_dir.dist))
                    as u32,
            },
        )??;

        st.dircache.remove(old_dir.ino, old_name);
        if self.cfg.techniques.dircache {
            st.dircache.insert(new_dir.ino, new_name, d);
        }
        Ok(())
    }

    // ----- readdir ---------------------------------------------------------

    pub(crate) fn readdir_impl(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        Ok(self
            .readdir_inner(path, false)?
            .into_iter()
            .map(|(e, _)| e)
            .collect())
    }

    /// The shared listing walk behind `readdir` and `readdir_plus`: each
    /// entry comes back with the stat the fused `List` terminal prefetched
    /// for it, if any (`plus` asks the final chain server to stat every
    /// listed entry whose inode it stores).
    fn readdir_inner(&self, path: &str, plus: bool) -> FsResult<Vec<(DirEntry, Option<Stat>)>> {
        self.syscall();
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;

        // Chain the resolution into the listing: the final server of the
        // LookupPath chain returns *its* shard of the target directory in
        // the resolution reply, so the fan-out below skips it — and a
        // centralized directory listed by its own home server costs no
        // fan-out round at all.
        let t = &self.cfg.techniques;
        let mut pre: Option<PrefetchedPage> = None;
        let dir = if !comps.is_empty() && t.chained_resolution && t.fused_terminal {
            let out = self.run_op(
                &mut st,
                FusedPathOp::new(self.root_ref(), &comps, TerminalOp::List { plus }),
            )?;
            let d = out.dentry.ok_or(Errno::ENOENT)?;
            if d.ftype != FileType::Directory {
                return Err(Errno::ENOTDIR);
            }
            if let Some(TerminalReply::List {
                server,
                entries,
                stats,
                next,
            }) = out.term
            {
                pre = Some((server, entries, stats, next));
            }
            DirRef {
                ino: d.target,
                dist: d.dist,
            }
        } else {
            self.resolve_dir(&mut st, &comps)?
        };

        let with_stats = |entries: Vec<DirEntry>, stats: Vec<Option<Stat>>| {
            let mut stats = stats.into_iter();
            entries
                .into_iter()
                .map(|e| {
                    let s = stats.next().flatten();
                    (e, s)
                })
                .collect::<Vec<_>>()
        };

        // Seed the paged walk. Distributed: one first-page cursor per
        // *owned shard* — the directory's home-anchored shard set, not
        // every server on the machine — with the shard that rode the
        // resolution chain entering at its continuation cursor (or skipped
        // entirely when its first page was the whole shard). Centralized:
        // everything lives at the directory's home per the routing table;
        // if that is the server that answered the chain, only the
        // continuation (if any) remains.
        let (mut out, pending): (Vec<ListedEntry>, Vec<PageCursor>) = if dir.dist {
            let pre_server = pre.as_ref().map(|&(s, ..)| s);
            let mut pending: Vec<PageCursor> = self
                .dir_shard_set(dir.ino, true)
                .into_iter()
                .filter(|s| pre_server != Some(*s))
                .map(|s| (s, None))
                .collect();
            let out = match pre {
                Some((server, entries, stats, next)) => {
                    if let Some(cursor) = next {
                        pending.push((server, Some(cursor)));
                    }
                    with_stats(entries, stats)
                }
                None => Vec::new(),
            };
            (out, pending)
        } else {
            let home = self.dir_home_of(dir.ino);
            match pre {
                Some((server, entries, stats, next)) if server == home => (
                    with_stats(entries, stats),
                    next.map(|c| (server, Some(c))).into_iter().collect(),
                ),
                // First page read-routed: a replica serves the listing
                // too (the name cursor is copy-independent, so later
                // pages may land anywhere in the read set).
                _ => {
                    let s = self.read_server_of(dir.ino);
                    if s != home {
                        self.machine
                            .otrace
                            .tag_next(crate::otrace::Cause::ReplicaRead);
                    }
                    (Vec::new(), vec![(s, None)])
                }
            }
        };
        let listed = self.run_op(
            &mut st,
            ListPagesOp {
                dir: dir.ino,
                pending,
                sent: Vec::new(),
                entries: Vec::new(),
                redirects: self.retry_budget(self.owner_count(dir.dist)),
            },
        )?;
        drop(st);
        out.extend(listed.into_iter().map(|e| (e, None)));
        self.charge(20 * out.len() as u64);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // ----- stat ------------------------------------------------------------

    pub(crate) fn stat_impl(&self, path: &str) -> FsResult<Stat> {
        self.syscall();
        let mut st = self.state.lock();
        let comps = fsapi::path::components(path)?;
        if comps.is_empty() {
            drop(st);
            return self.stat_inode(InodeId::ROOT);
        }

        // One terminal walk: the request resolving the final component —
        // a LookupPath chain covering parents *and* final component, or
        // the final single Lookup — carries the stat, answered by that
        // server when the inode is local. A cold deep stat whose shards
        // align is one end-to-end exchange.
        let out = self.run_op(
            &mut st,
            FusedPathOp::new(self.root_ref(), &comps, TerminalOp::Stat),
        )?;
        let d = out.dentry.ok_or(Errno::ENOENT)?;
        drop(st);
        match out.term {
            Some(TerminalReply::Stat(s)) => Ok(s),
            // Remote inode: complete with the ordinary follow-up.
            _ => self.stat_inode(d.target),
        }
    }

    /// The plain `StatInode` round trip.
    fn stat_inode(&self, ino: InodeId) -> FsResult<Stat> {
        expect_reply!(
            self.call(ino.server, Request::StatInode { num: ino.num }),
            Reply::Stat(s) => s
        )
    }

    // ----- readdir + stat (the `ls -l` pattern) ----------------------------

    /// Lists a directory and stats every entry, using the batched transport
    /// to group the per-entry `StatInode`s by inode server: M entries
    /// spread over N servers cost N stat exchanges instead of M RPCs.
    /// Entries whose stats rode the fused `List` terminal (their inodes
    /// live on the final chain server) are excluded from the fan-out
    /// entirely — on a deep path to a directory whose files were created
    /// by their shard's server, the whole `ls -l` is the chain plus the
    /// remaining shards.
    ///
    /// Entries whose stat fails are skipped rather than failing the whole
    /// listing — an entry can legitimately vanish between the `ListShard`
    /// fan-out and the stat (a concurrent unlink), exactly like `ls -l`
    /// dropping a file that disappears mid-listing.
    pub fn readdir_plus(&self, path: &str) -> FsResult<Vec<(DirEntry, Stat)>> {
        self.traced("readdir_plus", || {
            let entries = self.readdir_inner(path, true)?;
            let reqs: Vec<(ServerId, Request)> = entries
                .iter()
                .filter(|(_, s)| s.is_none())
                .map(|(e, _)| (e.server, Request::StatInode { num: e.ino }))
                .collect();
            let mut replies = self.call_grouped(reqs, false).into_iter();
            Ok(entries
                .into_iter()
                .filter_map(|(e, pre)| match pre {
                    Some(s) => Some((e, s)),
                    None => match replies.next() {
                        Some(Ok(Reply::Stat(s))) => Some((e, s)),
                        _ => None,
                    },
                })
                .collect())
        })
    }
}

/// One shard's place in a paged listing: the server to ask and the name
/// cursor to resume after (`None` asks for the first page).
type PageCursor = (ServerId, Option<String>);

/// The first page a fused `List` terminal prefetched during resolution:
/// the answering server, its entries and per-entry stats, and the
/// continuation cursor if its shard didn't fit in one page.
type PrefetchedPage = (ServerId, Vec<DirEntry>, Vec<Option<Stat>>, Option<String>);

/// A listed entry with the stat prefetched for it, if any.
type ListedEntry = (DirEntry, Option<Stat>);

/// A paged directory listing, as an engine-driven state machine: every
/// outstanding shard advances one page per round through the batched
/// transport, so a listing over S shards whose deepest shard needs P
/// pages costs max(P) grouped exchanges, not S×P round trips. The cursor
/// is a *name* (the last one the previous page returned), so it stays
/// valid across concurrent inserts and removes — and across a wholesale
/// shard migration: a `NotOwner` between pages (a centralized shard moved
/// mid-listing) re-issues the same cursor at the learned owner.
struct ListPagesOp {
    dir: InodeId,
    /// Cursors awaiting their next page; `None` asks for the first.
    pending: Vec<PageCursor>,
    /// The in-flight round, in request order (reply `i` answers `sent[i]`).
    sent: Vec<PageCursor>,
    entries: Vec<DirEntry>,
    /// Redirect budget, counted like every other redirect loop.
    redirects: usize,
}

impl MultiStepOp for ListPagesOp {
    type Out = Vec<DirEntry>;

    fn step(
        &mut self,
        lib: &ClientLib,
        _st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<Vec<DirEntry>>> {
        if let Some(rs) = replies {
            let sent = std::mem::take(&mut self.sent);
            for ((server, after), r) in sent.into_iter().zip(rs) {
                if let Ok(Reply::NotOwner { dir, epoch, owner }) = &r {
                    // A redirect from a non-home server means a replica
                    // dropped its copy mid-listing: forget the dead route
                    // and resume this cursor at the home (no-news there is
                    // tolerated — the retry already routes around the
                    // copy). A home redirect is a migration, folded in as
                    // before.
                    if server != lib.dir_home_of(*dir) {
                        lib.routing.lock().forget_replica(*dir, server);
                    }
                    lib.learn_owner(*dir, *owner, *epoch);
                    if self.redirects == 0 {
                        return Err(Errno::EIO);
                    }
                    self.redirects -= 1;
                    self.pending.push((lib.dir_home_of(self.dir), after));
                    continue;
                }
                let (entries, next) =
                    expect_reply!(r, Reply::Shard { entries, next } => (entries, next))?;
                self.entries.extend(entries);
                if let Some(cursor) = next {
                    self.pending.push((server, Some(cursor)));
                }
            }
        }
        if self.pending.is_empty() {
            return Ok(Next::Done(std::mem::take(&mut self.entries)));
        }
        self.sent = std::mem::take(&mut self.pending);
        let reqs = self
            .sent
            .iter()
            .map(|(s, after)| {
                (
                    *s,
                    Request::ListShard {
                        dir: self.dir,
                        after: after.clone(),
                        max: 0,
                    },
                )
            })
            .collect();
        Ok(Next::Run(Step::Grouped(reqs)))
    }
}

/// The mutation phase of rename, as an engine-driven state machine: the
/// ordered (fail-fast) ADD_MAP + RM_MAP pair — one batched exchange when
/// both names share a shard server — followed, when the ADD_MAP displaced
/// an existing target, by that target's link-decref. Shards are routed at
/// emit time through the client's routing table; a half answered
/// `NotOwner` (its parent's shard migrated) is re-issued alone at the
/// learned owner, so a migration mid-rename costs one extra exchange and
/// never fails the operation.
struct RenameCommitOp<'a> {
    new_dir: DirRef,
    new_name: &'a str,
    old_dir: DirRef,
    old_name: &'a str,
    /// The dentry being renamed.
    moved: CachedDentry,
    sent: RenameSent,
    add_done: bool,
    rm_done: bool,
    replaced: Option<(InodeId, FileType)>,
    /// First protocol failure; carried to the end so cleanup still runs.
    failed: Option<Errno>,
    /// Redirect budget: both halves may bounce on the *same* migration
    /// (one redirect is then no news to the table but still requires a
    /// re-send), so unlike single-request paths the loop is bounded by a
    /// count, not by epoch progress.
    redirects: u32,
}

/// What the previous step shipped.
enum RenameSent {
    Nothing,
    Pair,
    AddOnly,
    RmOnly,
    Decref,
}

impl RenameCommitOp<'_> {
    fn add_request(&self, lib: &ClientLib) -> (ServerId, Request) {
        (
            lib.shard_of(self.new_dir.ino, self.new_dir.dist, self.new_name),
            Request::AddMap {
                client: lib.id,
                dir: self.new_dir.ino,
                name: self.new_name.to_string(),
                target: self.moved.target,
                ftype: self.moved.ftype,
                dist: self.moved.dist,
                replace: true,
            },
        )
    }

    fn rm_request(&self, lib: &ClientLib) -> (ServerId, Request) {
        (
            lib.shard_of(self.old_dir.ino, self.old_dir.dist, self.old_name),
            Request::RmMap {
                client: lib.id,
                dir: self.old_dir.ino,
                name: self.old_name.to_string(),
                must_be_file: false,
            },
        )
    }

    /// Notes one redirect against the budget; an exhausted budget turns
    /// into the protocol failure a corrupted redirect chain deserves.
    fn note_redirect(&mut self, lib: &ClientLib, dir: InodeId, owner: ServerId, epoch: u64) {
        lib.learn_owner(dir, owner, epoch);
        if self.redirects == 0 {
            self.failed = Some(Errno::EIO);
            return;
        }
        self.redirects -= 1;
    }

    /// Absorbs the ADD_MAP half's reply; `step` rederives what to re-send
    /// from the `add_done`/`rm_done`/`failed` flags this updates.
    fn absorb_add(&mut self, lib: &ClientLib, reply: WireReply) {
        if let Ok(Reply::NotOwner { dir, epoch, owner }) = &reply {
            self.note_redirect(lib, *dir, *owner, *epoch);
            return;
        }
        match expect_reply!(reply, Reply::AddMapped { replaced } => replaced) {
            Ok(r) => {
                self.add_done = true;
                self.replaced = r;
            }
            Err(e) => self.failed = self.failed.or(Some(e)),
        }
    }

    /// Absorbs the RM_MAP half's reply. An `EAGAIN` while the ADD_MAP has
    /// neither succeeded nor failed is the fail-fast skip behind the
    /// ADD_MAP's *redirect* (every transport skips ordered entries after a
    /// NotOwner, preserving add-before-rm): the RM_MAP never executed and
    /// stays pending, to be re-sent together with the re-routed ADD_MAP.
    /// An `EAGAIN` after a failed ADD_MAP is the ordinary skip — the
    /// ADD_MAP's error is the operation's.
    fn absorb_rm(&mut self, lib: &ClientLib, reply: WireReply) {
        if let Ok(Reply::NotOwner { dir, epoch, owner }) = &reply {
            self.note_redirect(lib, *dir, *owner, *epoch);
            return;
        }
        if self.failed.is_some() {
            // Skipped (or moot) behind the ADD_MAP failure.
            return;
        }
        if !self.add_done && matches!(reply, Err(Errno::EAGAIN)) {
            // Skipped behind the ADD_MAP's redirect: still pending.
            return;
        }
        match expect_reply!(reply, Reply::RmMapped { target, ftype } => (target, ftype)) {
            Ok(_) => self.rm_done = true,
            Err(e) => self.failed = Some(e),
        }
    }
}

impl MultiStepOp for RenameCommitOp<'_> {
    type Out = FsResult<()>;

    fn step(
        &mut self,
        lib: &ClientLib,
        _st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<FsResult<()>>> {
        if let Some(rs) = replies {
            let mut it = rs.into_iter();
            match self.sent {
                RenameSent::Nothing => return Err(Errno::EIO),
                RenameSent::Pair => {
                    let add = it.next().ok_or(Errno::EIO)?;
                    let rm = it.next().ok_or(Errno::EIO)?;
                    self.absorb_add(lib, add);
                    self.absorb_rm(lib, rm);
                }
                RenameSent::AddOnly => {
                    let add = it.next().ok_or(Errno::EIO)?;
                    self.absorb_add(lib, add);
                }
                RenameSent::RmOnly => {
                    let rm = it.next().ok_or(Errno::EIO)?;
                    self.absorb_rm(lib, rm);
                }
                RenameSent::Decref => {
                    // The decref's reply is advisory (the displaced
                    // inode's server reclaims it regardless).
                    return Ok(Next::Done(match self.failed {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }));
                }
            }
        }
        if self.failed.is_none() {
            match (self.add_done, self.rm_done) {
                (false, false) => {
                    self.sent = RenameSent::Pair;
                    let (add, rm) = (self.add_request(lib), self.rm_request(lib));
                    return Ok(Next::Run(Step::Ordered(vec![add, rm])));
                }
                (false, true) => {
                    self.sent = RenameSent::AddOnly;
                    let (s, r) = self.add_request(lib);
                    return Ok(Next::Run(Step::Call(s, r)));
                }
                (true, false) => {
                    self.sent = RenameSent::RmOnly;
                    let (s, r) = self.rm_request(lib);
                    return Ok(Next::Run(Step::Call(s, r)));
                }
                (true, true) => {}
            }
            if let Some((displaced, _ftype)) = self.replaced.take() {
                self.sent = RenameSent::Decref;
                return Ok(Next::Run(Step::Call(
                    displaced.server,
                    Request::LinkDecref { num: displaced.num },
                )));
            }
        }
        Ok(Next::Done(match self.failed {
            Some(e) => Err(e),
            None => Ok(()),
        }))
    }
}

/// The three-phase removal protocol for distributed directories (paper
/// §3.3), as an engine-driven state machine. The mark and commit/abort
/// fan-outs travel through the batch layer (one exchange per server,
/// overlapped), and the serialization lock is always released — protocol
/// failures are carried in the operation's output instead of aborting the
/// state machine mid-protocol.
struct RmdirDistOp {
    dir: InodeId,
    /// Every server that may hold entries of the directory — the shard
    /// set for a distributed directory, the whole machine for a migrated
    /// centralized one. Always includes the home (`dir.server`), where
    /// the commit destroys the inode.
    servers: Vec<ServerId>,
    phase: RmdirPhase,
    marked: Vec<ServerId>,
    outcome: FsResult<()>,
}

enum RmdirPhase {
    /// Nothing sent yet; next step serializes at the home server.
    Serialize,
    /// Serialization requested; next step is the mark fan-out.
    Mark,
    /// Marks requested; next step commits or aborts.
    Resolve,
    /// Commit/abort requested; next step releases the lock.
    Release,
    /// Release requested; the operation is done.
    Finish,
}

impl RmdirDistOp {
    fn new(dir: InodeId, servers: Vec<ServerId>) -> Self {
        debug_assert!(servers.contains(&dir.server));
        RmdirDistOp {
            dir,
            servers,
            phase: RmdirPhase::Serialize,
            marked: Vec::new(),
            outcome: Ok(()),
        }
    }
}

impl MultiStepOp for RmdirDistOp {
    type Out = FsResult<()>;

    fn step(
        &mut self,
        _lib: &ClientLib,
        _st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<FsResult<()>>> {
        let dir = self.dir;
        let all = |req_of: fn(InodeId) -> Request| {
            Step::Grouped(self.servers.iter().map(|&s| (s, req_of(dir))).collect())
        };
        match self.phase {
            RmdirPhase::Serialize => {
                self.phase = RmdirPhase::Mark;
                Ok(Next::Run(Step::Call(
                    dir.server,
                    Request::RmdirSerialize { dir },
                )))
            }
            RmdirPhase::Mark => {
                // Phase 1 reply: the lock. A failure here aborts outright —
                // nothing was locked, so there is nothing to release.
                let mut rs = replies.ok_or(Errno::EIO)?;
                expect_reply!(rs.pop().ok_or(Errno::EIO)?, Reply::RmdirLocked => ())?;
                self.phase = RmdirPhase::Resolve;
                Ok(Next::Run(all(|dir| Request::RmdirMark { dir })))
            }
            RmdirPhase::Resolve => {
                // Phase 2 replies: marks. COMMIT everywhere if every shard
                // marked; otherwise ABORT exactly the marked shards.
                let marks = replies.ok_or(Errno::EIO)?;
                let mut all_marked = true;
                let mut failed = false;
                for (i, m) in marks.iter().enumerate() {
                    match m {
                        Ok(Reply::RmdirMark(MarkResult::Marked)) => {
                            self.marked.push(self.servers[i])
                        }
                        Ok(Reply::RmdirMark(MarkResult::NotEmpty)) => all_marked = false,
                        Ok(_) | Err(_) => {
                            all_marked = false;
                            failed = true;
                        }
                    }
                }
                self.phase = RmdirPhase::Release;
                if all_marked {
                    self.outcome = Ok(());
                    Ok(Next::Run(all(|dir| Request::RmdirCommit { dir })))
                } else {
                    self.outcome = Err(if failed { Errno::EIO } else { Errno::ENOTEMPTY });
                    Ok(Next::Run(Step::Grouped(
                        std::mem::take(&mut self.marked)
                            .into_iter()
                            .map(|s| (s, Request::RmdirAbort { dir }))
                            .collect(),
                    )))
                }
            }
            RmdirPhase::Release => {
                // Commit/abort replies are advisory; release regardless.
                self.phase = RmdirPhase::Finish;
                Ok(Next::Run(Step::Call(
                    dir.server,
                    Request::RmdirRelease { dir },
                )))
            }
            RmdirPhase::Finish => Ok(Next::Done(std::mem::replace(&mut self.outcome, Ok(())))),
        }
    }
}
