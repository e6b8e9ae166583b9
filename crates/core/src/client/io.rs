//! Descriptor I/O: read/write/seek/fsync/truncate/dup/pipes, plus the
//! descriptor export/import used by spawn.

use super::fd::{ExportedFd, FdEntry, FdMode};
use super::{expect_reply, ClientLib};
use crate::proto::{DemoteInfo, ExtentMap, Reply, Request, WireReply};
use crate::rpc;
use fsapi::{Errno, FileType, FsResult, OpenFlags, Stat, Whence};
use nccmem::BLOCK_SIZE;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The windowed readahead pipeline of one striped sequential reader.
///
/// While reads arrive in file order, up to `readahead_window` stripe
/// fetches stay outstanding at the stripe servers, so the next stripes'
/// service overlaps the current stripe's wait: a cold sequential scan pays
/// roughly one stripe of latency total instead of one per stripe. The
/// pipeline is pure prefetched state — any non-sequential use of the
/// descriptor (seek, write, truncate, dup/share, close) simply drops it.
///
/// Fetched payloads are held as the reply's `Arc<[u8]>` until they land in
/// a caller's buffer: the bytes are copied exactly once end-to-end.
pub(crate) struct Readahead {
    /// File offset the next sequential read must start at for the
    /// pipeline to stay valid.
    next_offset: u64,
    /// Index of the next stripe to request.
    next_stripe: u64,
    /// Outstanding fetches, oldest first (collected in send order).
    inflight: VecDeque<(u64, msg::Receiver<WireReply>)>,
    /// Fetched stripes awaiting consumption: stripe index → payload.
    ready: HashMap<u64, Arc<[u8]>>,
}

impl Readahead {
    /// A fresh pipeline positioned at `offset`.
    fn starting_at(offset: u64, stripe_unit: u64) -> Readahead {
        Readahead {
            next_offset: offset,
            next_stripe: offset / stripe_unit,
            inflight: VecDeque::new(),
            ready: HashMap::new(),
        }
    }
}

impl ClientLib {
    // ----- close -----------------------------------------------------------

    pub(crate) fn close_impl(&self, num: u32) -> FsResult<()> {
        let mut st = self.state.lock();
        let entry = st.fds.remove(num)?;
        st.readahead.remove(&num);
        drop(st);
        self.flush_entry(&entry);
        // Publish the close-to-open size only when this descriptor's view
        // *grows* what the server already knows: a stale smaller view
        // (another descriptor of the same file published a larger size
        // write-behind) must never regress it.
        let size = if entry.wrote
            && !entry.is_pipe()
            && self.cfg.techniques.direct_access
            && entry.size > entry.published_size
        {
            Some(entry.size)
        } else {
            None
        };
        let _ = expect_reply!(
            self.call(
                entry.ino.server,
                Request::CloseFd {
                    fd: entry.fdid,
                    size,
                },
            ),
            Reply::Closed { refs } => refs
        )?;
        Ok(())
    }

    /// The write-back half of close-to-open consistency: push this core's
    /// dirty private-cache blocks of the file to shared DRAM (paper §3.2).
    fn flush_entry(&self, entry: &FdEntry) {
        if entry.dirty.is_empty() {
            return;
        }
        let blocks: Vec<nccmem::BlockId> = entry
            .dirty
            .iter()
            .filter_map(|i| entry.blocks.get(*i).copied())
            .collect();
        let n = self
            .machine
            .with_cache(self.core, |cache, dram| cache.writeback_all(dram, blocks));
        self.charge(self.machine.cost.writeback_blk * n as u64);
    }

    // ----- read ------------------------------------------------------------

    pub(crate) fn read_impl(&self, num: u32, buf: &mut [u8]) -> FsResult<usize> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get_mut(num)?;
        if !entry.flags.readable() {
            return Err(Errno::EBADF);
        }
        match (entry.ftype, entry.mode) {
            (FileType::Pipe, _) => {
                let (ino, fdid) = (entry.ino, entry.fdid);
                drop(st);
                let (data, _eof) = expect_reply!(
                    self.call(
                        ino.server,
                        Request::PipeRead {
                            fd: fdid,
                            max: buf.len() as u64,
                        },
                    ),
                    Reply::Data { data, _eof } => (data, _eof)
                )?;
                self.charge(data.len() as u64 / 32);
                buf[..data.len()].copy_from_slice(&data);
                Ok(data.len())
            }
            (_, FdMode::Local { offset }) => {
                if self.cfg.techniques.direct_access {
                    if entry.extent.is_some() {
                        // Striped data plane: the extent map's servers move
                        // the bytes in parallel, pipelined by the
                        // readahead window.
                        let em = entry.extent.clone().expect("checked");
                        return self.read_striped(num, st, em, offset, buf);
                    }
                    let n = self.read_local(entry, offset, buf);
                    entry.mode = FdMode::Local {
                        offset: offset + n as u64,
                    };
                    Ok(n)
                } else {
                    // Ablation: all data moves through the file server.
                    // Drop the state lock before the RPC, like every other
                    // server-mediated branch.
                    let (ino, fdid) = (entry.ino, entry.fdid);
                    drop(st);
                    let (data, _eof) = expect_reply!(
                        self.call(
                            ino.server,
                            Request::ReadData {
                                fd: fdid,
                                offset,
                                len: buf.len() as u64,
                            },
                        ),
                        Reply::Data { data, _eof } => (data, _eof)
                    )?;
                    let mut st = self.state.lock();
                    let entry = st.fds.get_mut(num)?;
                    // The descriptor may have been shared (dup/export)
                    // while the lock was dropped: only advance a still-
                    // local offset.
                    if let FdMode::Local { .. } = entry.mode {
                        entry.mode = FdMode::Local {
                            offset: offset + data.len() as u64,
                        };
                    }
                    drop(st);
                    self.charge(data.len() as u64 / 32);
                    buf[..data.len()].copy_from_slice(&data);
                    Ok(data.len())
                }
            }
            (_, FdMode::Shared) => {
                let (ino, fdid) = (entry.ino, entry.fdid);
                drop(st);
                let r = expect_reply!(
                    self.call(
                        ino.server,
                        Request::SharedIo {
                            fd: fdid,
                            len: buf.len() as u64,
                            write: false,
                            append: false,
                        },
                    ),
                    Reply::SharedIo { offset, len, blocks, size, demote } =>
                        (offset, len, blocks, size, demote)
                )?;
                let (offset, len, blocks, _size, demote) = r;
                self.copy_from_dram(offset, len as usize, &blocks, buf);
                if let Some(d) = demote {
                    self.apply_demote(num, d);
                }
                Ok(len as usize)
            }
        }
    }

    /// Sequential read through the striped data plane: one stateless
    /// [`Request::ReadStripe`] per stripe, addressed to the stripe's
    /// server per the extent map, with up to `readahead_window` fetches in
    /// flight ahead of the copy-out. Bypasses this core's private cache —
    /// the stripe servers read shared DRAM and ship the bytes, which is
    /// what lets W servers stream one file in parallel.
    ///
    /// Exchange-count contract (pinned by tests): a cold full-file read
    /// costs exactly `ceil(size / stripe_unit)` exchanges — each stripe is
    /// requested once and prefetch never runs past EOF.
    fn read_striped(
        &self,
        num: u32,
        mut st: parking_lot::MutexGuard<'_, super::ClientState>,
        em: ExtentMap,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        let entry = st.fds.get(num)?;
        let size = entry.size;
        if offset >= size {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(size - offset) as usize;
        if n == 0 {
            return Ok(0);
        }
        let su = em.stripe_unit;
        let blocks = entry.blocks.clone();
        // Take the pipeline out of the table for the duration of the
        // exchanges (the io.rs convention: data paths do not hold the
        // state lock across RPCs). A pipeline positioned elsewhere is
        // stale prefetch — drop it and start at `offset`.
        let mut ra = st
            .readahead
            .remove(&num)
            .filter(|r| r.next_offset == offset)
            .unwrap_or_else(|| Readahead::starting_at(offset, su));
        drop(st);
        let window = self.cfg.readahead_window;
        let nstripes = size.div_ceil(su);
        let first = offset / su;
        let last = (offset + n as u64 - 1) / su;
        let mut filled = 0usize;
        for s in first..=last {
            // Top up the window before blocking on stripe `s`: the later
            // stripes' fetches overlap this one's service and wait.
            while ra.inflight.len() < window && ra.next_stripe < nstripes {
                let t = ra.next_stripe;
                ra.next_stripe += 1;
                if ra.ready.contains_key(&t) {
                    continue;
                }
                if t > last {
                    // A fetch beyond the caller's range is readahead proper
                    // — count it for the time-series observability layer
                    // and tag its send in the op's span tree.
                    self.machine
                        .events
                        .readaheads
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.machine
                        .otrace
                        .tag_next(crate::otrace::Cause::Readahead);
                }
                let p = self.send_stripe_fetch(&em, &blocks, size, t)?;
                ra.inflight.push_back((t, p));
            }
            // Collect replies (send order) until stripe `s` is in hand.
            while !ra.ready.contains_key(&s) {
                let (idx, rx) = ra.inflight.pop_front().expect("stripe was requested");
                let data = expect_reply!(
                    rpc::wait(&self.machine, &self.entity, &rx),
                    Reply::Data { data, _eof } => data
                )?;
                ra.ready.insert(idx, data);
            }
            let data = ra.ready.get(&s).expect("just collected");
            let s_start = s * su;
            let from = (offset + filled as u64 - s_start) as usize;
            // Bytes this stripe still owes the file (the last stripe is
            // short; holes return less data and read as zeros).
            let logical = (su.min(size - s_start) as usize) - from;
            let take = (n - filled).min(logical);
            let from_data = take.min(data.len().saturating_sub(from));
            buf[filled..filled + from_data].copy_from_slice(&data[from..from + from_data]);
            buf[filled + from_data..filled + take].fill(0);
            filled += take;
            // Consumed through the stripe's logical end: its payload is
            // spent.
            if (offset + filled as u64) >= s_start + su.min(size - s_start) {
                ra.ready.remove(&s);
            }
        }
        debug_assert_eq!(filled, n);
        // The single end-to-end copy, charged like every other client-side
        // payload move.
        self.charge(n as u64 / 32);
        let mut st = self.state.lock();
        ra.next_offset = offset + n as u64;
        st.readahead.insert(num, ra);
        if let Ok(entry) = st.fds.get_mut(num) {
            // The descriptor may have been shared (dup/export) while the
            // lock was dropped: only advance a still-local offset.
            if let FdMode::Local { .. } = entry.mode {
                entry.mode = FdMode::Local {
                    offset: offset + n as u64,
                };
            }
        }
        Ok(n)
    }

    /// Sends one stripe's [`Request::ReadStripe`] to its extent-map server
    /// without waiting: the block sub-list is sliced client-side from the
    /// open-time block list, so the request is self-contained and any
    /// server can service it.
    fn send_stripe_fetch(
        &self,
        em: &ExtentMap,
        blocks: &[nccmem::BlockId],
        size: u64,
        stripe: u64,
    ) -> FsResult<msg::Receiver<WireReply>> {
        let su = em.stripe_unit;
        let start = stripe * su;
        let len = su.min(size - start);
        let bps = (su as usize) / BLOCK_SIZE;
        let b0 = (stripe as usize) * bps;
        let b1 = (b0 + bps).min(blocks.len());
        let slice = blocks.get(b0..b1).unwrap_or(&[]).to_vec();
        let server = &self.servers[em.server_of(stripe) as usize];
        let req = Request::ReadStripe {
            blocks: slice,
            offset: 0,
            len,
        };
        let (tx, rx) = msg::channel(Arc::clone(&self.machine.msg_stats));
        rpc::send(&self.machine, &self.entity, server, req, tx)?;
        Ok(rx)
    }

    /// Direct buffer-cache read through this core's private cache
    /// (the paper's headline data path, §3.2/§5.4-Figure 12).
    fn read_local(&self, entry: &FdEntry, offset: u64, buf: &mut [u8]) -> usize {
        if offset >= entry.size {
            return 0;
        }
        let n = (buf.len() as u64).min(entry.size - offset) as usize;
        let mut filled = 0usize;
        let mut cost = 0u64;
        self.machine.with_cache(self.core, |cache, dram| {
            while filled < n {
                let pos = offset as usize + filled;
                let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
                let chunk = (BLOCK_SIZE - bo).min(n - filled);
                if let Some(b) = entry.blocks.get(bi) {
                    let access = cache.read(dram, *b, bo, &mut buf[filled..filled + chunk]);
                    cost += if access.is_miss() {
                        self.machine.cost.cache_miss_blk
                    } else {
                        self.machine.cost.cache_hit_blk
                    };
                } else {
                    // Hole (allocated lazily): zeros.
                    buf[filled..filled + chunk].fill(0);
                    cost += self.machine.cost.cache_hit_blk;
                }
                filled += chunk;
            }
        });
        self.charge(cost);
        n
    }

    // ----- write -----------------------------------------------------------

    pub(crate) fn write_impl(&self, num: u32, buf: &[u8]) -> FsResult<usize> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get_mut(num)?;
        if !entry.flags.writable() {
            return Err(Errno::EBADF);
        }
        let append = entry.flags.contains(OpenFlags::APPEND);
        match (entry.ftype, entry.mode) {
            (FileType::Pipe, _) => {
                let (ino, fdid) = (entry.ino, entry.fdid);
                drop(st);
                self.charge(buf.len() as u64 / 32);
                let n = expect_reply!(
                    self.call(
                        ino.server,
                        Request::PipeWrite {
                            fd: fdid,
                            // One copy into a shared buffer; the msg layer
                            // and any parking at the server then clone the
                            // Arc, not the bytes.
                            data: std::sync::Arc::from(buf),
                        },
                    ),
                    Reply::Written { n } => n
                )?;
                Ok(n as usize)
            }
            (_, FdMode::Local { offset }) => {
                let start = if append { entry.size } else { offset };
                if self.cfg.techniques.direct_access {
                    if entry.extent.is_some() {
                        // Striped data plane: write through the stripe
                        // servers (shared DRAM stays authoritative, so
                        // striped reads never miss this data). Any
                        // readahead is stale once the file mutates.
                        let em = entry.extent.clone().expect("checked");
                        st.readahead.remove(&num);
                        self.write_striped(num, &mut st, em, start, buf)?;
                    } else {
                        self.write_local(num, &mut st, start, buf)?;
                    }
                    let entry = st.fds.get_mut(num)?;
                    entry.mode = FdMode::Local {
                        offset: start + buf.len() as u64,
                    };
                } else {
                    // Ablation: write through the server, releasing the
                    // state lock for the duration of the RPC.
                    let (ino, fdid) = (entry.ino, entry.fdid);
                    drop(st);
                    let n = expect_reply!(
                        self.call(
                            ino.server,
                            Request::WriteData {
                                fd: fdid,
                                offset: start,
                                data: std::sync::Arc::from(buf),
                                append: false,
                            },
                        ),
                        Reply::Written { n } => n
                    )?;
                    debug_assert_eq!(n as usize, buf.len());
                    self.charge(buf.len() as u64 / 32);
                    let mut st = self.state.lock();
                    let entry = st.fds.get_mut(num)?;
                    entry.size = entry.size.max(start + buf.len() as u64);
                    entry.wrote = true;
                    // As in read: don't clobber a descriptor that went
                    // shared while the lock was dropped.
                    if let FdMode::Local { .. } = entry.mode {
                        entry.mode = FdMode::Local {
                            offset: start + buf.len() as u64,
                        };
                    }
                }
                Ok(buf.len())
            }
            (_, FdMode::Shared) => {
                let (ino, fdid) = (entry.ino, entry.fdid);
                drop(st);
                let r = expect_reply!(
                    self.call(
                        ino.server,
                        Request::SharedIo {
                            fd: fdid,
                            len: buf.len() as u64,
                            write: true,
                            append,
                        },
                    ),
                    Reply::SharedIo { offset, len, blocks, size, demote } =>
                        (offset, len, blocks, size, demote)
                )?;
                let (offset, len, blocks, _size, demote) = r;
                self.copy_to_dram(offset, &buf[..len as usize], &blocks);
                if let Some(d) = demote {
                    self.apply_demote(num, d);
                    let mut st = self.state.lock();
                    if let Ok(e) = st.fds.get_mut(num) {
                        e.wrote = true;
                    }
                }
                Ok(len as usize)
            }
        }
    }

    /// Direct buffer-cache write through the private cache; blocks are
    /// allocated from the file server on demand and the data stays dirty in
    /// the private cache until close/fsync writes it back.
    fn write_local(
        &self,
        num: u32,
        st: &mut parking_lot::MutexGuard<'_, super::ClientState>,
        start: u64,
        buf: &[u8],
    ) -> FsResult<()> {
        let end = start + buf.len() as u64;
        let entry = st.fds.get_mut(num)?;
        let need_blocks = (end as usize).div_ceil(BLOCK_SIZE);
        if need_blocks > entry.blocks.len() {
            let (ino, fdid) = (entry.ino, entry.fdid);
            let (blocks, _size) = expect_reply!(
                self.call(
                    ino.server,
                    Request::AllocBlocks {
                        fd: fdid,
                        min_size: end,
                    },
                ),
                Reply::Blocks { blocks, size } => (blocks, size)
            )?;
            let entry = st.fds.get_mut(num)?;
            entry.blocks = blocks;
        }
        let entry = st.fds.get_mut(num)?;
        let mut written = 0usize;
        let mut cost = 0u64;
        let mut dirtied: Vec<usize> = Vec::new();
        self.machine.with_cache(self.core, |cache, dram| {
            while written < buf.len() {
                let pos = start as usize + written;
                let (bi, bo) = (pos / BLOCK_SIZE, pos % BLOCK_SIZE);
                let chunk = (BLOCK_SIZE - bo).min(buf.len() - written);
                let access =
                    cache.write(dram, entry.blocks[bi], bo, &buf[written..written + chunk]);
                cost += if access.is_miss() {
                    self.machine.cost.cache_miss_blk
                } else {
                    self.machine.cost.cache_hit_blk
                };
                dirtied.push(bi);
                written += chunk;
            }
        });
        self.charge(cost);
        entry.dirty.extend(dirtied);
        entry.size = entry.size.max(end);
        entry.wrote = true;
        Ok(())
    }

    /// Write through the striped data plane: blocks are still allocated
    /// from the *home* server (striping spreads data service, not storage
    /// ownership), then one stateless [`Request::WriteStripe`] per touched
    /// stripe fans out through the batch transport — per-server grouping,
    /// overlapped exchanges. The bytes land in shared DRAM immediately, so
    /// nothing is dirty client-side; the size is published write-behind at
    /// close/fsync exactly like the direct-access path.
    fn write_striped(
        &self,
        num: u32,
        st: &mut parking_lot::MutexGuard<'_, super::ClientState>,
        em: ExtentMap,
        start: u64,
        buf: &[u8],
    ) -> FsResult<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let end = start + buf.len() as u64;
        let entry = st.fds.get_mut(num)?;
        let need_blocks = (end as usize).div_ceil(BLOCK_SIZE);
        if need_blocks > entry.blocks.len() {
            let (ino, fdid) = (entry.ino, entry.fdid);
            let (blocks, _size) = expect_reply!(
                self.call(
                    ino.server,
                    Request::AllocBlocks {
                        fd: fdid,
                        min_size: end,
                    },
                ),
                Reply::Blocks { blocks, size } => (blocks, size)
            )?;
            let entry = st.fds.get_mut(num)?;
            entry.blocks = blocks;
        }
        let entry = st.fds.get_mut(num)?;
        let su = em.stripe_unit;
        let bps = (su as usize) / BLOCK_SIZE;
        let mut reqs = Vec::new();
        let mut cur = start;
        while cur < end {
            let s = cur / su;
            let s_start = s * su;
            let chunk_end = end.min(s_start + su);
            let b0 = (s as usize) * bps;
            let b1 = (b0 + bps).min(entry.blocks.len());
            let slice = entry.blocks.get(b0..b1).unwrap_or(&[]).to_vec();
            let data: Arc<[u8]> =
                Arc::from(&buf[(cur - start) as usize..(chunk_end - start) as usize]);
            reqs.push((
                em.server_of(s),
                Request::WriteStripe {
                    blocks: slice,
                    offset: cur - s_start,
                    data,
                },
            ));
            cur = chunk_end;
        }
        // The one client-side copy (into the request payloads above).
        self.charge(buf.len() as u64 / 32);
        let replies = self.call_grouped(reqs, false);
        for r in replies {
            expect_reply!(r, Reply::Written { .. } => ())?;
        }
        let entry = st.fds.get_mut(num)?;
        entry.size = entry.size.max(end);
        entry.wrote = true;
        Ok(())
    }

    // ----- lseek / fsync / truncate -----------------------------------------

    pub(crate) fn lseek_impl(&self, num: u32, offset: i64, whence: Whence) -> FsResult<u64> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get_mut(num)?;
        if entry.is_pipe() {
            return Err(Errno::ESPIPE);
        }
        match entry.mode {
            FdMode::Local { offset: cur } => {
                let new = fsapi::flags::apply_seek(cur, entry.size, offset, whence)?;
                entry.mode = FdMode::Local { offset: new };
                // A repositioned descriptor invalidates any sequential
                // readahead (prefetched stripes are for the old position).
                st.readahead.remove(&num);
                Ok(new)
            }
            FdMode::Shared => {
                let (ino, fdid) = (entry.ino, entry.fdid);
                drop(st);
                let (new, demote) = expect_reply!(
                    self.call(
                        ino.server,
                        Request::SeekShared {
                            fd: fdid,
                            offset,
                            whence,
                        },
                    ),
                    Reply::Seeked { offset, demote } => (offset, demote)
                )?;
                if let Some(d) = demote {
                    self.apply_demote(num, d);
                }
                Ok(new)
            }
        }
    }

    pub(crate) fn fsync_impl(&self, num: u32) -> FsResult<()> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get_mut(num)?;
        if entry.is_pipe() {
            return Err(Errno::EINVAL);
        }
        match entry.mode {
            FdMode::Local { .. } => {
                if !entry.wrote {
                    return Ok(());
                }
                // Write back the target's dirty blocks.
                let snapshot = entry.clone();
                entry.dirty.clear();
                self.flush_entry(&snapshot);
                if !self.cfg.techniques.direct_access {
                    return Ok(());
                }
                // Write-behind size publication: size updates buffer
                // client-side as writes extend files (`size` runs ahead of
                // `published_size`), and fsync flushes *every* buffered
                // update — the target's and other written descriptors' —
                // as one grouped exchange through the batch layer. Each
                // published descriptor's dirty blocks are written back
                // first, so publication never runs ahead of data. A later
                // fsync of those descriptors then costs zero RPCs.
                //
                // Updates aggregate per *inode*, publishing the largest
                // buffered size: writes only ever grow a file, so when two
                // descriptors of one file hold different views, the larger
                // one subsumes the smaller — and a stale smaller view must
                // never overwrite a larger just-published size (the server
                // applies SetSize unconditionally).
                let mut updates: Vec<SizeUpdate> = Vec::new();
                for n in st.fds.numbers() {
                    let e = st.fds.get(n)?;
                    if e.is_pipe()
                        || !matches!(e.mode, FdMode::Local { .. })
                        || !e.wrote
                        || e.size <= e.published_size
                    {
                        continue;
                    }
                    let snap = e.clone();
                    self.flush_entry(&snap);
                    let e = st.fds.get_mut(n)?;
                    e.dirty.clear();
                    match updates.iter_mut().find(|u| u.ino == snap.ino) {
                        Some(u) => {
                            if snap.size > u.size {
                                u.size = snap.size;
                                u.fd = snap.fdid;
                            }
                            u.fds.push(n);
                        }
                        None => updates.push(SizeUpdate {
                            ino: snap.ino,
                            fd: snap.fdid,
                            size: snap.size,
                            fds: vec![n],
                        }),
                    }
                }
                if updates.is_empty() {
                    // The target's size is already published (an earlier
                    // fsync flushed it write-behind).
                    return Ok(());
                }
                let target_ino = st.fds.get(num)?.ino;
                // One grouped exchange through the batch layer, with the
                // state lock dropped for the duration of the round trips
                // (the io.rs convention — unlike the namespace ops, data
                // paths never hold the state lock across an RPC).
                drop(st);
                let replies = self.call_grouped(
                    updates
                        .iter()
                        .map(|u| {
                            (
                                u.ino.server,
                                Request::SetSize {
                                    fd: u.fd,
                                    size: u.size,
                                },
                            )
                        })
                        .collect(),
                    false,
                );
                let mut st = self.state.lock();
                let mut target_result = Ok(());
                for (u, r) in updates.iter().zip(replies) {
                    match expect_reply!(r, Reply::Unit => ()) {
                        Ok(()) => {
                            for &n in &u.fds {
                                if let Ok(e) = st.fds.get_mut(n) {
                                    // The server now knows the file holds
                                    // at least `u.size` bytes, which
                                    // subsumes this descriptor's (equal or
                                    // smaller) view.
                                    e.published_size = e.published_size.max(u.size);
                                }
                            }
                        }
                        // Only the target file's reply decides the fsync
                        // result — other files report their own errors at
                        // their own fsync or close.
                        Err(e) if u.ino == target_ino => target_result = Err(e),
                        Err(_) => {}
                    }
                }
                target_result
            }
            // Shared descriptors are server-mediated: nothing to flush.
            FdMode::Shared => Ok(()),
        }
    }

    pub(crate) fn ftruncate_impl(&self, num: u32, len: u64) -> FsResult<()> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get_mut(num)?;
        if entry.is_pipe() {
            return Err(Errno::EINVAL);
        }
        if !entry.flags.writable() {
            return Err(Errno::EINVAL);
        }
        // Flush local dirty data first: the server zeroes the truncated
        // tail in DRAM, and this core's copies must be refreshed after.
        let snapshot = entry.clone();
        let (ino, fdid) = (entry.ino, entry.fdid);
        st.readahead.remove(&num);
        self.flush_entry(&snapshot);
        self.call_unit(
            ino.server,
            Request::Truncate {
                fd: fdid,
                size: len,
            },
        )?;
        let entry = st.fds.get_mut(num)?;
        if let FdMode::Local { .. } = entry.mode {
            let keep = (len as usize).div_ceil(BLOCK_SIZE);
            let mut drop_list: Vec<nccmem::BlockId> = Vec::new();
            if entry.blocks.len() > keep {
                drop_list.extend(entry.blocks.split_off(keep));
            }
            // The last kept block had its tail zeroed server-side: drop the
            // stale private copy too.
            if len < entry.size {
                if let Some(b) = entry.blocks.last() {
                    drop_list.push(*b);
                }
            }
            entry.dirty.clear();
            let dropped = self.machine.with_cache(self.core, |cache, _| {
                cache.invalidate_all(drop_list.iter().copied())
            });
            self.charge(self.machine.cost.invalidate_blk * dropped as u64);
            entry.size = len;
            // The Truncate made the server's size authoritative: nothing
            // is buffered for this descriptor anymore.
            entry.published_size = len;
            entry.wrote = true;
        }
        Ok(())
    }

    // ----- dup / pipe / fstat ------------------------------------------------

    pub(crate) fn dup_impl(&self, num: u32) -> FsResult<u32> {
        self.syscall();
        let mut st = self.state.lock();
        let entry = st.fds.get(num)?.clone();
        // Duplicates share one offset: promote to shared state at the
        // server, exactly as a cross-process share would (paper §3.4).
        let offset = match entry.mode {
            FdMode::Local { offset } => {
                self.flush_entry(&entry);
                offset
            }
            FdMode::Shared => 0,
        };
        self.call_unit(
            entry.ino.server,
            Request::FdIncref {
                fd: entry.fdid,
                offset,
            },
        )?;
        let e = st.fds.get_mut(num)?;
        e.mode = FdMode::Shared;
        e.dirty.clear();
        let mut copy = e.clone();
        copy.mode = FdMode::Shared;
        st.readahead.remove(&num);
        st.fds.insert(copy)
    }

    pub(crate) fn pipe_impl(&self) -> FsResult<(u32, u32)> {
        self.syscall();
        // Pipes are placed on the designated nearby server (affinity) or
        // spread by client id when affinity is disabled.
        let server = if self.cfg.techniques.affinity {
            self.local_server
        } else {
            (self.id % self.servers.len() as u64) as u16
        };
        let (ino, rfd, wfd) = expect_reply!(
            self.call(server, Request::PipeCreate),
            Reply::Pipe { ino, rfd, wfd } => (ino, rfd, wfd)
        )?;
        let mut st = self.state.lock();
        let mk = |fdid, flags| FdEntry {
            ino,
            fdid,
            flags,
            ftype: FileType::Pipe,
            mode: FdMode::Shared,
            size: 0,
            blocks: Vec::new(),
            extent: None,
            dirty: HashSet::new(),
            wrote: false,
            published_size: 0,
        };
        let r = st.fds.insert(mk(rfd, OpenFlags::RDONLY))?;
        let w = st.fds.insert(mk(wfd, OpenFlags::WRONLY))?;
        Ok((r, w))
    }

    pub(crate) fn fstat_impl(&self, num: u32) -> FsResult<Stat> {
        self.syscall();
        let st = self.state.lock();
        let entry = st.fds.get(num)?.clone();
        drop(st);
        let mut stat = expect_reply!(
            self.call(
                entry.ino.server,
                Request::StatInode {
                    num: entry.ino.num,
                },
            ),
            Reply::Stat(s) => s
        )?;
        // Local written size is ahead of the server's until close/fsync.
        if let FdMode::Local { .. } = entry.mode {
            if entry.wrote {
                stat.size = stat.size.max(entry.size);
            }
        }
        Ok(stat)
    }

    // ----- spawn support ------------------------------------------------------

    /// Prepares every open descriptor for inheritance by a child process:
    /// flushes local state, increments the server-side reference count, and
    /// flips the descriptor to shared (paper §3.4/§3.5).
    pub fn export_fds(&self) -> FsResult<Vec<ExportedFd>> {
        let mut st = self.state.lock();
        // Every descriptor goes shared: all readahead state is moot.
        st.readahead.clear();
        let mut out = Vec::new();
        for num in st.fds.numbers() {
            let entry = st.fds.get(num)?.clone();
            let offset = match entry.mode {
                FdMode::Local { offset } => {
                    self.flush_entry(&entry);
                    // Drop private copies: subsequent shared I/O moves
                    // through DRAM directly.
                    let dropped = self.machine.with_cache(self.core, |cache, _| {
                        cache.invalidate_all(entry.blocks.iter().copied())
                    });
                    self.charge(self.machine.cost.invalidate_blk * dropped as u64);
                    offset
                }
                FdMode::Shared => 0,
            };
            self.call_unit(
                entry.ino.server,
                Request::FdIncref {
                    fd: entry.fdid,
                    offset,
                },
            )?;
            let e = st.fds.get_mut(num)?;
            e.mode = FdMode::Shared;
            e.dirty.clear();
            out.push(ExportedFd {
                num,
                ino: e.ino,
                fdid: e.fdid,
                flags: e.flags,
                ftype: e.ftype,
            });
        }
        Ok(out)
    }

    /// Installs inherited descriptors in a freshly spawned process.
    pub fn import_fds(&self, fds: &[ExportedFd]) {
        let mut st = self.state.lock();
        for f in fds {
            st.fds.insert_at(
                f.num,
                FdEntry {
                    ino: f.ino,
                    fdid: f.fdid,
                    flags: f.flags,
                    ftype: f.ftype,
                    mode: FdMode::Shared,
                    size: 0,
                    blocks: Vec::new(),
                    extent: None,
                    dirty: HashSet::new(),
                    wrote: false,
                    published_size: 0,
                },
            );
        }
    }

    // ----- shared-descriptor data movement -------------------------------------

    /// Applies a server-initiated demotion: the descriptor returns to local
    /// state with a fresh view of the file (treated like a re-open:
    /// invalidate the block copies this core may hold).
    fn apply_demote(&self, num: u32, d: DemoteInfo) {
        let dropped = self.machine.with_cache(self.core, |cache, _| {
            cache.invalidate_all(d.blocks.iter().copied())
        });
        self.charge(self.machine.cost.invalidate_blk * dropped as u64);
        let mut st = self.state.lock();
        st.readahead.remove(&num);
        if let Ok(e) = st.fds.get_mut(num) {
            e.mode = FdMode::Local { offset: d.offset };
            e.size = d.size;
            // The server handed this size over, so it already knows it.
            e.published_size = d.size;
            e.blocks = d.blocks;
            e.dirty.clear();
        }
    }

    /// Copies a shared-I/O read range out of DRAM, bypassing the private
    /// cache (shared descriptors must observe a coherent view).
    fn copy_from_dram(&self, offset: u64, len: usize, blocks: &[nccmem::BlockId], buf: &mut [u8]) {
        if len == 0 {
            return;
        }
        let first_bi = offset as usize / BLOCK_SIZE;
        let mut filled = 0usize;
        let mut transfers = 0u64;
        while filled < len {
            let pos = offset as usize + filled;
            let (bi, bo) = (pos / BLOCK_SIZE - first_bi, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(len - filled);
            if let Some(b) = blocks.get(bi) {
                self.machine
                    .dram
                    .read(*b, bo, &mut buf[filled..filled + chunk]);
            } else {
                buf[filled..filled + chunk].fill(0);
            }
            filled += chunk;
            transfers += 1;
        }
        // One aggregated charge for the whole transfer instead of one
        // atomic clock bump per block.
        self.charge(self.machine.cost.dram_direct_blk * transfers);
        // This core's private cache may hold stale copies of these blocks
        // from before the descriptor was shared: drop them.
        self.machine.with_cache(self.core, |cache, _| {
            cache.invalidate_all(blocks.iter().copied())
        });
    }

    /// Copies a shared-I/O write range into DRAM, bypassing the private
    /// cache.
    fn copy_to_dram(&self, offset: u64, data: &[u8], blocks: &[nccmem::BlockId]) {
        if data.is_empty() {
            return;
        }
        let first_bi = offset as usize / BLOCK_SIZE;
        let mut written = 0usize;
        let mut transfers = 0u64;
        while written < data.len() {
            let pos = offset as usize + written;
            let (bi, bo) = (pos / BLOCK_SIZE - first_bi, pos % BLOCK_SIZE);
            let chunk = (BLOCK_SIZE - bo).min(data.len() - written);
            debug_assert!(bi < blocks.len(), "server must have allocated blocks");
            self.machine
                .dram
                .write(blocks[bi], bo, &data[written..written + chunk]);
            written += chunk;
            transfers += 1;
        }
        // Aggregated, as in `copy_from_dram`.
        self.charge(self.machine.cost.dram_direct_blk * transfers);
        self.machine.with_cache(self.core, |cache, _| {
            cache.invalidate_all(blocks.iter().copied())
        });
    }
}

/// One buffered size publication of fsync's write-behind flush: the
/// inode's size grows to the largest view buffered by this client's
/// descriptors. One `SetSize` per inode ships in a single grouped
/// exchange; successes mark every subsumed descriptor's size published,
/// failures leave them buffered for the next flush.
struct SizeUpdate {
    /// The inode whose size is published (one update per inode).
    ino: crate::types::InodeId,
    /// The descriptor handle carrying the `SetSize` (the one holding the
    /// largest buffered view).
    fd: crate::types::FdId,
    /// The largest buffered size among this client's descriptors of the
    /// inode.
    size: u64,
    /// Every local descriptor number whose buffered view this update
    /// subsumes (marked published on success).
    fds: Vec<u32>,
}
