//! The Hare wire protocol between client libraries and file servers.
//!
//! Every request is handled by exactly one server; operations that span
//! servers (create with affinity, rename, distributed `rmdir`) are composed
//! by the client library from these primitives, never by server-to-server
//! RPC — "Hare avoids server-to-server RPCs, which simplifies reasoning
//! about possible deadlock scenarios" (paper §3.3).
//!
//! Several requests are *coalesced* forms: [`Request::Create`] performs
//! inode creation, directory-entry insertion, and descriptor open in one
//! message when the dentry and inode land on the same server
//! (message coalescing, paper §3.6.3). [`Request::Lookup`] extends the
//! same idea to the rest of the final pathname component's work: besides
//! resolving `(dir, name)` at the dentry shard, it may carry a
//! [`TerminalOp`] — the `stat` or `open` the lookup was for — which the
//! server executes in the same round trip when the target inode happens
//! to live on that same server (the common case under creation affinity
//! §3.6.4). The reply always carries the lookup result; its `term` is
//! `None` when the inode is remote (the client falls back to a separate
//! [`Request::StatInode`] / [`Request::OpenInode`]) or an open's target
//! is not a regular file.
//!
//! Bulk payloads ([`Request::WriteData`], [`Request::PipeWrite`],
//! [`Reply::Data`]) travel as `Arc<[u8]>` so the msg layer, parked pipe
//! operations, and reply clones share one buffer instead of copying it at
//! every hop.
//!
//! [`Request::Batch`] is the *batched transport*: several independent
//! requests destined for the same server travel as one message and are
//! executed in order, paying one message overhead (receive, reply send,
//! context switch) for the whole group instead of per request. This is the
//! message-aggregation idea of the multikernel literature applied to Hare's
//! client/server RPCs; the client-side grouping lives in `client/batch.rs`.
//!
//! [`Request::LookupPath`] is the one deliberate exception to the paper's
//! no-server-to-server-RPC rule (§3.3): it is a *forwardable* request. A
//! dentry server resolves as many consecutive path components as it owns
//! and, when the next component's shard is a different server, forwards the
//! remainder — carrying the original reply channel as a continuation — so
//! the final server answers the client directly. A cold deep-path
//! resolution costs one message per *run* of co-located components plus one
//! reply, instead of one round trip per component. The exception stays
//! deadlock-free because the chain is strictly feed-forward (no server ever
//! waits on another server's reply; each hop is a plain `send` and the
//! reply channel travels with the request) and bounded by an explicit hop
//! budget (`ELOOP` beyond it).
//!
//! A chain carries the same [`TerminalOp`] as a single lookup (or, for
//! a `readdir`, the request for the first shard of the listing). The
//! server that resolves the last component executes it — strictly
//! locally, against its own inode shard — and returns the result in the
//! same [`Reply::Path`], so a cold deep `stat` or `open` whose shards
//! align is **one end-to-end exchange**. When the terminal inode lives
//! elsewhere the server answers the resolved dentry alone (`term: None`)
//! and the client completes with the ordinary follow-up RPC; the terminal
//! op never adds a forward, so the feed-forward deadlock argument is
//! untouched.

use crate::types::{ClientId, FdId, InodeId, ServerId};
use fsapi::{DirEntry, Errno, FileType, Mode, OpenFlags, Stat, Whence};
use std::sync::Arc;

// Placement note: every request below that names a `(dir, name)` entry (or
// a whole directory's shard) is routed by the epoch-versioned routing
// table (`crate::placement`), which defaults to the paper's hash. A server
// that receives an entry operation for a directory whose shard migrated
// away answers [`Reply::NotOwner`] instead of executing it; the migration
// protocol itself is the `Migrate*` quartet below, composed by the client
// like every other multi-server protocol (still no server-to-server RPC
// beyond the feed-forward chain forwarding).

/// A directory-cache invalidation callback, sent by a server to every client
/// that has `(dir, name)` cached (paper §3.6.1). Thanks to atomic message
/// delivery the server proceeds as soon as `send()` returns.
#[derive(Debug, Clone)]
pub struct Invalidation {
    /// Directory whose entry changed.
    pub dir: InodeId,
    /// The entry name.
    pub name: String,
}

/// One resolved component of a chained [`Request::LookupPath`] walk:
/// everything a [`Reply::Lookup`] would have carried for that component.
/// The client reconstructs `(dir, name)` keys from its own component list,
/// so entries only need the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// The inode the component resolves to.
    pub target: InodeId,
    /// Its type.
    pub ftype: FileType,
    /// Distribution flag for directory targets.
    pub dist: bool,
    /// True when a read **replica** copy (not the owning shard) served
    /// this component. The client must not cache such an entry: replicas
    /// keep no tracking lists, so nothing would ever invalidate it.
    pub replica: bool,
}

/// The operation fused into the final component's resolution: what the
/// client actually wanted the lookup *for*. It rides a single
/// [`Request::Lookup`] of that component or, with the `fused_terminal`
/// technique, the tail of a chained [`Request::LookupPath`] walk. The
/// server that resolves the final component executes it locally when it
/// can and returns a [`TerminalReply`] in the same reply; otherwise it
/// answers the resolved dentry alone and the client falls back to the
/// ordinary follow-up RPC. Execution is strictly local — a terminal op
/// never forwards to a peer — so the chain's feed-forward no-deadlock
/// argument is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalOp {
    /// Pure resolution; the walk has no fused tail.
    None,
    /// `stat` of the final component: answered when the target inode
    /// lives on the final server.
    Stat,
    /// `open` of the final component: answered when the target is a
    /// regular file whose inode lives on the final server.
    Open {
        /// Open flags for the coalesced open (handles `O_TRUNC`).
        flags: OpenFlags,
    },
    /// `open(O_CREAT)` of the final component: like [`TerminalOp::Open`]
    /// when the name exists, but on a chain a *missing* final component is
    /// created — inode, directory entry, and descriptor in one coalesced
    /// step, the chained form of [`Request::Create`] with `add_map` +
    /// `open` — so a cold create-open whose shards align is one end-to-end
    /// exchange. The final server is by construction the dentry shard
    /// owner; creation is answered only when the placement policy would
    /// also put the inode there (otherwise the walk reports `ENOENT` as
    /// usual and the client runs the ordinary affinity-placed create). A
    /// single [`Request::Lookup`] never creates: a missing name is
    /// `ENOENT` and the client's create tail takes over. Never used for
    /// `O_CREAT|O_EXCL`, whose probe-elision path answers the existence
    /// question through a plain create.
    Create {
        /// Open flags for the coalesced open.
        flags: OpenFlags,
        /// Permission bits for the created file.
        mode: Mode,
    },
    /// The final server's shard of the target directory's listing (the
    /// chained head of a `readdir` fan-out; chains only): the client then only fans
    /// [`Request::ListShard`] to the *other* servers. With `plus`, the
    /// server additionally stats every listed entry whose inode it stores
    /// (the `readdir_plus` / `ls -l` fusion), so those entries need no
    /// follow-up `StatInode`.
    List {
        /// Fuse per-entry stats for locally stored inodes into the reply.
        plus: bool,
    },
}

/// A fused terminal result, carried in [`Reply::Lookup::term`] or
/// [`Reply::Path::term`].
#[derive(Debug, Clone)]
pub enum TerminalReply {
    /// The coalesced stat.
    Stat(Stat),
    /// The coalesced open.
    Open(OpenResult),
    /// The coalesced create+open of a previously missing final component
    /// (answering [`TerminalOp::Create`]); the created file's dentry is
    /// also appended to the reply's `entries`, so the client caches it
    /// like any resolved component.
    Created {
        /// The new inode.
        ino: InodeId,
        /// The open descriptor.
        open: OpenResult,
    },
    /// One server's shard of the target directory listing, tagged with the
    /// answering server so the client can skip it in the fan-out. Bounded
    /// like a standalone [`Request::ListShard`] page: a shard larger than
    /// the server's page limit returns its first page plus a continuation
    /// cursor, and the client pages through the rest with ordinary
    /// `ListShard` requests at the same server.
    List {
        /// The server whose shard `entries` is.
        server: ServerId,
        /// The first page of entries stored at that server.
        entries: Vec<DirEntry>,
        /// With [`TerminalOp::List::plus`]: one slot per entry, `Some`
        /// when the entry's inode is stored on the answering server (its
        /// stat rides the chain). Empty without `plus`.
        stats: Vec<Option<Stat>>,
        /// Continuation cursor when the shard exceeded one page.
        next: Option<String>,
    },
}

/// One directory entry in flight during a shard migration (the payload of
/// [`Request::MigrateInstall`], snapshotted by [`Reply::MigrateSnapshot`]).
#[derive(Debug, Clone)]
pub struct MigEntry {
    /// Entry name.
    pub name: String,
    /// The inode the entry points at.
    pub target: InodeId,
    /// Target type.
    pub ftype: FileType,
    /// Distribution flag for directory targets.
    pub dist: bool,
}

/// Result of the mark phase of the three-phase `rmdir` protocol (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkResult {
    /// This server holds no entries of the directory; it is now marked.
    Marked,
    /// This server still holds entries; the directory cannot be removed.
    NotEmpty,
}

/// A request from a client library to one file server.
#[derive(Debug)]
pub enum Request {
    /// Introduces a client and its invalidation queue to the server.
    Register {
        /// The registering client.
        client: ClientId,
        /// Core the client runs on (for invalidation delivery latency).
        core: usize,
        /// Channel on which the server delivers [`Invalidation`]s.
        inval: msg::Sender<Invalidation>,
    },
    /// Removes a client's registration and cache-tracking state (sent at
    /// process exit).
    Unregister {
        /// The departing client.
        client: ClientId,
    },

    // ----- Directory entries (this server is the shard for (dir, name)) --
    /// `lookup(dir, name) -> (server, inode)` (paper §3.6.1). The server
    /// records the client in the entry's tracking list for future
    /// invalidations — misses included, so negative cache entries receive
    /// invalidations too. With a `terminal` other than
    /// [`TerminalOp::None`] the server also executes the final
    /// component's stat/open when the target inode is stored here (see
    /// [`TerminalOp`]), extending §3.6.3 message coalescing to the
    /// open-existing and stat paths.
    Lookup {
        /// Requesting client (tracked for invalidation).
        client: ClientId,
        /// Parent directory inode.
        dir: InodeId,
        /// Entry name.
        name: String,
        /// The fused final-component operation.
        terminal: TerminalOp,
    },
    /// Inserts a directory entry (the paper's ADD_MAP). With `replace`,
    /// atomically replaces an existing non-directory target (rename).
    AddMap {
        /// Mutating client (skipped when broadcasting invalidations).
        client: ClientId,
        /// Parent directory inode.
        dir: InodeId,
        /// New entry name.
        name: String,
        /// Inode the entry points at.
        target: InodeId,
        /// Type of the target (stored in the entry so `readdir` and
        /// resolution need not contact the inode server).
        ftype: FileType,
        /// For directory targets: the directory's distribution flag.
        dist: bool,
        /// Replace an existing entry (rename semantics) instead of failing
        /// with `EEXIST`.
        replace: bool,
    },
    /// Removes a directory entry (the paper's RM_MAP), returning the target
    /// so the client can decrement its link count.
    RmMap {
        /// Mutating client.
        client: ClientId,
        /// Parent directory inode.
        dir: InodeId,
        /// Entry name.
        name: String,
        /// `unlink` sets this so directories are rejected with `EISDIR`;
        /// `rmdir`/`rename` cleanup clears it.
        must_be_file: bool,
    },
    /// Lists this server's shard of a directory (`readdir` fan-out,
    /// paper §3.6.2), one bounded page at a time.
    ///
    /// Pages walk the shard in lexicographic name order: `after: None`
    /// starts at the beginning, and a [`Reply::Shard`] whose `next` is
    /// `Some(name)` is continued by re-asking with `after: Some(name)`.
    /// The cursor is a *name*, not an index, so entries created or
    /// removed between pages never shift the window — an entry alive for
    /// the whole listing appears exactly once. Directories small enough
    /// for one page (`next: None` on the first reply) cost exactly the
    /// seed's single exchange.
    ListShard {
        /// Directory inode.
        dir: InodeId,
        /// Resume strictly after this name (`None` = from the start).
        after: Option<String>,
        /// Client-requested page bound; `0` leaves the server's
        /// configured [`list_page_max`](crate::config::HareConfig::list_page_max)
        /// as the only bound (the server clamps to it either way, so a
        /// greedy client cannot blow the arena).
        max: u32,
    },

    /// Chained multi-component resolution (server-side `LookupPath`
    /// forwarding; see the module docs). The receiving server resolves
    /// consecutive components of `comps` starting in `dir` for as long as
    /// it owns their shard, then either replies [`Reply::Path`] to the
    /// client or forwards the remainder (with the resolved prefix
    /// accumulated in `acc`) to the next component's owner. Every resolved
    /// component is tracked for invalidation exactly like
    /// [`Request::Lookup`], misses included, so the client may cache the
    /// whole prefix.
    LookupPath {
        /// Requesting client (tracked for invalidation at every hop).
        client: ClientId,
        /// Directory the first component of `comps` is resolved in.
        dir: InodeId,
        /// Effective distribution flag of `dir` (routing).
        dist: bool,
        /// The remaining pathname components.
        comps: Vec<String>,
        /// Components already resolved by earlier servers in the chain, in
        /// path order; the final reply carries `acc` + the local results.
        /// (Forwards preserve the envelope's `src_core`, so the final
        /// server computes the reply latency to the originating client,
        /// not to the previous hop.)
        acc: Vec<PathEntry>,
        /// Forwards taken so far. Every legitimate hop lands at the owner
        /// of its first remaining component and therefore resolves at
        /// least one, so the hop budget (components + a small slack for
        /// mis-routed requests) bounds any chain; beyond it the server
        /// answers `ELOOP` instead of forwarding again.
        hops: u32,
        /// The fused terminal operation, executed by the server resolving
        /// the last component of `comps` (see [`TerminalOp`]).
        terminal: TerminalOp,
    },

    /// The batched transport: independent requests for this server shipped
    /// as one message and executed in order. The server pays one message
    /// overhead for the group plus each entry's normal service cost, and
    /// answers with [`Reply::Batch`] carrying one reply per entry.
    ///
    /// Entries must reply inline: requests that can park their reply
    /// ([`Request::PipeRead`], [`Request::PipeWrite`],
    /// [`Request::RmdirSerialize`]), nested batches, and registration
    /// messages are rejected with `EINVAL`.
    Batch {
        /// The entries, executed in order.
        reqs: Vec<Request>,
        /// With `fail_fast`, entries after the first failing one are
        /// skipped and answered `EAGAIN` (used for ordered pairs like
        /// rename's ADD_MAP + RM_MAP where the second half must not run
        /// when the first failed).
        fail_fast: bool,
    },

    // ----- Live shard migration (the dynamic placement subsystem) --------
    /// Phase 1 at the **source** (current owner): marks `dir`'s shard
    /// *migrating* — operations on the directory park exactly like behind
    /// an rmdir deletion mark — and returns a snapshot of its entries plus
    /// the directory's current placement epoch. The shard cannot change
    /// under the copy: the server is single-threaded and every later
    /// operation parks until COMMIT or ABORT.
    MigrateBegin {
        /// Directory whose shard is migrating.
        dir: InodeId,
    },
    /// Phase 2 at the **destination**: installs the snapshotted entries
    /// and the override `dir → self @ epoch` in the destination's routing
    /// table. After this the destination answers for the directory; no
    /// client routes here until the source starts redirecting, so the data
    /// is always in place before the first redirect.
    MigrateInstall {
        /// Directory whose shard is migrating.
        dir: InodeId,
        /// The migration's epoch (source's epoch + 1).
        epoch: u64,
        /// The snapshotted entries.
        entries: Vec<MigEntry>,
    },
    /// Phase 3 at the **source**: drops the migrated entries, records the
    /// redirect `dir → to @ epoch`, queues invalidations to every client
    /// tracked for the directory (through the existing per-entry tracking
    /// lists — stale caches re-resolve and pick up the redirect), and
    /// replays the operations parked since BEGIN (they now answer
    /// [`Reply::NotOwner`], so nothing in flight is ever failed).
    MigrateCommit {
        /// Directory whose shard migrated.
        dir: InodeId,
        /// The migration's epoch.
        epoch: u64,
        /// The new owner.
        to: ServerId,
    },
    /// Abandons a begun migration (the install failed): clears the
    /// migrating mark and replays the parked operations against the
    /// unchanged local shard.
    MigrateAbort {
        /// Directory whose migration is abandoned.
        dir: InodeId,
    },
    /// Reads this server's load counters (total operations served and the
    /// hottest directories by entry-operation count) — the rebalancer's
    /// input. With `reset`, the counters restart from zero so successive
    /// reports cover disjoint windows.
    LoadReport {
        /// Restart the counters after reading them.
        reset: bool,
    },

    // ----- Read replication (the read-side of dynamic placement) ---------
    /// Phase 1 at the **home** (current owner) of a centralized directory:
    /// registers `replica` as a read-only copy holder, bumps the
    /// directory's placement epoch, and returns a snapshot of its entries
    /// ([`Reply::MigrateSnapshot`], reused) **without** parking or
    /// dropping anything — the home keeps serving throughout. Refused
    /// `EAGAIN` while the directory is rmdir-marked or mid-migration
    /// (inline reject, never parked — the same discipline as
    /// [`Request::MigrateInstall`]'s pinned guard), `EINVAL` for the root
    /// and for distributed directories (their entries are already spread).
    ReplicaExport {
        /// Directory to replicate.
        dir: InodeId,
        /// The server that will hold the read-only copy.
        replica: ServerId,
    },
    /// Phase 2 at the **replica**: stores the snapshotted entries as a
    /// read-only copy of `dir` (home `home`, placement epoch `epoch`).
    /// From here this server answers lookups/stats/readdir pages for the
    /// directory; every mutation reaches it as a [`Request::ReplicaInval`]
    /// from the home. Refused `ENOENT` if the directory is tombstoned
    /// here (a committed rmdir won the race).
    ReplicaInstall {
        /// The replicated directory.
        dir: InodeId,
        /// Its home server (where writes and misses go).
        home: ServerId,
        /// Placement epoch of the replica set that includes this copy.
        epoch: u64,
        /// The snapshotted entries.
        entries: Vec<MigEntry>,
    },
    /// Retires a replica. At the **home**, unregisters `replica` from the
    /// directory's read set (and bumps the epoch); at the **replica
    /// server itself**, drops the read-only copy. The home also sends
    /// this server-to-server (one-way, like a chain forward) when a
    /// structural event — rmdir mark, migration begin — must evict every
    /// copy before it can go stale.
    ReplicaDrop {
        /// The replicated directory.
        dir: InodeId,
        /// The replica being retired.
        replica: ServerId,
    },
    /// One-way invalidation from a home server to a replica carrying the
    /// entry's **new** state: `Some` upserts the copy, `None` removes it.
    /// Converging the copy to the home's state (rather than just dropping
    /// the name) means a replica never answers a stale *negative* after a
    /// create, either. Sent as a plain peer send with no reply expected;
    /// atomic delivery plus the replica's FIFO queue give the same
    /// drain-before-next-exchange soundness as the dircache callbacks.
    ReplicaInval {
        /// The replicated directory.
        dir: InodeId,
        /// The mutated entry.
        name: String,
        /// The entry's new state at the home: `(target, type, dist)`, or
        /// `None` when the mutation removed it.
        val: Option<(InodeId, FileType, bool)>,
    },

    // ----- Three-phase rmdir (paper §3.3) --------------------------------
    /// Phase 1 at the directory's home server: serialize concurrent
    /// `rmdir`s of one directory to avoid deadlock.
    RmdirSerialize {
        /// Directory being removed.
        dir: InodeId,
    },
    /// Releases the phase-1 serialization lock.
    RmdirRelease {
        /// Directory being removed.
        dir: InodeId,
    },
    /// Phase 2 (prepare) at every server: mark the directory for deletion
    /// if this shard holds no entries. While marked, operations on the
    /// directory are delayed until COMMIT or ABORT.
    RmdirMark {
        /// Directory being removed.
        dir: InodeId,
    },
    /// Phase 3a: all servers marked successfully — delete the directory.
    /// The home server also destroys the directory's inode.
    RmdirCommit {
        /// Directory being removed.
        dir: InodeId,
    },
    /// Phase 3b: some server reported entries — remove deletion marks.
    RmdirAbort {
        /// Directory being removed.
        dir: InodeId,
    },
    /// Single-message removal of a **centralized** directory: its entries
    /// all live at its home server, so emptiness check, tombstone, and inode
    /// destruction are one atomic step.
    RmdirCentral {
        /// Directory being removed.
        dir: InodeId,
    },

    // ----- Inodes and descriptors (this server stores the inode) ---------
    /// Creates an inode; optionally also inserts the directory entry (when
    /// this server is the dentry shard — message coalescing §3.6.3) and
    /// opens a descriptor (for `open(O_CREAT)`).
    Create {
        /// Creating client.
        client: ClientId,
        /// Object type.
        ftype: FileType,
        /// Permission bits.
        mode: Mode,
        /// Distribution flag when creating a directory.
        dist: bool,
        /// Coalesced ADD_MAP: insert `(dir, name) -> new inode` locally.
        add_map: Option<(InodeId, String)>,
        /// Coalesced open: also open a descriptor with these flags.
        open: Option<OpenFlags>,
    },
    /// Opens an existing inode after permission checks, returning the
    /// block list for direct buffer-cache access (paper §3.2).
    OpenInode {
        /// Opening client.
        client: ClientId,
        /// Per-server inode number (the inode lives on this server).
        num: u64,
        /// Open flags (handles `O_TRUNC`).
        flags: OpenFlags,
    },
    /// Closes one reference to a descriptor; the last close of an orphaned
    /// (unlinked) file frees its blocks (paper §3.4). `size` carries the
    /// client's final size for files it wrote (close-to-open write-back).
    CloseFd {
        /// Descriptor handle.
        fd: FdId,
        /// New authoritative size if the closer wrote the file.
        size: Option<u64>,
    },
    /// Increments a descriptor's reference count because it is being shared
    /// with another process (fork/spawn/dup). Migrates the offset from the
    /// client to the server: the descriptor enters *shared* state
    /// (paper §3.4).
    FdIncref {
        /// Descriptor handle.
        fd: FdId,
        /// The client-held offset at migration time (ignored if the
        /// descriptor is already shared).
        offset: u64,
    },
    /// Reserves a byte range for I/O on a *shared* descriptor: the server
    /// owns the offset, advances it atomically, and returns the range plus
    /// block list; the client then moves the data through shared DRAM.
    SharedIo {
        /// Descriptor handle.
        fd: FdId,
        /// Requested transfer length.
        len: u64,
        /// Write (true) or read (false).
        write: bool,
        /// Append mode: writes start at end of file.
        append: bool,
    },
    /// `lseek` on a shared descriptor.
    SeekShared {
        /// Descriptor handle.
        fd: FdId,
        /// Seek delta.
        offset: i64,
        /// Seek origin.
        whence: Whence,
    },
    /// Extends a file's block list so it can hold `min_size` bytes
    /// (blocks come from this server's buffer-cache partition, §3.2).
    AllocBlocks {
        /// Descriptor handle.
        fd: FdId,
        /// Required file capacity in bytes.
        min_size: u64,
    },
    /// Publishes a new file size (fsync or close while keeping other
    /// descriptors open).
    SetSize {
        /// Descriptor handle.
        fd: FdId,
        /// New size.
        size: u64,
    },
    /// Truncates the file; blocks beyond the new size are *defer-freed*
    /// until every descriptor closes, so a concurrent writer on another
    /// core cannot corrupt a reallocated block (paper §3.2).
    Truncate {
        /// Descriptor handle.
        fd: FdId,
        /// New size.
        size: u64,
    },
    /// Reads file data *through the server* (used when the direct-access
    /// technique is disabled — Figure 12 ablation).
    ReadData {
        /// Descriptor handle.
        fd: FdId,
        /// Absolute file offset.
        offset: u64,
        /// Length to read.
        len: u64,
    },
    /// Writes file data *through the server* (direct access disabled).
    WriteData {
        /// Descriptor handle.
        fd: FdId,
        /// Absolute file offset (ignored with `append`).
        offset: u64,
        /// Bytes to write (shared, so retries and parking never copy).
        data: Arc<[u8]>,
        /// Append at end of file.
        append: bool,
    },
    /// Reads one stripe's bytes from shared DRAM, addressed to the
    /// stripe's *service* owner per the file's [`ExtentMap`] — any server,
    /// since DRAM is shared and the request carries the explicit block
    /// slice. Stateless (no descriptor, no inode): the client slices its
    /// open-time block list by the extent map, so stripe owners hold no
    /// per-file state and the request batches like any other. The striped
    /// data plane's read half.
    ReadStripe {
        /// The blocks covering the stripe, in file order.
        blocks: Vec<nccmem::BlockId>,
        /// Byte offset *within* the slice covered by `blocks`.
        offset: u64,
        /// Length to read.
        len: u64,
    },
    /// Writes one stripe's bytes to shared DRAM (the write half of
    /// [`Request::ReadStripe`]; same stateless addressing). Capacity is
    /// the client's problem: blocks are allocated beforehand from the home
    /// server via [`Request::AllocBlocks`], and the new size is published
    /// at close/fsync exactly like the direct-access write path.
    WriteStripe {
        /// The blocks covering the stripe, in file order.
        blocks: Vec<nccmem::BlockId>,
        /// Byte offset *within* the slice covered by `blocks`.
        offset: u64,
        /// Bytes to write (shared, so batching never copies).
        data: Arc<[u8]>,
    },
    /// Increments an inode's link count (rename bookkeeping).
    LinkIncref {
        /// Per-server inode number.
        num: u64,
    },
    /// Decrements an inode's link count; at zero the inode becomes an
    /// orphan if descriptors remain open, else it is destroyed.
    LinkDecref {
        /// Per-server inode number.
        num: u64,
    },
    /// Returns inode metadata.
    StatInode {
        /// Per-server inode number.
        num: u64,
    },

    // ----- Pipes (server-side so they can be shared across cores) --------
    /// Creates a pipe on this server; returns both descriptor handles.
    PipeCreate,
    /// Reads from a pipe; blocks (deferred reply) while the pipe is empty
    /// and writers remain.
    PipeRead {
        /// Read-end descriptor.
        fd: FdId,
        /// Maximum bytes.
        max: u64,
    },
    /// Writes to a pipe; blocks (deferred reply) while the pipe is full.
    PipeWrite {
        /// Write-end descriptor.
        fd: FdId,
        /// Bytes to write (shared, so a parked write holds no copy).
        data: Arc<[u8]>,
    },

    /// Stops the server loop (machine shutdown).
    Shutdown,
}

/// State returned to the last remaining holder of a descriptor when the
/// server migrates the offset back to the client ("it changes back to local
/// state when the reference count at the server drops to one", paper §3.4).
#[derive(Debug, Clone)]
pub struct DemoteInfo {
    /// The offset at migration time.
    pub offset: u64,
    /// Current file size.
    pub size: u64,
    /// Block list for resumed direct access.
    pub blocks: Vec<nccmem::BlockId>,
}

/// How a file's block I/O is spread over servers (the striped data
/// plane). Block *storage* never moves — every block is allocated from
/// the home server's buffer-cache partition, so migration and teardown
/// stay single-owner — but the DRAM *service* work for stripe `k`
/// (`stripe_unit` bytes) is addressed to `servers[k % servers.len()]`
/// via [`Request::ReadStripe`]/[`Request::WriteStripe`]. The map is
/// derived deterministically from the inode by the striping policy in
/// `crate::placement` (epoch 0, width < 2: all blocks serviced by the
/// home server, byte-for-byte the paper's layout), so it carries no
/// durable state: nothing to migrate, nothing to strand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentMap {
    /// Stripe unit in bytes (a multiple of the block size).
    pub stripe_unit: u64,
    /// Ordered stripe service owners; `servers[k % width]` serves stripe
    /// `k`.
    pub servers: Vec<ServerId>,
}

impl ExtentMap {
    /// Number of servers the file's I/O is spread over.
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// The server servicing stripe `k`.
    pub fn server_of(&self, stripe: u64) -> ServerId {
        self.servers[(stripe % self.servers.len() as u64) as usize]
    }

    /// The stripe covering byte `offset`.
    pub fn stripe_of(&self, offset: u64) -> u64 {
        offset / self.stripe_unit
    }
}

/// Fields returned by a successful open (plain or coalesced into `Create`).
#[derive(Debug, Clone)]
pub struct OpenResult {
    /// Server-side descriptor handle.
    pub fd: FdId,
    /// Current file size.
    pub size: u64,
    /// The file's block list for direct buffer-cache access.
    pub blocks: Vec<nccmem::BlockId>,
    /// The file's extent map when the striping policy spreads its I/O
    /// (`None` = all blocks serviced by the home server, the paper's
    /// layout). Riding the open reply — including a fused chain's
    /// [`TerminalReply::Open`] — is what makes a cold open+read one
    /// metadata exchange plus parallel stripe fetches, with zero warm-up
    /// round trips.
    pub extent: Option<ExtentMap>,
}

/// A successful reply. Failures travel as `Err(Errno)` in [`WireReply`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// Generic acknowledgment.
    Unit,
    /// Lookup hit: target inode, its type, and (for directories) the
    /// distribution flag, plus the request's fused terminal result.
    Lookup {
        /// Target inode.
        target: InodeId,
        /// Target type.
        ftype: FileType,
        /// Distribution flag for directory targets.
        dist: bool,
        /// The fused stat/open, present only when the request carried a
        /// [`TerminalOp`] and the target inode was local; otherwise the
        /// client completes with a separate [`Request::StatInode`] /
        /// [`Request::OpenInode`].
        term: Option<TerminalReply>,
    },
    /// ADD_MAP done; carries the replaced target for rename cleanup.
    AddMapped {
        /// Previously mapped target, if `replace` displaced one.
        replaced: Option<(InodeId, FileType)>,
    },
    /// RM_MAP done; carries the removed target.
    RmMapped {
        /// The inode the removed entry pointed at.
        target: InodeId,
        /// Its type.
        ftype: FileType,
    },
    /// Result of a chained [`Request::LookupPath`] walk: the dentries of
    /// every component whose *lookup* succeeded, in path order, plus why
    /// the walk stopped early (if it did). A transport-level `Err` is
    /// never used for partial progress, so the client can always cache
    /// the prefix.
    Path {
        /// Dentries of the resolved components, in path order.
        entries: Vec<PathEntry>,
        /// The error that stopped the walk. For `ENOENT` (missing entry,
        /// cacheable negatively), `EAGAIN` (the walk reached a directory
        /// marked for deletion — the client retries that component as a
        /// plain lookup, which parks until the rmdir resolves), and
        /// `ELOOP` (hop budget exhausted), the failing component is the
        /// one at index `entries.len()` — its lookup never succeeded.
        /// For `ENOTDIR` the offending component *did* resolve, so its
        /// dentry is the last element of `entries` and the error means
        /// "descending into it failed"; a client that replays `entries`
        /// with a directory check per intermediate derives the same error
        /// at the same component.
        stopped: Option<Errno>,
        /// The fused terminal result, present only when the walk resolved
        /// every component (`stopped` is `None`), the chain carried a
        /// [`TerminalOp`], and the final server could execute it locally.
        /// `None` otherwise — the client completes with the ordinary
        /// follow-up RPC, which also reproduces any authoritative error
        /// (a vanished inode, `EACCES`, …).
        term: Option<TerminalReply>,
    },
    /// One page of one shard of a directory listing.
    Shard {
        /// Entries stored at this server, in lexicographic name order,
        /// starting strictly after the request's cursor.
        entries: Vec<DirEntry>,
        /// Continuation cursor: `Some(name)` when the shard has entries
        /// beyond this page (resume with `after: Some(name)`), `None`
        /// when the listing is complete.
        next: Option<String>,
    },
    /// Inode created (with optional coalesced open).
    Created {
        /// The new inode.
        ino: InodeId,
        /// Open descriptor if requested.
        open: Option<OpenResult>,
    },
    /// Descriptor opened.
    Opened(OpenResult),
    /// Descriptor closed; `demote_peer` is true when exactly one reference
    /// remains and the survivor may return to local state (paper §3.4).
    Closed {
        /// Remaining reference count.
        refs: u32,
    },
    /// Shared-descriptor I/O reservation.
    SharedIo {
        /// Absolute offset the transfer starts at.
        offset: u64,
        /// Number of bytes reserved (may be less than asked for reads).
        len: u64,
        /// Block list covering the range.
        blocks: Vec<nccmem::BlockId>,
        /// File size after the operation.
        size: u64,
        /// When the reference count has dropped back to one, the server
        /// migrates the offset back to the client: descriptor state, size,
        /// and block list for local operation.
        demote: Option<DemoteInfo>,
    },
    /// New offset after a shared seek.
    Seeked {
        /// Resulting absolute offset.
        offset: u64,
        /// Demotion to local state, if applicable.
        demote: Option<DemoteInfo>,
    },
    /// Extended block list after allocation.
    Blocks {
        /// The file's full block list.
        blocks: Vec<nccmem::BlockId>,
        /// Current size.
        size: u64,
    },
    /// Inline data (server-mediated reads, pipe reads). The buffer is
    /// shared: cloning the reply (or re-delivering a parked one) does not
    /// copy the payload.
    Data {
        /// The bytes read.
        data: Arc<[u8]>,
        /// For pipe reads: false once all writers closed and the buffer
        /// drained (EOF).
        _eof: bool,
    },
    /// Bytes accepted by a server-mediated or pipe write.
    Written {
        /// Byte count.
        n: u64,
    },
    /// Inode metadata.
    Stat(Stat),
    /// rmdir serialization lock granted.
    RmdirLocked,
    /// Result of the rmdir mark phase on this server.
    RmdirMark(MarkResult),
    /// Pipe created.
    Pipe {
        /// Pipe identity (for fstat).
        ino: InodeId,
        /// Read-end handle.
        rfd: FdId,
        /// Write-end handle.
        wfd: FdId,
    },
    /// One reply per entry of a [`Request::Batch`], in entry order.
    Batch(Vec<WireReply>),
    /// The answering server does not hold `dir`'s shard (it migrated
    /// away): the caller should fold the redirect into its routing table —
    /// applying it only if `epoch` is newer than what it holds — and retry
    /// at `owner`. A stale route costs exactly this one extra exchange per
    /// directory.
    NotOwner {
        /// The directory whose shard moved.
        dir: InodeId,
        /// Epoch of the migration the answering server knows about.
        epoch: u64,
        /// The owner as of that epoch.
        owner: ServerId,
    },
    /// The source's snapshot answering [`Request::MigrateBegin`].
    MigrateSnapshot {
        /// The directory's placement epoch *before* this migration (the
        /// driver installs the override at `epoch + 1`).
        epoch: u64,
        /// Every entry of the shard.
        entries: Vec<MigEntry>,
    },
    /// One server's load counters answering [`Request::LoadReport`].
    Load {
        /// Operations served since the last reset.
        ops: u64,
        /// `(directory, entry ops, entry writes)` triples, hottest first
        /// (bounded). The write count is what the planner's
        /// replicate-vs-migrate decision keys on.
        hot_dirs: Vec<(InodeId, u64, u64)>,
    },
}

impl Request {
    /// The variant's wire name — span labels and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Register { .. } => "Register",
            Request::Unregister { .. } => "Unregister",
            Request::Lookup { .. } => "Lookup",
            Request::AddMap { .. } => "AddMap",
            Request::RmMap { .. } => "RmMap",
            Request::ListShard { .. } => "ListShard",
            Request::LookupPath { .. } => "LookupPath",
            Request::Batch { .. } => "Batch",
            Request::MigrateBegin { .. } => "MigrateBegin",
            Request::MigrateInstall { .. } => "MigrateInstall",
            Request::MigrateCommit { .. } => "MigrateCommit",
            Request::MigrateAbort { .. } => "MigrateAbort",
            Request::LoadReport { .. } => "LoadReport",
            Request::ReplicaExport { .. } => "ReplicaExport",
            Request::ReplicaInstall { .. } => "ReplicaInstall",
            Request::ReplicaDrop { .. } => "ReplicaDrop",
            Request::ReplicaInval { .. } => "ReplicaInval",
            Request::RmdirSerialize { .. } => "RmdirSerialize",
            Request::RmdirRelease { .. } => "RmdirRelease",
            Request::RmdirMark { .. } => "RmdirMark",
            Request::RmdirCommit { .. } => "RmdirCommit",
            Request::RmdirAbort { .. } => "RmdirAbort",
            Request::RmdirCentral { .. } => "RmdirCentral",
            Request::Create { .. } => "Create",
            Request::OpenInode { .. } => "OpenInode",
            Request::CloseFd { .. } => "CloseFd",
            Request::FdIncref { .. } => "FdIncref",
            Request::SharedIo { .. } => "SharedIo",
            Request::SeekShared { .. } => "SeekShared",
            Request::AllocBlocks { .. } => "AllocBlocks",
            Request::SetSize { .. } => "SetSize",
            Request::Truncate { .. } => "Truncate",
            Request::ReadData { .. } => "ReadData",
            Request::WriteData { .. } => "WriteData",
            Request::ReadStripe { .. } => "ReadStripe",
            Request::WriteStripe { .. } => "WriteStripe",
            Request::LinkIncref { .. } => "LinkIncref",
            Request::LinkDecref { .. } => "LinkDecref",
            Request::StatInode { .. } => "StatInode",
            Request::PipeCreate => "PipeCreate",
            Request::PipeRead { .. } => "PipeRead",
            Request::PipeWrite { .. } => "PipeWrite",
            Request::Shutdown => "Shutdown",
        }
    }
}

/// What travels back to the client.
pub type WireReply = Result<Reply, Errno>;

/// One message into a server: the request plus its reply channel.
///
/// The envelope around this carries `deliver_at` (virtual arrival time) and
/// `src_core` (for reply latency).
pub struct ServerMsg {
    /// The request body.
    pub req: Request,
    /// Where the (possibly deferred) reply goes.
    pub reply: msg::Sender<WireReply>,
    /// Causal-tracing span context ([`crate::otrace`]): present when the
    /// sender had an operation span open and tracing is enabled, `None`
    /// otherwise (and always when tracing is off — the envelope then is
    /// byte-for-byte the untraced one).
    pub span: Option<crate::otrace::SpanCtx>,
}

impl std::fmt::Debug for ServerMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerMsg({:?})", self.req)
    }
}

/// Service cycles of resolving one directory entry at a server — the base
/// cost of [`Request::Lookup`] (its handler adds the terminal's stat or
/// open half only when that half actually executes), and the
/// per-component charge of a [`Request::LookupPath`] walk (so chained and
/// per-component resolution stay comparable if this is ever retuned).
pub const LOOKUP_SERVICE_COST: u64 = 600;

/// Base service cost (cycles) of a request at the server, before per-item
/// additions computed by the handler. ADD_MAP and RM_MAP use the paper's
/// measured 1211 and 756 cycles (§5.3.3).
pub fn base_service_cost(req: &Request) -> u64 {
    match req {
        Request::Register { .. } | Request::Unregister { .. } => 200,
        Request::Lookup { .. } => LOOKUP_SERVICE_COST,
        // The chain envelope (routing + guard checks); the handler adds
        // the per-component lookup cost for every component it resolves
        // locally, so one server resolving k components costs what k
        // lookups would have, minus the k-1 elided message overheads.
        Request::LookupPath { .. } => 300,
        Request::AddMap { .. } => 1211,
        Request::RmMap { .. } => 756,
        Request::ListShard { .. } => 400,
        // Migration control messages: routing/guard work plus, for the
        // data-bearing halves, a per-entry charge added by the handler.
        Request::MigrateBegin { .. } => 500,
        Request::MigrateInstall { .. } => 500,
        Request::MigrateCommit { .. } => 400,
        Request::MigrateAbort { .. } => 300,
        Request::LoadReport { .. } => 300,
        // Replica control: export/install carry a per-entry charge added
        // by the handler, like the migration halves; the one-way
        // invalidation is a small fixed cost at the replica.
        Request::ReplicaExport { .. } => 500,
        Request::ReplicaInstall { .. } => 500,
        Request::ReplicaDrop { .. } => 300,
        Request::ReplicaInval { .. } => 150,
        Request::RmdirSerialize { .. } | Request::RmdirRelease { .. } => 300,
        Request::RmdirMark { .. } => 400,
        Request::RmdirCommit { .. } | Request::RmdirAbort { .. } => 350,
        Request::RmdirCentral { .. } => 700,
        Request::Create { .. } => 900,
        Request::OpenInode { .. } => 800,
        Request::CloseFd { .. } => 250,
        Request::FdIncref { .. } => 350,
        Request::SharedIo { .. } => 500,
        Request::SeekShared { .. } => 300,
        Request::AllocBlocks { .. } => 400,
        Request::SetSize { .. } => 250,
        Request::Truncate { .. } => 500,
        // Data-bearing requests scale with the payload: a fixed dispatch
        // cost plus ~32 bytes/cycle of marshalling (the handler adds the
        // per-block DRAM work on top). A flat cost here would let a 1 MiB
        // transfer cost the same as a 4 KiB one at the server.
        Request::ReadData { len, .. } => 150 + len / 32,
        Request::WriteData { data, .. } => 150 + data.len() as u64 / 32,
        Request::ReadStripe { len, .. } => 150 + len / 32,
        Request::WriteStripe { data, .. } => 150 + data.len() as u64 / 32,
        Request::LinkIncref { .. } | Request::LinkDecref { .. } => 300,
        Request::StatInode { .. } => 400,
        Request::PipeCreate => 600,
        Request::PipeRead { .. } => 450,
        Request::PipeWrite { .. } => 450,
        // The batch envelope itself is free: the whole point is that the
        // group pays each entry's service cost but only one message
        // overhead (receive + reply send + context switch).
        Request::Batch { reqs, .. } => reqs.iter().map(base_service_cost).sum(),
        Request::Shutdown => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibrated_costs() {
        let add = Request::AddMap {
            client: 0,
            dir: InodeId::ROOT,
            name: "x".into(),
            target: InodeId { server: 0, num: 2 },
            ftype: FileType::Regular,
            dist: false,
            replace: false,
        };
        let rm = Request::RmMap {
            client: 0,
            dir: InodeId::ROOT,
            name: "x".into(),
            must_be_file: true,
        };
        // Paper §5.3.3: ADD_MAP takes 1211 cycles and RM_MAP 756 cycles at
        // the server.
        assert_eq!(base_service_cost(&add), 1211);
        assert_eq!(base_service_cost(&rm), 756);
    }

    #[test]
    fn shutdown_is_free() {
        assert_eq!(base_service_cost(&Request::Shutdown), 0);
    }

    #[test]
    fn data_costs_scale_with_payload() {
        let read = |len| Request::ReadData {
            fd: FdId(1),
            offset: 0,
            len,
        };
        // Marshalling scales linearly at ~32 bytes/cycle over the fixed
        // dispatch cost, so a 64 KiB transfer is charged far more than a
        // 4 KiB one (the flat-500 regression this pins against).
        assert_eq!(
            base_service_cost(&read(65536)) - base_service_cost(&read(4096)),
            (65536 - 4096) / 32
        );
        let ws = |n: usize| Request::WriteStripe {
            blocks: vec![],
            offset: 0,
            data: vec![0u8; n].into(),
        };
        assert_eq!(
            base_service_cost(&ws(65536)) - base_service_cost(&ws(4096)),
            (65536 - 4096) / 32
        );
        // Stripe and through-server reads cost the same at equal payload:
        // striping never pays a protocol premium per byte.
        assert_eq!(
            base_service_cost(&read(4096)),
            base_service_cost(&Request::ReadStripe {
                blocks: vec![],
                offset: 0,
                len: 4096
            })
        );
    }

    #[test]
    fn extent_map_addresses_stripes_round_robin() {
        let e = ExtentMap {
            stripe_unit: 65536,
            servers: vec![2, 3, 0, 1],
        };
        assert_eq!(e.width(), 4);
        assert_eq!(e.stripe_of(0), 0);
        assert_eq!(e.stripe_of(65535), 0);
        assert_eq!(e.stripe_of(65536), 1);
        assert_eq!(e.server_of(0), 2);
        assert_eq!(e.server_of(5), 3);
    }

    #[test]
    fn batch_base_cost_is_sum_of_entries() {
        let batch = Request::Batch {
            reqs: vec![
                Request::StatInode { num: 2 },
                Request::StatInode { num: 3 },
                Request::ListShard {
                    dir: InodeId::ROOT,
                    after: None,
                    max: 0,
                },
            ],
            fail_fast: false,
        };
        assert_eq!(base_service_cost(&batch), 400 + 400 + 400);
        // A singleton batch costs exactly its entry: routing a request
        // through the batched transport is never a pessimization.
        let one = Request::Batch {
            reqs: vec![Request::StatInode { num: 2 }],
            fail_fast: false,
        };
        assert_eq!(
            base_service_cost(&one),
            base_service_cost(&Request::StatInode { num: 2 })
        );
    }
}
