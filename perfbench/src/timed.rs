//! Outside-in timing of the client layer.
//!
//! [`Timed`] wraps a process handle (a `ClientLib` for the trace replays,
//! a `HareProc` for the build) and implements the same `fsapi` traits by
//! delegation, recording one [`Call`] per file-system call: its host
//! duration, its virtual duration on the caller's clock, and the bytes it
//! moved. Nothing inside the program changes; the wrapper only reads the
//! host clock and the process's own virtual clock around each call.
//!
//! Calls land in one process-wide log, because the build's worker
//! processes run on threads the benchmark never sees. Recording is off
//! until [`start`] and off again after [`stop`], so set-up and checking
//! traffic stays out of the measured region.

use fsapi::{
    DirEntry, Fd, FsResult, MkdirOpts, Mode, OpenFlags, ProcFs, ProcHandle, ProcJoin, ProcMain,
    Stat, VClock, Whence,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The file-system calls the wrapper distinguishes.
pub const CALL_KINDS: [&str; 17] = [
    "open",
    "close",
    "read",
    "write",
    "lseek",
    "fsync",
    "ftruncate",
    "dup",
    "pipe",
    "unlink",
    "mkdir",
    "rmdir",
    "rename",
    "readdir",
    "stat",
    "fstat",
    "spawn",
];

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index into [`CALL_KINDS`].
    pub kind: u8,
    /// Whether the call returned `Ok`.
    pub ok: bool,
    /// Host start, in nanoseconds since the benchmark's epoch.
    pub host_start_ns: u64,
    /// Host duration in nanoseconds.
    pub host_ns: u64,
    /// CPU time of the calling thread during the call, in ns (0 unless
    /// [`start`] asked for it).
    pub cpu_ns: u64,
    /// Virtual cycles on the caller's clock across the call.
    pub v_cycles: u64,
    /// File bytes read or written by the call.
    pub bytes: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Whether calls also sample the calling thread's CPU time (two system
/// calls each); the serial replays measure CPU per operation instead.
static CALL_CPU: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Vec<Call>> = Mutex::new(Vec::new());
/// The scheduled start the replay driver last handed to `vwait`, and the
/// process CPU time when it did.
static LAST_WAIT: AtomicU64 = AtomicU64::new(0);
static LAST_WAIT_CPU: AtomicU64 = AtomicU64::new(0);

/// The benchmark's host-time origin.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host nanoseconds since [`epoch`].
pub fn host_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the valid pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime on a CPU-time clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in ns
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    cpu_ns(2)
}

/// CPU time consumed by the calling thread, in ns
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(3)
}

/// Starts recording calls (clears the log); `call_cpu` also samples each
/// call's thread CPU time.
pub fn start(call_cpu: bool) {
    LOG.lock().expect("call log poisoned").clear();
    CALL_CPU.store(call_cpu, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Stops recording calls.
pub fn stop() {
    ACTIVE.store(false, Ordering::SeqCst);
}

/// Takes every call recorded so far.
pub fn drain() -> Vec<Call> {
    std::mem::take(&mut *LOG.lock().expect("call log poisoned"))
}

/// The target of the most recent [`VClock::vwait`] through a wrapper: the
/// replay driver's scheduled start of the operation about to run.
pub fn last_wait() -> u64 {
    LAST_WAIT.load(Ordering::SeqCst)
}

/// Process CPU time at the most recent [`VClock::vwait`] through a
/// wrapper: the start of the operation the replay driver is running.
pub fn last_wait_cpu() -> u64 {
    LAST_WAIT_CPU.load(Ordering::SeqCst)
}

/// A process handle whose file-system calls are timed. Transparent, so a
/// borrowed child process can be viewed as a `Timed` one (see `spawn`).
#[repr(transparent)]
pub struct Timed<P>(pub P);

impl<P> Timed<P> {
    fn from_ref(p: &P) -> &Timed<P> {
        // SAFETY: `Timed<P>` is `repr(transparent)` over `P`, so both
        // references have the same layout and validity, and the returned
        // borrow has the lifetime of `p`.
        unsafe { &*(p as *const P).cast::<Timed<P>>() }
    }
}

impl<P: VClock> Timed<P> {
    fn rec<T>(
        &self,
        kind: u8,
        bytes: impl Fn(&T) -> u64,
        f: impl FnOnce() -> FsResult<T>,
    ) -> FsResult<T> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return f();
        }
        let cpu = CALL_CPU.load(Ordering::Relaxed);
        let v0 = self.0.vnow();
        let c0 = if cpu { thread_cpu_ns() } else { 0 };
        let h0 = host_ns();
        let out = f();
        let h1 = host_ns();
        let c1 = if cpu { thread_cpu_ns() } else { 0 };
        let v1 = self.0.vnow();
        let call = Call {
            kind,
            ok: out.is_ok(),
            host_start_ns: h0,
            host_ns: h1 - h0,
            cpu_ns: c1 - c0,
            v_cycles: v1.saturating_sub(v0),
            bytes: out.as_ref().map_or(0, &bytes),
        };
        LOG.lock().expect("call log poisoned").push(call);
        out
    }
}

fn none<T>(_: &T) -> u64 {
    0
}

impl<P: ProcFs + VClock> ProcFs for Timed<P> {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        self.rec(0, none, || self.0.open(path, flags, mode))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        self.rec(1, none, || self.0.close(fd))
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.rec(2, |n| *n as u64, || self.0.read(fd, buf))
    }
    fn write(&self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        self.rec(3, |n| *n as u64, || self.0.write(fd, buf))
    }
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> FsResult<u64> {
        self.rec(4, none, || self.0.lseek(fd, offset, whence))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.rec(5, none, || self.0.fsync(fd))
    }
    fn ftruncate(&self, fd: Fd, len: u64) -> FsResult<()> {
        self.rec(6, none, || self.0.ftruncate(fd, len))
    }
    fn dup(&self, fd: Fd) -> FsResult<Fd> {
        self.rec(7, none, || self.0.dup(fd))
    }
    fn pipe(&self) -> FsResult<(Fd, Fd)> {
        self.rec(8, none, || self.0.pipe())
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.rec(9, none, || self.0.unlink(path))
    }
    fn mkdir_opts(&self, path: &str, mode: Mode, opts: MkdirOpts) -> FsResult<()> {
        self.rec(10, none, || self.0.mkdir_opts(path, mode, opts))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.rec(11, none, || self.0.rmdir(path))
    }
    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.rec(12, none, || self.0.rename(old, new))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.rec(13, none, || self.0.readdir(path))
    }
    fn stat(&self, path: &str) -> FsResult<Stat> {
        self.rec(14, none, || self.0.stat(path))
    }
    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        self.rec(15, none, || self.0.fstat(fd))
    }
}

impl<P: VClock> VClock for Timed<P> {
    fn vnow(&self) -> u64 {
        self.0.vnow()
    }
    fn vwait(&self, t: u64) {
        LAST_WAIT.store(t, Ordering::SeqCst);
        LAST_WAIT_CPU.store(process_cpu_ns(), Ordering::SeqCst);
        self.0.vwait(t)
    }
}

impl<P: ProcHandle + VClock> ProcHandle for Timed<P> {
    fn spawn(&self, main: ProcMain<Self>) -> FsResult<ProcJoin> {
        // The child runs on a thread of the scheduling server with a
        // borrowed `P`; viewing it as a `Timed<P>` times its calls too.
        self.rec(16, none, || {
            self.0
                .spawn(Box::new(move |child: &P| main(Timed::from_ref(child))))
        })
    }
    fn core(&self) -> usize {
        self.0.core()
    }
    fn compute(&self, cycles: u64) {
        self.0.compute(cycles)
    }
}
