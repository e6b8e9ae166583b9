//! The simulated process: a thread bound to a virtual core, owning a Hare
//! client library.

use crate::policy::PlacementState;
use crate::server::{ExecRequest, SchedMsg};
use crate::signal::{signal_queue, SignalReceiver, SignalSender};
use crate::system::HareSystem;
use crate::EXEC_SEND_COST;
use fsapi::{Errno, FsResult, ProcHandle, ProcJoin, ProcMain};
use hare_core::client::fd::ExportedFd;
use hare_core::ClientLib;
use parking_lot::Mutex;
use std::sync::Arc;

/// One Hare process.
///
/// Implements [`fsapi::ProcFs`] by delegation to its client library and
/// [`fsapi::ProcHandle::spawn`] via the remote execution protocol
/// (paper §3.5).
pub struct HareProc {
    lib: Arc<ClientLib>,
    system: Arc<HareSystem>,
    placement: Mutex<PlacementState>,
    signals: Option<SignalReceiver>,
}

impl HareProc {
    /// Starts a process on `core` with inherited descriptors (used by the
    /// scheduling server and for the initial process).
    pub(crate) fn start_on(
        system: Arc<HareSystem>,
        core: usize,
        start: u64,
        exports: Vec<ExportedFd>,
        placement: PlacementState,
        signals: Option<SignalReceiver>,
    ) -> FsResult<HareProc> {
        let lib = system.instance().new_client_at(core, start)?;
        lib.import_fds(&exports);
        Ok(HareProc {
            lib: Arc::new(lib),
            system,
            placement: Mutex::new(placement),
            signals,
        })
    }

    /// The client library (for diagnostics).
    pub fn lib(&self) -> &ClientLib {
        &self.lib
    }

    /// Polls this process's signal queue (Hare relays signals through the
    /// proxy; delivery is polled, matching the prototype's polling IPC).
    pub fn signals(&self) -> Option<&SignalReceiver> {
        self.signals.as_ref()
    }

    /// Like [`ProcHandle::spawn`] but also returns the child's signal
    /// sender, so the parent (proxy) can relay signals (paper §3.5).
    pub fn spawn_with_signals(
        &self,
        main: ProcMain<HareProc>,
    ) -> FsResult<(ProcJoin, SignalSender)> {
        let machine = self.system.instance().machine();
        let parent_core = self.lib.core();
        self.lib.vwork(EXEC_SEND_COST);

        // The entire exec-point state: descriptors (now shared) + placement.
        let exports = self.lib.export_fds()?;
        let (target_core, child_placement) = {
            let mut p = self.placement.lock();
            (p.pick(self.system.app_cores()), p.inherit())
        };

        let (sig_tx, sig_rx) = signal_queue(Arc::clone(&machine.msg_stats));
        let (exit_tx, exit_rx) = msg::channel::<i32>(Arc::clone(&machine.msg_stats));
        let sched = self.system.sched_handle(target_core).ok_or(Errno::EINVAL)?;
        self.lib.vwork(machine.cost.msg_send);
        let deliver = self.lib.vnow() + machine.latency(parent_core, target_core);
        sched
            .tx
            .send(
                SchedMsg::Exec(ExecRequest {
                    exports,
                    placement: child_placement,
                    main,
                    exit_tx,
                    signals: sig_rx,
                }),
                deliver,
                parent_core,
            )
            .map_err(|_| Errno::EIO)?;

        // The caller becomes the proxy: waiting on this join handle is the
        // proxy relaying the exit status to the parent.
        let lib = Arc::clone(&self.lib);
        let join = ProcJoin::new(move || match exit_rx.recv() {
            Ok(env) => {
                lib.vwait(env.deliver_at);
                lib.vwork(lib.machine().cost.msg_recv);
                env.payload
            }
            Err(_) => -1,
        });
        Ok((join, sig_tx))
    }
}

impl ProcHandle for HareProc {
    fn spawn(&self, main: ProcMain<Self>) -> FsResult<ProcJoin> {
        self.spawn_with_signals(main).map(|(join, _sig)| join)
    }

    fn core(&self) -> usize {
        self.lib.core()
    }

    fn compute(&self, cycles: u64) {
        self.lib.vwork(cycles);
    }
}

impl fsapi::VClock for HareProc {
    fn vnow(&self) -> u64 {
        self.lib.vnow()
    }

    fn vwait(&self, t: u64) {
        self.lib.vwait(t)
    }
}

impl fsapi::ProcFs for HareProc {
    fn open(&self, path: &str, flags: fsapi::OpenFlags, mode: fsapi::Mode) -> FsResult<fsapi::Fd> {
        self.lib.open(path, flags, mode)
    }
    fn close(&self, fd: fsapi::Fd) -> FsResult<()> {
        self.lib.close(fd)
    }
    fn read(&self, fd: fsapi::Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.lib.read(fd, buf)
    }
    fn write(&self, fd: fsapi::Fd, buf: &[u8]) -> FsResult<usize> {
        self.lib.write(fd, buf)
    }
    fn lseek(&self, fd: fsapi::Fd, offset: i64, whence: fsapi::Whence) -> FsResult<u64> {
        self.lib.lseek(fd, offset, whence)
    }
    fn fsync(&self, fd: fsapi::Fd) -> FsResult<()> {
        self.lib.fsync(fd)
    }
    fn ftruncate(&self, fd: fsapi::Fd, len: u64) -> FsResult<()> {
        self.lib.ftruncate(fd, len)
    }
    fn dup(&self, fd: fsapi::Fd) -> FsResult<fsapi::Fd> {
        self.lib.dup(fd)
    }
    fn pipe(&self) -> FsResult<(fsapi::Fd, fsapi::Fd)> {
        self.lib.pipe()
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.lib.unlink(path)
    }
    fn mkdir_opts(&self, path: &str, mode: fsapi::Mode, opts: fsapi::MkdirOpts) -> FsResult<()> {
        self.lib.mkdir_opts(path, mode, opts)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.lib.rmdir(path)
    }
    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.lib.rename(old, new)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<fsapi::DirEntry>> {
        self.lib.readdir(path)
    }
    fn stat(&self, path: &str) -> FsResult<fsapi::Stat> {
        self.lib.stat(path)
    }
    fn fstat(&self, fd: fsapi::Fd) -> FsResult<fsapi::Stat> {
        self.lib.fstat(fd)
    }
}
