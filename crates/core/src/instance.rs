//! A running Hare machine: file servers spawned, clients mintable.

use crate::client::ClientLib;
use crate::config::HareConfig;
use crate::machine::Machine;
use crate::proto::{Request, ServerMsg};
use crate::rpc::ServerHandle;
use crate::server::Server;
use crate::types::ServerId;
use fsapi::FsResult;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A booted Hare instance: one file server thread per configured server
/// core, sharing one simulated [`Machine`].
pub struct HareInstance {
    machine: Arc<Machine>,
    cfg: Arc<HareConfig>,
    servers: Arc<Vec<ServerHandle>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_client: AtomicU64,
}

impl HareInstance {
    /// Boots the instance: normalizes the configuration once (see
    /// [`HareConfig::normalized`]) for every server and client to read,
    /// builds the machine, partitions the buffer cache among servers, and
    /// starts one server thread per server core.
    pub fn start(cfg: HareConfig) -> Arc<HareInstance> {
        let cfg = Arc::new(cfg.normalized());
        let machine = Machine::new(&cfg);
        let nservers = cfg.nservers();
        assert!(nservers > 0, "need at least one file server");
        assert!(
            cfg.dram_blocks / nservers > 0,
            "buffer cache too small for server count"
        );

        // Every server holds handles to all of its peers (for forwarding
        // chained LookupPath remainders), so the channels are created
        // up-front and the server threads spawned in a second pass.
        let mut handles = Vec::with_capacity(nservers);
        let mut rxs = Vec::with_capacity(nservers);
        for (i, &core) in cfg.server_cores.iter().enumerate() {
            let (tx, rx) = msg::channel::<ServerMsg>(Arc::clone(&machine.msg_stats));
            machine.register_entity(core);
            handles.push(ServerHandle {
                id: i as ServerId,
                core,
                tx,
            });
            rxs.push(rx);
        }
        let handles = Arc::new(handles);
        let mut threads = Vec::with_capacity(nservers);
        for (i, rx) in rxs.into_iter().enumerate() {
            let server = Server::new(
                Arc::clone(&machine),
                Arc::clone(&cfg),
                i as ServerId,
                Arc::clone(&handles),
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hare-fs-{i}"))
                    .spawn(move || server.run(rx))
                    .expect("spawn server thread"),
            );
        }
        Arc::new(HareInstance {
            machine,
            cfg,
            servers: handles,
            threads: Mutex::new(threads),
            next_client: AtomicU64::new(1),
        })
    }

    /// The shared machine (clocks, DRAM, caches).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The instance configuration, normalized.
    pub fn config(&self) -> &HareConfig {
        &self.cfg
    }

    /// Server handles (for diagnostics).
    pub fn servers(&self) -> &Arc<Vec<ServerHandle>> {
        &self.servers
    }

    /// Creates a client library for a new process on `core`.
    pub fn new_client(&self, core: usize) -> FsResult<ClientLib> {
        self.new_client_at(core, 0)
    }

    /// Creates a client library whose logical timeline begins at `start`
    /// (the spawn completion time computed by the scheduling server).
    pub fn new_client_at(&self, core: usize, start: u64) -> FsResult<ClientLib> {
        assert!(
            self.cfg.app_cores.contains(&core),
            "core {core} is not an application core"
        );
        let id = self.next_client.fetch_add(1, Ordering::SeqCst);
        ClientLib::new(
            Arc::clone(&self.machine),
            Arc::clone(&self.servers),
            Arc::clone(&self.cfg),
            id,
            core,
            start,
        )
    }

    /// Stops all server threads. Idempotent; also run on drop.
    pub fn shutdown(&self) {
        let mut threads = self.threads.lock();
        if threads.is_empty() {
            return;
        }
        for s in self.servers.iter() {
            let (tx, _rx) = msg::channel(Arc::clone(&self.machine.msg_stats));
            let _ = s.tx.send(
                ServerMsg {
                    req: Request::Shutdown,
                    reply: tx,
                    span: None,
                },
                u64::MAX,
                0,
            );
        }
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HareInstance {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_and_shuts_down() {
        let inst = HareInstance::start(HareConfig::timeshare(4));
        assert_eq!(inst.servers().len(), 4);
        inst.shutdown();
        // Idempotent.
        inst.shutdown();
    }

    #[test]
    fn client_creation_registers() {
        let inst = HareInstance::start(HareConfig::timeshare(2));
        let c = inst.new_client(0).unwrap();
        assert_eq!(c.core(), 0);
        assert_eq!(c.nservers(), 2);
        drop(c);
        inst.shutdown();
    }

    #[test]
    #[should_panic]
    fn client_on_server_only_core_rejected() {
        let inst = HareInstance::start(HareConfig::split(4, 2));
        let _ = inst.new_client(0); // core 0 is a dedicated server core
    }
}
