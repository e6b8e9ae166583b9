//! Client-side RPC plumbing with virtual-time accounting.
//!
//! Every exchange a client makes with a server is one [`send`] of a request
//! plus one [`wait`] for its reply. A blocking call is the two back to
//! back; a directory broadcast (§3.6.2) issues several sends before the
//! first wait; a coalesced batch (§3.6.3) is just a [`Request::Batch`]
//! carrying a request list.

use crate::machine::{Entity, Machine};
use crate::otrace::Cause;
use crate::proto::{Request, ServerMsg, WireReply};
use crate::types::ServerId;
use fsapi::Errno;
use std::sync::Arc;

/// A client's handle to one file server: its id, the core it runs on, and
/// the send side of its request queue.
#[derive(Clone)]
pub struct ServerHandle {
    /// Server index (`0..NSERVERS`).
    pub id: ServerId,
    /// Core the server is bound to.
    pub core: usize,
    /// Request queue.
    pub tx: msg::Sender<ServerMsg>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle(id={}, core={})", self.id, self.core)
    }
}

/// The default [`Cause`] a request send carries when no decision point
/// tagged it ([`crate::otrace::Tracer::tag_next`]) more specifically:
/// name-resolution traffic, coalesced batches, and the post-resolution
/// terminal follow-ups are recognizable from the request alone.
fn cause_of(req: &Request) -> Cause {
    match req {
        Request::Lookup { .. } | Request::LookupPath { .. } | Request::ListShard { .. } => {
            Cause::Resolve
        }
        Request::Batch { .. } => Cause::BatchRide,
        Request::OpenInode { .. } | Request::StatInode { .. } | Request::Create { .. } => {
            Cause::Terminal
        }
        _ => Cause::Rpc,
    }
}

/// Sends `req` to `server`, to be answered on `reply`, without waiting:
/// the caller executes the send cost (busy on its core) and the request
/// arrives at the server after the topology latency. A [`Request::Batch`]
/// counts its entries as batched ops.
pub fn send(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    req: Request,
    reply: msg::Sender<WireReply>,
) -> Result<(), Errno> {
    if let Request::Batch { reqs, .. } = &req {
        machine.msg_stats.record_batched_ops(reqs.len() as u64);
    }
    let span = machine.otrace.send_ctx(cause_of(&req));
    let t_sent = entity.work(machine, machine.cost.msg_send);
    let arrival = t_sent + machine.latency(entity.core, server.core);
    let msg = ServerMsg { req, reply, span };
    server
        .tx
        .send(msg, arrival, entity.core)
        .map_err(|_| Errno::EIO)
}

/// Collects the next reply on `reply`: the caller's timeline advances to
/// the reply's delivery time — *waiting, not busy* — then pays receive
/// cost plus a context switch if its core is time-shared (it had been
/// switched out while polling). A dropped request reads as `EIO`.
pub fn wait(
    machine: &Arc<Machine>,
    entity: &Entity,
    reply: &msg::Receiver<WireReply>,
) -> WireReply {
    let env = reply.recv().map_err(|_| Errno::EIO)?;
    entity.wait_until(machine, env.deliver_at);
    let mut cost = machine.cost.msg_recv;
    if machine.timeshared(entity.core) {
        cost += machine.cost.ctx_switch;
    }
    entity.work(machine, cost);
    env.payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HareConfig;
    use crate::proto::Reply;

    /// A toy server that answers `Unit` after `service` cycles, using the
    /// same accounting as the real file server.
    fn toy_server(
        machine: Arc<Machine>,
        core: usize,
        service: u64,
    ) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let (tx, rx) = msg::channel::<ServerMsg>(Arc::clone(&machine.msg_stats));
        machine.register_entity(core);
        let m = Arc::clone(&machine);
        let h = std::thread::spawn(move || {
            let mut now = 0u64;
            while let Ok(env) = rx.recv() {
                if matches!(env.payload.req, Request::Shutdown) {
                    break;
                }
                let mut cost = m.cost.msg_recv + service + m.cost.msg_send;
                if m.timeshared(core) {
                    cost += m.cost.ctx_switch;
                }
                now = now.max(env.deliver_at) + cost;
                m.busy.advance(core, cost);
                m.note(now);
                let deliver = now + m.latency(core, env.src_core);
                let _ = env.payload.reply.send(Ok(Reply::Unit), deliver, core);
            }
        });
        (ServerHandle { id: 0, core, tx }, h)
    }

    /// One blocking exchange: a send followed by its wait.
    fn call(
        machine: &Arc<Machine>,
        entity: &Entity,
        srv: &ServerHandle,
        req: Request,
    ) -> WireReply {
        let (tx, rx) = msg::channel(Arc::clone(&machine.msg_stats));
        send(machine, entity, srv, req, tx)?;
        wait(machine, entity, &rx)
    }

    fn shutdown(machine: &Arc<Machine>, srv: &ServerHandle, h: std::thread::JoinHandle<()>) {
        srv.tx
            .send(
                ServerMsg {
                    req: Request::Shutdown,
                    reply: msg::channel(Arc::clone(&machine.msg_stats)).0,
                    span: None,
                },
                0,
                0,
            )
            .unwrap();
        h.join().unwrap();
    }

    #[test]
    fn split_rpc_critical_path() {
        let cfg = HareConfig::timeshare(2);
        let machine = Machine::new(&cfg);
        let client = Entity::new(0, 0);
        machine.register_entity(0);
        let (srv, h) = toy_server(Arc::clone(&machine), 1, 1000);

        let r = call(&machine, &client, &srv, Request::PipeCreate);
        assert!(r.is_ok());
        let c = &machine.cost;
        // Timeline: send + latency + (recv + service + send) + latency +
        // recv; no context switches (one entity per core).
        let expect = c.msg_send
            + c.lat_same_socket
            + (c.msg_recv + 1000 + c.msg_send)
            + c.lat_same_socket
            + c.msg_recv;
        assert_eq!(client.now(), expect);
        // Busy: the client core only executed send + recv.
        assert_eq!(machine.busy.now(0), c.msg_send + c.msg_recv);
        shutdown(&machine, &srv, h);
    }

    #[test]
    fn same_core_rpc_pays_context_switches() {
        let cfg = HareConfig::timeshare(1);
        let machine = Machine::new(&cfg);
        let client = Entity::new(0, 0);
        machine.register_entity(0); // the client
        let (srv, h) = toy_server(Arc::clone(&machine), 0, 1000); // + server

        let r = call(&machine, &client, &srv, Request::PipeCreate);
        assert!(r.is_ok());
        let c = &machine.cost;
        let expect = c.msg_send
            + c.lat_same_core
            + (c.msg_recv + 1000 + c.msg_send + c.ctx_switch)
            + c.lat_same_core
            + (c.msg_recv + c.ctx_switch);
        assert_eq!(client.now(), expect);
        shutdown(&machine, &srv, h);
    }

    #[test]
    fn waiting_is_not_busy_so_peers_overlap() {
        // Two clients on different cores calling one slow server: their
        // timelines serialize at the server, but their cores stay idle
        // while waiting (the essence of the timeshare configuration).
        let cfg = HareConfig::timeshare(3);
        let machine = Machine::new(&cfg);
        let a = Entity::new(0, 0);
        let b = Entity::new(1, 0);
        machine.register_entity(0);
        machine.register_entity(1);
        let (srv, h) = toy_server(Arc::clone(&machine), 2, 50_000);

        let ta = std::thread::spawn({
            let m = Arc::clone(&machine);
            let s = srv.clone();
            move || {
                call(&m, &a, &s, Request::PipeCreate).unwrap();
                a.now()
            }
        });
        let tb = std::thread::spawn({
            let m = Arc::clone(&machine);
            let s = srv.clone();
            move || {
                call(&m, &b, &s, Request::PipeCreate).unwrap();
                b.now()
            }
        });
        let (na, nb) = (ta.join().unwrap(), tb.join().unwrap());
        // One of the two was queued behind the other at the server.
        assert!(na.max(nb) > 100_000, "server must serialize: {na} {nb}");
        // But client cores executed almost nothing.
        let c = &machine.cost;
        assert_eq!(machine.busy.now(0), c.msg_send + c.msg_recv);
        assert_eq!(machine.busy.now(1), c.msg_send + c.msg_recv);
        shutdown(&machine, &srv, h);
    }

    #[test]
    fn broadcast_overlaps_latency() {
        let cfg = HareConfig::timeshare(4);
        let machine = Machine::new(&cfg);
        let client = Entity::new(0, 0);
        machine.register_entity(0);
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for core in 1..4 {
            let (s, j) = toy_server(Arc::clone(&machine), core, 10_000);
            handles.push(s);
            joins.push(j);
        }

        let pending: Vec<_> = handles
            .iter()
            .map(|s| {
                let (tx, rx) = msg::channel(Arc::clone(&machine.msg_stats));
                send(&machine, &client, s, Request::PipeCreate, tx).unwrap();
                rx
            })
            .collect();
        let replies: Vec<_> = pending
            .iter()
            .map(|rx| wait(&machine, &client, rx))
            .collect();
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|r| r.is_ok()));
        // Parallel fan-out: the three services overlap, so the client's
        // timeline is far less than 3 sequential RPCs.
        assert!(
            client.now() < 2 * (10_000 + 5000),
            "broadcast did not overlap: {}",
            client.now()
        );

        for (s, j) in handles.iter().zip(joins) {
            shutdown(&machine, s, j);
        }
    }
}
