//! Client-side RPC plumbing with virtual-time accounting.

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

/// An RPC whose request has been sent but whose reply has not been
/// collected yet; lets callers overlap several outstanding exchanges
/// (directory broadcast, batched fan-out).
pub struct PendingCall {
    rrx: msg::Receiver<WireReply>,
}

/// A reusable reply channel for strictly serial blocking RPCs: the sender
/// half rides each request (an `Arc` bump) and the receiver half is drained
/// immediately, so steady-state calls allocate no channel. Must only be
/// used where at most one request is outstanding at a time — overlapped
/// exchanges keep their own per-call channels, since replies on a shared
/// queue arrive in completion order.
pub struct ReplySlot {
    tx: msg::Sender<WireReply>,
    rx: msg::Receiver<WireReply>,
}

impl ReplySlot {
    /// Creates the slot's channel once, up front.
    pub fn new(stats: Arc<msg::MsgStats>) -> Self {
        let (tx, rx) = msg::channel::<WireReply>(stats);
        ReplySlot { tx, rx }
    }
}

/// A reply channel for a **one-way** server→server send (the replica
/// invalidation fabric): the caller drops the returned receiver
/// immediately, so the peer's inline reply evaporates instead of being
/// awaited — the send is fire-and-forget like a dircache callback, and
/// the no-server-blocks-on-a-server invariant (§3.3) is preserved.
pub fn oneway_reply_slot(
    machine: &Arc<Machine>,
) -> (msg::Sender<WireReply>, msg::Receiver<WireReply>) {
    msg::channel::<WireReply>(Arc::clone(&machine.msg_stats))
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

/// [`call`] through a reusable [`ReplySlot`]: identical semantics and
/// virtual-time accounting, minus the per-call channel allocation.
pub fn call_reusing(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    req: Request,
    slot: &ReplySlot,
) -> WireReply {
    let span = machine.otrace.send_ctx(cause_of(&req));
    let t_sent = entity.work(machine, machine.cost.msg_send);
    let arrival = t_sent + machine.latency(entity.core, server.core);
    server
        .tx
        .send(
            ServerMsg {
                req,
                reply: slot.tx.clone(),
                span,
            },
            arrival,
            entity.core,
        )
        .map_err(|_| Errno::EIO)?;
    let env = slot.rx.recv().map_err(|_| Errno::EIO)?;
    finish_recv(machine, entity, env.deliver_at);
    env.payload
}

/// Sends one request without waiting for the reply: the caller executes the
/// send cost (busy on its core) and the request arrives at the server after
/// the topology latency.
pub fn send_call(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    req: Request,
) -> Result<PendingCall, Errno> {
    let span = machine.otrace.send_ctx(cause_of(&req));
    let (rtx, rrx) = msg::channel::<WireReply>(Arc::clone(&machine.msg_stats));
    let t_sent = entity.work(machine, machine.cost.msg_send);
    let arrival = t_sent + machine.latency(entity.core, server.core);
    server
        .tx
        .send(
            ServerMsg {
                req,
                reply: rtx,
                span,
            },
            arrival,
            entity.core,
        )
        .map_err(|_| Errno::EIO)?;
    Ok(PendingCall { rrx })
}

/// Collects the reply of a previously sent request: the caller's timeline
/// advances to the reply's delivery time — *waiting, not busy* — then pays
/// receive cost plus a context switch if its core is time-shared (it had
/// been switched out while polling).
pub fn wait_call(machine: &Arc<Machine>, entity: &Entity, pending: PendingCall) -> WireReply {
    let env = pending.rrx.recv().map_err(|_| Errno::EIO)?;
    finish_recv(machine, entity, env.deliver_at);
    env.payload
}

/// Issues one blocking RPC from `entity` to `server`: [`send_call`]
/// followed immediately by [`wait_call`]. The server's timeline serializes
/// the request with the server's other requests and its core pays the
/// service cycles (see the server loop).
pub fn call(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    req: Request,
) -> WireReply {
    let pending = send_call(machine, entity, server, req)?;
    wait_call(machine, entity, pending)
}

/// Ships `reqs` to one server as a single [`Request::Batch`] exchange and
/// unpacks the per-entry replies, preserving entry order. A transport-level
/// failure (or a protocol mismatch) fails every entry.
pub fn call_batch(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    reqs: Vec<Request>,
    fail_fast: bool,
) -> Vec<WireReply> {
    let pending = send_batch(machine, entity, server, reqs, fail_fast);
    wait_batch(machine, entity, pending)
}

/// The send half of [`call_batch`], for overlapping batches to several
/// servers. Returns the pending exchange plus the entry count.
pub fn send_batch(
    machine: &Arc<Machine>,
    entity: &Entity,
    server: &ServerHandle,
    reqs: Vec<Request>,
    fail_fast: bool,
) -> (Result<PendingCall, Errno>, usize) {
    let n = reqs.len();
    machine.msg_stats.record_batched_ops(n as u64);
    let pending = send_call(machine, entity, server, Request::Batch { reqs, fail_fast });
    (pending, n)
}

/// The collect half of [`call_batch`].
pub fn wait_batch(
    machine: &Arc<Machine>,
    entity: &Entity,
    (pending, n): (Result<PendingCall, Errno>, usize),
) -> Vec<WireReply> {
    let outcome = match pending {
        Ok(p) => wait_call(machine, entity, p),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(crate::proto::Reply::Batch(replies)) if replies.len() == n => replies,
        Ok(other) => {
            debug_assert!(false, "batch protocol mismatch: {other:?}");
            vec![Err(Errno::EIO); n]
        }
        Err(e) => vec![Err(e); n],
    }
}

/// Issues the same request (produced per-server by `mk`) to many servers.
///
/// In parallel mode (Hare's *directory broadcast*, §3.6.2) the client sends
/// all requests back-to-back and then collects the replies, overlapping the
/// RPC latency and the servers' handler execution. In sequential mode (the
/// Figure 11 ablation) each server is contacted with a full round trip
/// before the next.
pub fn multicall(
    machine: &Arc<Machine>,
    entity: &Entity,
    servers: &[ServerHandle],
    parallel: bool,
    mut mk: impl FnMut(ServerId) -> Request,
) -> Vec<WireReply> {
    if !parallel {
        return servers
            .iter()
            .map(|s| call(machine, entity, s, mk(s.id)))
            .collect();
    }
    let pending: Vec<_> = servers
        .iter()
        .map(|s| send_call(machine, entity, s, mk(s.id)))
        .collect();
    pending
        .into_iter()
        .map(|p| wait_call(machine, entity, p?))
        .collect()
}

/// Accounts for receiving a reply on the caller's entity.
fn finish_recv(machine: &Arc<Machine>, entity: &Entity, deliver_at: u64) {
    entity.wait_until(machine, deliver_at);
    let mut cost = machine.cost.msg_recv;
    if machine.timeshared(entity.core) {
        cost += machine.cost.ctx_switch;
    }
    entity.work(machine, cost);
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

        let replies = multicall(&machine, &client, &handles, true, |_| Request::PipeCreate);
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
