//! The client side of the batched RPC transport.
//!
//! Independent requests destined for the same server are grouped and each
//! group ships as one [`Request::Batch`] exchange: the server executes the
//! entries in order and pays one message overhead for the whole group (see
//! `Server::op_batch`). The groups then go out through
//! [`ClientLib::exchange`], overlapped like the directory broadcast
//! (§3.6.2) when that technique is on — so a fan-out over M operations
//! spread across N servers costs N transport exchanges instead of M
//! independent RPCs.
//!
//! With the `batching` technique disabled, [`ClientLib::call_grouped`]
//! degrades to exactly the pre-batching behaviour: one RPC per request,
//! through the same [`ClientLib::exchange`].

use super::ClientLib;
use crate::proto::{Reply, Request, WireReply};
use crate::types::ServerId;
use fsapi::Errno;

/// Unpacks the reply to a batch of `n` entries into the per-entry replies,
/// preserving entry order. A transport-level failure (or a protocol
/// mismatch) fails every entry.
fn unbatch(reply: WireReply, n: usize) -> Vec<WireReply> {
    match reply {
        Ok(Reply::Batch(replies)) if replies.len() == n => replies,
        Ok(other) => {
            debug_assert!(false, "batch protocol mismatch: {other:?}");
            vec![Err(Errno::EIO); n]
        }
        Err(e) => vec![Err(e); n],
    }
}

/// Whether a reply stops a fail-fast sequence: a failure, or a `NotOwner`
/// redirect (which did not execute its entry, so later entries must not
/// run ahead of the re-routed one — the server-side fail-fast rule).
fn aborts(r: &WireReply) -> bool {
    r.is_err() || matches!(r, Ok(Reply::NotOwner { .. }))
}

impl ClientLib {
    /// Ships `reqs` (one `(destination server, request)` pair each) through
    /// the batched transport, returning replies in input order.
    ///
    /// * With the `batching` technique on, requests sharing a server travel
    ///   as one [`Request::Batch`]; distinct servers' exchanges overlap.
    ///   `fail_fast` instead ships strictly in input order — *consecutive*
    ///   same-server runs share an exchange, and nothing after the first
    ///   failure executes — so ordered sequences like rename's
    ///   ADD_MAP + RM_MAP never reorder across servers.
    /// * With it off: independent RPCs — overlapped when `broadcast` allows
    ///   and ordering does not matter, sequential otherwise.
    pub(crate) fn call_grouped(
        &self,
        reqs: Vec<(ServerId, Request)>,
        fail_fast: bool,
    ) -> Vec<WireReply> {
        if fail_fast {
            self.ship_ordered(reqs)
        } else if self.cfg.techniques.batching {
            self.ship(reqs)
        } else {
            self.exchange(reqs)
        }
    }

    /// The ordered (fail-fast) ship: executes runs sequentially in input
    /// order, skipping everything after the first failure. With batching,
    /// a run is a *consecutive* stretch of same-server requests sharing one
    /// exchange; without, every request is its own run. This preserves
    /// global order even when same-server requests interleave with other
    /// servers'.
    fn ship_ordered(&self, reqs: Vec<(ServerId, Request)>) -> Vec<WireReply> {
        let batching = self.cfg.techniques.batching;
        let mut out = Vec::with_capacity(reqs.len());
        let mut it = reqs.into_iter().peekable();
        let mut abort = false;
        while let Some((server, req)) = it.next() {
            let mut run = vec![req];
            while batching && it.peek().is_some_and(|(s, _)| *s == server) {
                run.push(it.next().expect("peeked").1);
            }
            if abort {
                out.extend(run.iter().map(|_| Err(Errno::EAGAIN)));
                continue;
            }
            let start = out.len();
            if batching {
                let n = run.len();
                let batch = Request::Batch {
                    reqs: run,
                    fail_fast: true,
                };
                out.extend(unbatch(self.call(server, batch), n));
            } else {
                out.extend(run.into_iter().map(|req| self.call(server, req)));
            }
            abort = out[start..].iter().any(aborts);
        }
        out
    }

    /// Groups `reqs` by server (first-use order, push order within a
    /// group), ships each group as one batch through
    /// [`ClientLib::exchange`], and returns replies in input order.
    fn ship(&self, reqs: Vec<(ServerId, Request)>) -> Vec<WireReply> {
        let mut out: Vec<WireReply> = reqs.iter().map(|_| Err(Errno::EIO)).collect();
        let mut groups: Vec<(ServerId, Vec<usize>, Vec<Request>)> = Vec::new();
        for (i, (server, req)) in reqs.into_iter().enumerate() {
            match groups.iter_mut().find(|(s, _, _)| *s == server) {
                Some((_, idxs, batch)) => {
                    idxs.push(i);
                    batch.push(req);
                }
                None => groups.push((server, vec![i], vec![req])),
            }
        }
        let (idxs, batches): (Vec<_>, Vec<_>) = groups
            .into_iter()
            .map(|(server, idxs, reqs)| {
                let batch = Request::Batch {
                    reqs,
                    fail_fast: false,
                };
                (idxs, (server, batch))
            })
            .unzip();
        for (idxs, reply) in idxs.into_iter().zip(self.exchange(batches)) {
            let n = idxs.len();
            for (i, r) in idxs.into_iter().zip(unbatch(reply, n)) {
                out[i] = r;
            }
        }
        out
    }
}
