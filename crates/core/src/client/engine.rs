//! The multi-step operation engine.
//!
//! Hare composes every multi-server protocol — pathname resolution, the
//! two-path rename dance, the three-phase distributed `rmdir` — out of
//! single-server RPCs (paper §3.3).
//! Before this module each protocol hand-rolled its own driver loop; now an
//! operation is a small state machine ([`MultiStepOp`]) that *declares* one
//! transport [`Step`] at a time, and [`ClientLib::run_op`] drives it:
//! execute the step, hand the replies back, repeat until the op finishes.
//!
//! The engine owns the *transport choice* for each declared step:
//!
//! * [`Step::Call`] — one request, one server, one round trip. When the
//!   request is a [`Request::LookupPath`] chain this is still a single
//!   exchange from the client's point of view, even though the reply may
//!   come from a different server than the request went to — and with a
//!   fused [`crate::proto::TerminalOp`] riding the chain, that one
//!   exchange can carry the whole operation (resolution *plus* the final
//!   stat/open/list) end to end.
//! * [`Step::Grouped`] — independent requests; same-server runs share one
//!   batched exchange and distinct servers' exchanges overlap. Degrades to
//!   independent (overlapped or sequential) RPCs per the `batching` and
//!   `broadcast` toggles, so ablations shed exactly one mechanism at a
//!   time.
//! * [`Step::Ordered`] — a fail-fast sequence (rename's ADD_MAP + RM_MAP):
//!   consecutive same-server runs share an exchange and nothing after the
//!   first failure executes.
//! * [`Step::Overlapped`] — requests that must *not* share a batch
//!   envelope (forwardable `LookupPath` chains reply from arbitrary
//!   servers), sent back-to-back with the replies collected in order.
//!
//! Which mode a step uses is decided by the op that declares it — e.g. the
//! resolve op in `resolve.rs` emits a chained `LookupPath` call when the
//! `chained_resolution` technique is on and at least two uncached
//! components remain (fusing the terminal stat/open/list into the chain
//! when `fused_terminal` allows), and per-component `Lookup` calls
//! otherwise, the final component's carrying a stat/open terminal the
//! chain did not — so the policy reads in one place per operation instead
//! of being interleaved with transport plumbing.

use super::{ClientLib, ClientState};
use crate::proto::{Request, WireReply};
use crate::types::ServerId;
use fsapi::FsResult;

/// One transport step declared by a multi-step operation.
pub(crate) enum Step {
    /// A single request to one server.
    Call(ServerId, Request),
    /// Independent requests shipped through the batch layer: same-server
    /// runs share an exchange, distinct servers overlap.
    Grouped(Vec<(ServerId, Request)>),
    /// Ordered fail-fast sequence: consecutive same-server runs share an
    /// exchange; entries after the first failure are answered `EAGAIN`
    /// without executing.
    Ordered(Vec<(ServerId, Request)>),
    /// Back-to-back sends with in-order reply collection, no batch
    /// envelopes (for requests a batch cannot carry, like forwardable
    /// `LookupPath` chains).
    Overlapped(Vec<(ServerId, Request)>),
}

/// What a multi-step operation does next.
pub(crate) enum Next<T> {
    /// Execute this step; its replies arrive at the next
    /// [`MultiStepOp::step`] call, in request order.
    Run(Step),
    /// The operation is complete.
    Done(T),
}

/// A multi-step operation: a state machine over transport steps.
///
/// `step` is called with `None` first, then once per executed [`Step`] with
/// that step's replies (one per request, in declaration order). Returning
/// an error aborts the operation; ops that must run cleanup steps even on
/// failure (like `rmdir` releasing its serialization lock) carry the
/// outcome in their `Out` type instead of erroring mid-protocol.
pub(crate) trait MultiStepOp {
    /// The operation's result type.
    type Out;

    /// Consumes the previous step's replies and declares the next step.
    fn step(
        &mut self,
        lib: &ClientLib,
        st: &mut ClientState,
        replies: Option<Vec<WireReply>>,
    ) -> FsResult<Next<Self::Out>>;
}

impl ClientLib {
    /// Drives a multi-step operation to completion.
    pub(crate) fn run_op<O: MultiStepOp>(
        &self,
        st: &mut ClientState,
        mut op: O,
    ) -> FsResult<O::Out> {
        let mut replies = None;
        loop {
            match op.step(self, st, replies.take())? {
                Next::Done(v) => return Ok(v),
                Next::Run(step) => replies = Some(self.exec_step(step)),
            }
        }
    }

    /// Executes one transport step, returning replies in request order.
    fn exec_step(&self, step: Step) -> Vec<WireReply> {
        match step {
            Step::Call(server, req) => vec![self.call(server, req)],
            Step::Grouped(reqs) => self.call_grouped(reqs, false),
            Step::Ordered(reqs) => self.call_grouped(reqs, true),
            // Per-request RPCs: fan-out parallelism stays gated on the
            // broadcast technique (inside `exchange`), so the ablations
            // remain orthogonal — with it off, the requests go out as
            // sequential round trips.
            Step::Overlapped(reqs) => self.exchange(reqs),
        }
    }
}
