//! The exchange boundary: rehash/ship batching and output caches.
//!
//! Rows crossing a `Rehash` or `Ship` operator leave the local pipeline
//! here.  [`ExchangeLayer`] owns one `RehashState` per (node, operator)
//! pair — per-destination buffers awaiting a full batch plus, when
//! recovery support is on, the output cache recovery stage 4 re-transmits
//! from.  Routing consults the phase's snapshot (`Runtime::table`) at
//! buffering time, so after a recovery round the same code path sends to
//! the heirs.  This module also owns the engine's wire payloads
//! ([`Payload`]) and plan dissemination, since both exist purely to move
//! bytes between nodes.
//!
//! Buffers, cache entries and wire payloads are all
//! [`ColumnarBatch`]es: a buffer that reaches `BATCH_ROWS` rows is moved
//! whole into the [`Payload::Batch`] it travels in, priced by
//! [`crate::batch::wire_size`].  An end-of-stream marker follows the last
//! batch its sender flushed to the same receiver, and the protocol
//! relies on the simulator delivering each ordered pair of nodes —
//! (n, n) included — in send order; a row that reaches an exchange after
//! its node sent the marker is an error (`Runtime::process_at`), never a
//! silently shorter answer.
//!
//! Every message on the wire travels inside a [`Wire`] envelope tagged
//! with the [`SessionId`] of the query that produced it.  A single query
//! owns its simulator outright and the tag is inert; under the
//! multi-query scheduler (`scheduler`), N queries multiplex one shared
//! simulator and the tag is what keeps their batches, end-of-stream
//! markers and recovery rounds from bleeding into each other when a node
//! failure hits several in-flight queries at once.

use super::pipeline::Runtime;
use crate::batch::wire_size;
use crate::ops::RehashState;
use crate::plan::OpId;
use orchestra_common::{ColumnarBatch, NodeId, NodeSet};
use orchestra_simnet::SimTime;
use std::collections::HashMap;

/// Wire size of an end-of-stream marker.
pub(super) const EOS_BYTES: usize = 8;

/// Rows buffered per destination before a batch is flushed.
const BATCH_ROWS: usize = 256;

/// Identifies one query session among those multiplexed over a shared
/// simulated network.  A stand-alone [`super::QueryExecutor`] run is
/// session 0 of a network of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// The envelope every engine message crosses the wire in: the payload
/// plus the session that produced it, so deliveries can be dispatched to
/// the right query's runtime.
#[derive(Clone, Debug)]
pub(super) struct Wire {
    /// The query session the payload belongs to.
    pub(super) session: SessionId,
    /// The engine message itself.
    pub(super) payload: Payload,
}

/// The engine-defined message type delivered by the simulator.
#[derive(Clone, Debug)]
pub(super) enum Payload {
    /// Plan + snapshot arrived; run the local fragments.
    Start,
    /// A batch of rows that crossed exchange operator `op`, travelling in
    /// columnar form end to end.
    Batch { op: OpId, batch: ColumnarBatch },
    /// One sender has finished feeding exchange operator `op`.
    Eos { op: OpId },
    /// A remote tuple fetch performed by a scan; carries no pipeline
    /// work — it exists so the transfer's bytes and latency are charged
    /// to the simulated network.
    StorageFetch,
}

/// All exchange-operator state of one query run: the per-(node, operator)
/// `RehashState` instances, addressed uniformly so the recovery layer can
/// purge, drop and re-transmit without iterating raw maps in
/// non-deterministic order.
#[derive(Debug, Default)]
pub(super) struct ExchangeLayer {
    states: HashMap<(NodeId, OpId), RehashState>,
}

impl ExchangeLayer {
    /// An empty layer.
    pub(super) fn new() -> ExchangeLayer {
        ExchangeLayer::default()
    }

    /// Buffer row `row` of a columnar batch into (`node`, `op`) for
    /// `dest` without materializing it, creating the state on first use;
    /// returns the buffer length after insertion.
    pub(super) fn buffer_from(
        &mut self,
        node: NodeId,
        op: OpId,
        dest: NodeId,
        src: &ColumnarBatch,
        row: usize,
        cache: bool,
    ) -> usize {
        self.states
            .entry((node, op))
            .or_insert_with(|| RehashState::new(cache))
            .buffer_from(dest, src, row)
    }

    /// Take (and clear) the pending buffer of (`node`, `op`) for `dest`.
    pub(super) fn take_buffer(&mut self, node: NodeId, op: OpId, dest: NodeId) -> ColumnarBatch {
        self.states
            .get_mut(&(node, op))
            .map(|s| s.take_buffer_batch(dest))
            .unwrap_or_default()
    }

    /// Destinations of (`node`, `op`) that currently have pending rows.
    pub(super) fn pending_destinations(&self, node: NodeId, op: OpId) -> Vec<NodeId> {
        self.states
            .get(&(node, op))
            .map(|s| s.pending_destinations())
            .unwrap_or_default()
    }

    /// The (node, operator) addresses held, in deterministic order.
    fn sorted_keys(&self) -> Vec<(NodeId, OpId)> {
        let mut keys: Vec<(NodeId, OpId)> = self.states.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Drop tainted rows from every cache and pending buffer; returns the
    /// number of logical rows dropped.
    pub(super) fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let mut purged = 0;
        for k in self.sorted_keys() {
            purged += self
                .states
                .get_mut(&k)
                .expect("key exists")
                .purge_tainted(failed);
        }
        purged
    }

    /// Drop the pending buffers destined to any failed node (their rows
    /// are covered by the stage-4 output-cache retransmission).
    pub(super) fn drop_buffers_to(&mut self, failed: &NodeSet) {
        for k in self.sorted_keys() {
            let state = self.states.get_mut(&k).expect("key exists");
            for dest in state.pending_destinations() {
                if failed.contains(dest) {
                    state.take_buffer_batch(dest);
                }
            }
        }
    }

    /// Consume and return, per exchange operator of `node` in
    /// deterministic order, the untainted cached rows that had been sent
    /// to any of the `failed` nodes — recovery stage 4's input.
    pub(super) fn take_cached_for_failed(
        &mut self,
        node: NodeId,
        failed: &NodeSet,
    ) -> Vec<(OpId, ColumnarBatch)> {
        let mut out = Vec::new();
        for (n, op) in self.sorted_keys() {
            if n != node {
                continue;
            }
            let state = self.states.get_mut(&(n, op)).expect("key exists");
            let mut resend = ColumnarBatch::new(0);
            for f in failed.iter() {
                resend.append_batch(&state.take_cached_batch_for(f, failed));
            }
            if !resend.is_empty() {
                out.push((op, resend));
            }
        }
        out
    }

    /// Discard every state (the Restart strategy's clean slate).
    pub(super) fn clear(&mut self) {
        self.states.clear();
    }
}

impl Runtime<'_> {
    /// Ship the plan and routing snapshot to every participant and start
    /// the local fragments.  When the plan is already resident (an
    /// installed maintenance dataflow), only the snapshot and the
    /// per-scan epoch parameters cross the wire.
    pub(super) fn disseminate(&mut self, at: SimTime) {
        let plan_bytes = if self.plan_resident {
            16 * self.plan.scans().len()
        } else {
            self.plan.serialized_size()
        };
        let bytes =
            plan_bytes + 64 + 48 * self.table.entries().len() + 24 * self.participants.len();
        for &node in &self.participants.clone() {
            if node == self.initiator {
                self.sim.schedule(node, at, Payload::Start);
            } else {
                self.sim
                    .send(self.initiator, node, bytes, at, Payload::Start);
            }
        }
    }

    /// Buffer row `row` of a columnar batch into exchange `op` for
    /// `dest`, flushing a full batch.
    pub(super) fn buffer_exchange_from(
        &mut self,
        node: NodeId,
        op: OpId,
        dest: NodeId,
        src: &ColumnarBatch,
        row: usize,
        ready: SimTime,
    ) {
        let cache = self.config.recovery;
        if self.exchanges.buffer_from(node, op, dest, src, row, cache) >= BATCH_ROWS {
            self.flush_exchange(node, op, dest, ready);
        }
    }

    /// Send the pending buffer of (`node`, `op`) for `dest` as one batch.
    /// The buffer already *is* a columnar batch, so its wire size falls
    /// out of the columns' running dictionary accounting.
    pub(super) fn flush_exchange(&mut self, node: NodeId, op: OpId, dest: NodeId, ready: SimTime) {
        let batch = self.exchanges.take_buffer(node, op, dest);
        if batch.is_empty() {
            return;
        }
        let bytes = wire_size(&batch, self.config.recovery);
        self.sim
            .send(node, dest, bytes, ready, Payload::Batch { op, batch });
    }
}
