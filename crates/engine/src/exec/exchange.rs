//! The exchange boundary: rehash/ship batching and output caches.
//!
//! Rows crossing a `Rehash`, `Broadcast` or `Ship` operator leave the
//! local pipeline here.  The state they leave it through — one
//! `RehashState` per operator instance: per-destination buffers awaiting
//! a full batch plus, when recovery support is on, the output cache
//! recovery stage 4 re-transmits from — sits in the runtime's
//! operator-instance table (`Runtime::nodes`) beside the instance's
//! end-of-stream bookkeeping; this module is the functions over it
//! ([`rehash_routes`], [`buffer_batch`], `Runtime::send_batch`).  Routing
//! consults the phase's snapshot (`Runtime::table`) at buffering time, so
//! after a recovery round the same code path sends to the heirs.  This
//! module also owns the engine's wire payloads ([`Payload`]) and plan
//! dissemination, since both exist purely to move bytes between nodes.
//!
//! Buffers, cache entries and wire payloads are all
//! [`ColumnarBatch`]es: a buffer that reaches `BATCH_ROWS` rows is moved
//! whole into the [`Payload::Batch`] it travels in, priced by
//! [`crate::batch::wire_size`], and the same allocation
//! (`Rc<ColumnarBatch>`) is the cache entry — a sent row is held once.
//! The cache is therefore the list of batches flushed to each
//! destination; the rows still pending are in the buffer, and recovery
//! stage 2 moves a buffer bound for a failed node into the cache unsent,
//! so stage 4 re-transmits every row that was ever bound there.
//!
//! A batch crosses the exchange whole, never a row at a time.  The
//! operator first works out its *destination vector* — for a `Rehash`,
//! the batch's ring keys in one call ([`ColumnarBatch::hash_columns`])
//! and one routing lookup per row sorted into a list of row numbers per
//! destination ([`rehash_routes`]); for a `Ship` or a
//! `Broadcast`, every row for the initiator or for every participant —
//! and [`buffer_batch`] then appends each destination's rows column by
//! column.  *Chunking rule:* a destination's rows are cut
//! where its pending buffer reaches `BATCH_ROWS` (the first cut after
//! `BATCH_ROWS - pending` rows, then every `BATCH_ROWS`), each filled
//! buffer is taken, and the remainder stays pending — the same batches,
//! row for row, that flushing after every single row would produce.
//! *Send order:* the filled buffers are sent in ascending order of the
//! source row that filled them, and where one row fills several (a
//! `Broadcast` to equally full buffers) in participant order.  The order
//! matters because all of them are sent at the same `ready` instant and
//! the sender's uplink carries them one after another in call order, so
//! it decides when each destination's batch arrives and with it every
//! simulated running time downstream.
//!
//! An end-of-stream marker follows the last
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
use orchestra_common::{ColumnarBatch, NodeId};
use orchestra_simnet::SimTime;
use orchestra_substrate::RoutingTable;
use std::rc::Rc;

/// Wire size of an end-of-stream marker.
pub(super) const EOS_BYTES: usize = 8;

/// Rows buffered per destination before a batch is flushed.
pub(super) const BATCH_ROWS: usize = 256;

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
    /// columnar form end to end.  The sender's output cache holds the
    /// same allocation.
    Batch { op: OpId, batch: Rc<ColumnarBatch> },
    /// One sender has finished feeding exchange operator `op`.
    Eos { op: OpId },
    /// A remote tuple fetch performed by a scan; carries no pipeline
    /// work — it exists so the transfer's bytes and latency are charged
    /// to the simulated network.
    StorageFetch,
}

/// The destination vector of a `Rehash`: for each destination, in order
/// of first appearance, the rows of `batch` (ascending) whose `columns`
/// hash into a range it owns under `table`.
pub(super) fn rehash_routes(
    table: &RoutingTable,
    batch: &ColumnarBatch,
    columns: &[usize],
) -> Vec<(NodeId, Vec<u32>)> {
    let mut routes: Vec<(NodeId, Vec<u32>)> = Vec::new();
    // Node index -> position in `routes`.
    let mut slot_of: Vec<Option<usize>> = Vec::new();
    let mut keys = Vec::new();
    batch.hash_columns(columns, &mut keys);
    for (r, key) in keys.into_iter().enumerate() {
        let dest = table.owner_of(key);
        if slot_of.len() <= dest.index() {
            slot_of.resize(dest.index() + 1, None);
        }
        let slot = *slot_of[dest.index()].get_or_insert_with(|| {
            routes.push((dest, Vec::new()));
            routes.len() - 1
        });
        routes[slot].1.push(r as u32);
    }
    routes
}

/// Buffer a whole batch into one exchange instance's `state`: each route
/// names a destination and the rows of `src` (ascending) it receives.
/// Returns the buffers this filled, in the order they must be sent —
/// ascending in the source row that filled them, rows that filled several
/// (a `Broadcast`) in route order — which is the order buffering `src` a
/// row at a time fills them in.
pub(super) fn buffer_batch<'r>(
    state: &mut RehashState,
    src: &ColumnarBatch,
    routes: impl IntoIterator<Item = (NodeId, &'r [u32])>,
) -> Vec<(NodeId, Rc<ColumnarBatch>)> {
    let mut filled = Vec::new();
    for (dest, rows) in routes {
        for (filled_by, batch) in state.buffer_rows(dest, src, rows, BATCH_ROWS) {
            filled.push((filled_by, dest, batch));
        }
    }
    // Stable: buffers filled by the same row stay in route order.
    filled.sort_by_key(|(filled_by, ..)| *filled_by);
    filled
        .into_iter()
        .map(|(_, dest, batch)| (dest, batch))
        .collect()
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
        for &node in &self.participants {
            if node == self.initiator {
                self.sim.schedule(node, at, Payload::Start);
            } else {
                self.sim
                    .send(self.initiator, node, bytes, at, Payload::Start);
            }
        }
    }

    /// Send one flushed buffer.  It already *is* a columnar batch, so its
    /// wire size falls out of the columns' dictionary accounting.
    pub(super) fn send_batch(
        &mut self,
        node: NodeId,
        op: OpId,
        dest: NodeId,
        batch: Rc<ColumnarBatch>,
        ready: SimTime,
    ) {
        let bytes = wire_size(&batch, self.config.recovery);
        self.sim
            .send(node, dest, bytes, ready, Payload::Batch { op, batch });
    }
}
