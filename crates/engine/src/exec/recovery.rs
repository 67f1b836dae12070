//! The Restart and Incremental recovery strategies (Section V-D).
//!
//! When the event queue quiesces with the query incomplete, the
//! scheduler's loop calls `Runtime::recover` with the nodes whose failure
//! dropped one of the session's messages, which first narrows the
//! session's view of the store so they are unreadable — the caller's
//! store itself is neither copied nor touched.  **Restart**
//! wipes every operator state and re-runs the query on the survivors
//! under the recovery routing snapshot.  **Incremental** runs the
//! four-stage protocol: derive the recovery snapshot, purge exactly the
//! tainted state (and move the output still pending for a failed node
//! into the output cache, unsent), bump the phase and rescan only the
//! inherited ranges, and re-transmit the untainted cached output that had
//! been bound for the failed nodes — re-routed to their heirs.

use super::pipeline::{OpState, Runtime};
use super::RecoveryStrategy;
use crate::ops::purge_shared;
use crate::plan::OperatorKind;
use orchestra_common::{ColumnarBatch, NodeId, NodeSet, OrchestraError, Result};
use orchestra_simnet::SimTime;
use std::borrow::Cow;
use std::rc::Rc;

impl Runtime<'_> {
    pub(super) fn recover(&mut self, failed: &NodeSet) -> Result<()> {
        if self.config.strategy == RecoveryStrategy::Incremental && !self.config.recovery {
            return Err(OrchestraError::Execution(
                "incremental recovery requires recovery support (provenance tags and output caches)"
                    .into(),
            ));
        }

        // The failed nodes' local stores are gone: storage-level lookups
        // must fail over to replicas from here on — in this session's
        // view, not in the store the caller and other sessions read.
        self.view = self.view.with_failed(*failed);

        // Stage 1: derive the recovery routing snapshot — the failed
        // nodes' ranges split evenly among their surviving replica holders.
        let recovery_table = self.table.reassign_failed(failed)?;
        let changed = self.table.changed_ranges(&recovery_table);
        let survivors = recovery_table.nodes();

        self.stats.rounds += 1;
        // Stage 3 (first half): bump the phase so recomputed tuples are
        // distinguishable from pre-failure in-flight data.
        self.phase += 1;

        // This phase's scan assignment is handed out below; a node that
        // gets none scans nothing.
        for state in &mut self.nodes {
            state.scan_ranges.clear();
        }
        match self.config.strategy {
            RecoveryStrategy::Restart => {
                // Forget everything and re-run on the survivors.
                for state in &mut self.nodes {
                    state.ops.clear();
                }
                self.output.clear();
                for node in &survivors {
                    self.nodes[node.index()].scan_ranges = recovery_table.ranges_of(*node);
                }
                self.scan_replicated = true;
            }
            RecoveryStrategy::Incremental => {
                // Stage 2: purge exactly the tainted state, node by node
                // and operator by operator.
                let mut purged = 0;
                for instance in self.nodes.iter_mut().flat_map(|state| &mut state.ops) {
                    purged += match instance {
                        OpState::Idle => 0,
                        OpState::Join(join) => join.purge_tainted(failed),
                        OpState::Agg(agg) => agg.purge_tainted(failed),
                        OpState::Exchange(exchange) => {
                            let purged = exchange.out.purge_tainted(failed);
                            // Pending buffers destined to a failed node
                            // must not be flushed there: they join the
                            // output cache unsent, and stage 4 re-routes
                            // their rows with the ones that were sent.
                            exchange.out.cache_pending_for(failed);
                            purged
                        }
                    };
                }
                // The answer's delivered batches too.  An emptied batch
                // stays: the answer is as wide as the widest batch that
                // reached it.
                purged += purge_shared(&mut self.output, failed);
                self.stats.purged += purged;

                // Stage 3 (second half): survivors rescan only the ranges
                // they inherited from the failed nodes.
                for (range, _, heir) in &changed {
                    self.nodes[heir.index()].scan_ranges.push(*range);
                }
                self.scan_replicated = false;
            }
        }

        self.table = Cow::Owned(recovery_table);
        self.participants = survivors;
        self.reset_eos_counters()?;

        // Failure detection (TCP reset in the paper) plus one round trip
        // to disseminate the recovery snapshot.
        let restart_at = self.sim.now() + self.config.profile.latency();
        self.disseminate(restart_at);
        Ok(())
    }

    /// Stage 4: re-create the data that had been sent to the failed nodes'
    /// hash key-space ranges, re-routed under the recovery snapshot.
    pub(super) fn retransmit_cached(&mut self, node: NodeId, time: SimTime) -> Result<SimTime> {
        let failed = self.sim.failed();
        let mut ready = time;
        for op in 0..self.plan.len() {
            let Some(OpState::Exchange(exchange)) = self.nodes[node.index()].ops.get_mut(op) else {
                continue;
            };
            // Consume the cache entries: re-buffering re-caches the rows
            // under their heirs, and a second recovery round must not
            // re-send (and thereby duplicate) them.
            let mut resend = ColumnarBatch::new(0);
            for f in failed.iter() {
                resend.append_batch(&exchange.out.take_cached_batch_for(f, &failed));
            }
            // Broadcast output needs no re-routing: every survivor
            // already holds its own copy of each row, and the failed
            // node's inherited ranges are covered by the stage-3
            // rescans.  Re-entering the operator would duplicate the
            // rows at every survivor, so the consumed entries are
            // simply dropped.
            if resend.is_empty() || matches!(self.plan.op(op).kind, OperatorKind::Broadcast) {
                continue;
            }
            self.stats.retransmitted += resend.len();
            // Re-enter the exchange operator itself: routing now consults
            // the recovery snapshot, so the rows land at the heirs.
            self.process_at(node, op, 0, Rc::new(resend), ready)?;
            ready = self.sim.cpu_free_at(node).max(ready);
        }
        Ok(ready)
    }
}
