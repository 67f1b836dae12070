//! The reliable distributed query executor (paper Sections V-A to V-D).
//!
//! [`QueryExecutor`] runs a [`PhysicalPlan`] over the versioned store,
//! routing every inter-node byte through the deterministic simulator so
//! that running time and traffic are measured, not estimated.  Execution
//! is event-driven and push-based:
//!
//! 1. The initiator disseminates the plan plus a routing snapshot to every
//!    participant (paper Section V-C: queries run against an immutable
//!    snapshot taken at initiation).
//! 2. Each participant scans its partition of every leaf relation and
//!    pushes the tuples through its local operator pipeline.  `Rehash` and
//!    `Ship` buffer rows per destination and flush them as compressed
//!    batches (priced by [`crate::batch`]) through the simulator.
//! 3. Delivered batches continue through the receiving node's pipeline
//!    above the exchange.  When a node has exhausted every input feeding
//!    an exchange it closes the segment: blocking aggregates emit their
//!    unemitted sub-groups, pending buffers flush, and an end-of-stream
//!    marker goes to every destination.  The query completes when the
//!    initiator's `Output` segment closes.
//!
//! ## Failure and recovery (Section V-D)
//!
//! A [`FailureSpec`] kills one node at a virtual instant: the simulator
//! drops its in-flight and future messages, so the end-of-stream cascade
//! stalls and the event queue quiesces with the query incomplete.  Like
//! the paper's engine meeting a connection reset, a session knows only
//! the failures that dropped its own messages; it recovers from those,
//! under the configured [`RecoveryStrategy`]:
//!
//! * **Restart** — discard all operator state, reassign the failed node's
//!   ranges to its surviving replica holders, and re-run the query from
//!   scratch on the survivors.
//! * **Incremental** — the four-stage protocol: (1) derive the recovery
//!   routing snapshot; (2) purge exactly the tainted state — tuples,
//!   join rows and aggregate sub-groups whose provenance intersects the
//!   failed set; (3) bump the phase and re-run leaf scans over the
//!   *inherited* ranges only; (4) re-transmit, from the rehash/ship output
//!   caches, the untainted rows that had been sent to the failed node —
//!   re-routed to the heirs under the recovery snapshot.  The result is
//!   correct, complete and duplicate-free without redoing unaffected work.
//!
//! Each round drops a failed node from the routing table, so recovery ends
//! by itself; a stall it cannot mend is an error naming the session.
//!
//! The answer comes back in a [`QueryReport`] together with the simulated
//! running time and the exact per-link traffic counts — the quantities
//! plotted in the paper's figures.
//!
//! ## Module layout
//!
//! This module is configuration ([`EngineConfig`], [`FailureSpec`],
//! [`RecoveryStrategy`]) and the [`QueryExecutor`] entry points, each a
//! one-session submission to the scheduler's event loop — the engine has
//! no other.  The layers underneath have one file each, with the
//! `Runtime` state machine (defined in `pipeline`) threading through them.
//! All per-participant state of a run sits in one table the `Runtime`
//! owns — per node slot, the node's scan assignment and its operator
//! instances by operator id (join tables, aggregate sub-groups, exchange
//! buffers and output caches, end-of-stream counts), each created when it
//! first sees input — and every layer reaches it by the same
//! `nodes[node][op]` address; the segment topology the cascade follows is
//! computed once per plan (`PhysicalPlan::segments`), not per session.
//!
//! * `pipeline` — the operator-instance table, the push-based event
//!   handler, and the end-of-stream segment-closure cascade;
//! * `scan` — leaf scans over the versioned store (distributed,
//!   replicated and covering-index);
//! * `exchange` — the functions over an exchange instance's buffers
//!   (destination vectors, batch-at-a-time buffering in send order,
//!   sending), plan dissemination, and the session-tagged wire envelope
//!   ([`SessionId`]);
//! * `session` — the per-session handle onto the simulator every
//!   session of a run shares (shared-clock multiplexing);
//! * `scheduler` — the [`SessionScheduler`] and the engine's one event
//!   loop: open-loop arrivals, admission control over a bounded run
//!   queue with load shedding, N ≥ 1 runtimes interleaved over one
//!   simulator, the stall → recover step, [`WorkloadReport`] assembly
//!   with tail-latency and SLO-miss accounting;
//! * `cache` — the epoch-keyed [`ResultCache`]: complete answers
//!   memoized under `(fingerprint, epoch)` keys with LRU or cost-aware
//!   eviction — immutable epochs mean no invalidation logic at all;
//! * `ivm` — incremental view maintenance: maintenance-plan rewriting,
//!   [`MaterializedView`] state, and the [`refresh_view`] driver that
//!   pushes signed epoch deltas through the pipeline as scheduler
//!   sessions;
//! * `registry` — the standing-query subscription layer
//!   ([`ViewRegistry`]): many registered views kept exact by one shared
//!   maintenance workload per epoch — deltas derived once per changed
//!   relation, colliding delta legs executed once and forked at the
//!   initiator — with per-subscriber signed result diffs;
//! * `recovery` — the Restart and Incremental strategies, as walks over
//!   the same table (stage 2 purges every instance, stage 4 re-enters a
//!   node's exchanges from their output caches);
//! * `report` — [`QueryReport`] assembly and per-link traffic
//!   accounting (`RunStats`).

#[cfg(test)]
mod answer_equivalence;
pub mod cache;
mod exchange;
pub mod ivm;
mod pipeline;
mod recovery;
pub mod registry;
mod report;
mod scan;
#[cfg(test)]
mod scan_by_gather;
pub mod scheduler;
mod session;

#[cfg(test)]
pub(crate) mod tests;

use crate::plan::PhysicalPlan;
use orchestra_common::{Epoch, NodeId, NodeSet, OrchestraError, Result};
use orchestra_simnet::{ClusterProfile, SimTime};
use orchestra_storage::{DistributedStorage, StorageView};
use orchestra_substrate::RoutingTable;

use scheduler::Submission;

pub use cache::{CacheStats, CachedAnswer, EntryStats, EvictionPolicy, ResultCache};
pub use exchange::SessionId;
pub use ivm::{
    refresh_view, FoldMode, MaintenanceLeg, MaintenanceMode, MaintenancePlan, MaintenanceRun,
    MaterializedView, ScanOverrides,
};
pub use registry::{RegistryRefresh, ViewDiff, ViewRegistry};
pub use report::{QueryReport, WallClock};
pub use scheduler::{
    AdmissionPolicy, QuerySession, SchedulerConfig, SessionReport, SessionScheduler, ShedEvent,
    WorkloadReport,
};

/// How the executor reacts to a node failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Throw away all state and re-run the query on the survivors.
    Restart,
    /// Purge tainted state, rescan inherited ranges, re-transmit cached
    /// output — the paper's low-overhead strategy.
    Incremental,
}

/// Configuration of the query engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Timing and bandwidth model of the simulated cluster.
    pub profile: ClusterProfile,
    /// Recovery support: carry provenance tags on the wire and keep
    /// rehash/ship output caches.  Adds the paper's "at most 2%" traffic
    /// overhead; required for [`RecoveryStrategy::Incremental`].
    pub recovery: bool,
    /// Strategy applied when a failure interrupts the query.
    pub strategy: RecoveryStrategy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            profile: ClusterProfile::lan_cluster(),
            recovery: true,
            strategy: RecoveryStrategy::Incremental,
        }
    }
}

/// A failure to inject: `node` dies at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureSpec {
    /// The node that fails.
    pub node: NodeId,
    /// The virtual instant at which it fails.
    pub at: SimTime,
}

impl FailureSpec {
    /// Kill `node` at virtual time `at`.
    pub fn at_time(node: NodeId, at: SimTime) -> FailureSpec {
        FailureSpec { node, at }
    }
}

/// The reliable distributed query executor.
pub struct QueryExecutor<'a> {
    storage: &'a DistributedStorage,
    config: EngineConfig,
}

impl<'a> QueryExecutor<'a> {
    /// Build an executor over `storage` with `config`.
    pub fn new(storage: &'a DistributedStorage, config: EngineConfig) -> QueryExecutor<'a> {
        QueryExecutor { storage, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Execute `plan` against the version of the data visible at `epoch`,
    /// initiated by `initiator`, with no failure injected.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
    ) -> Result<QueryReport> {
        self.submit(self.storage.view(), plan, epoch, initiator, &[])
    }

    /// Execute `plan` while killing `failure.node` at `failure.at`.
    ///
    /// The caller's storage is not disturbed: the run reads it through a
    /// view, and recovery narrows that view so rescans cannot read the
    /// dead node's local state — nothing is copied or marked in the store.
    pub fn execute_with_failure(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
        failure: FailureSpec,
    ) -> Result<QueryReport> {
        self.submit(self.storage.view(), plan, epoch, initiator, &[failure])
    }

    /// Execute `plan` against a possibly **stale** routing snapshot — the
    /// view a gossip-informed initiator derived locally, which may still
    /// list nodes in `departed` that are in truth already gone.
    ///
    /// The run plans and routes strictly by `snapshot`, while the
    /// simulated network reflects the truth: every node in `departed` is
    /// dead from the first instant, so messages addressed to it drop and
    /// its local state is unreachable.  If the snapshot never touches a
    /// departed node the query completes normally; if it does, the
    /// end-of-stream cascade stalls and the ordinary Restart/Incremental
    /// recovery reassigns the departed ranges — exactly the machinery a
    /// same-epoch failure would invoke.  Staleness therefore costs
    /// recovery time, never correctness.
    ///
    /// Errors if the initiator itself is in `departed` (a dead node
    /// cannot initiate) or is absent from the snapshot.
    pub fn execute_with_stale_snapshot(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
        snapshot: &RoutingTable,
        departed: &NodeSet,
    ) -> Result<QueryReport> {
        if departed.contains(initiator) {
            return Err(OrchestraError::Execution(format!(
                "initiator {initiator} has departed and cannot run the query"
            )));
        }
        // The routed view: the caller's data under `snapshot`, with the
        // departed nodes' local state unreachable from the first instant
        // (lookups fail over to surviving replicas).  A node the snapshot
        // lists that the store has no slot for holds nothing.
        let routed = self
            .storage
            .view()
            .with_routing(snapshot)
            .with_failed(*departed);
        // A departed node the snapshot no longer lists cannot be addressed
        // at all (the simulator is sized to the snapshot's members), so
        // only snapshot members are killed on the network.
        let dead: Vec<FailureSpec> = departed
            .iter()
            .filter(|n| snapshot.contains_node(*n))
            .map(|n| FailureSpec::at_time(n, SimTime::ZERO))
            .collect();
        self.submit(routed, plan, epoch, initiator, &dead)
    }

    /// Run `plan` as the only session of a scheduler workload over
    /// `view`, with every node in `dead` failing at its instant.
    fn submit(
        &self,
        view: StorageView<'_>,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
        dead: &[FailureSpec],
    ) -> Result<QueryReport> {
        let session = Submission {
            name: "query",
            plan,
            epoch,
            initiator,
            arrival: SimTime::ZERO,
            fingerprint: None,
            estimated_cost: 0.0,
            overrides: &ScanOverrides::new(),
            plan_resident: false,
        };
        let workload =
            SessionScheduler::default().run_inner(view, &self.config, &[session], dead, None)?;
        let only = workload.sessions.into_iter().next();
        only.map(|s| s.report).ok_or_else(|| {
            OrchestraError::Execution("session \"query\" ended without a report".into())
        })
    }
}
