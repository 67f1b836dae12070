//! # orchestra-optimizer
//!
//! The System-R-style cost-based optimizer of the ORCHESTRA engine.
//!
//! The paper's prototype "performs query optimization using a
//! System-R-style dynamic programming algorithm" over statistics kept by
//! the relation coordinators.  This crate implements that planner as a
//! logical layer above [`orchestra_engine::PlanBuilder`]:
//!
//! * [`LogicalQuery`] ([`logical`]) — the declarative input: relation
//!   slots, an equi-join graph, conjunctive single-relation predicates,
//!   a select list of scalar expressions over global [`ColRef`]s, and an
//!   optional aggregation;
//! * [`Statistics`] ([`stats`]) — the statistics snapshot a compilation
//!   runs against: per-relation [`TableStats`] pulled from the
//!   coordinator cardinalities
//!   ([`orchestra_storage::DistributedStorage::relation_cardinality`])
//!   and catalog schemas, plus the participant count of the routing
//!   snapshot the query would be disseminated with;
//! * [`cost`] — the network-aware cost model: a plan's cost is its
//!   estimated inter-node traffic in bytes, with rehash and ship volumes
//!   derived from the snapshot's node count and selectivities from
//!   [`TableStats::selectivity`] — histogram- and sketch-informed when
//!   the snapshot carries an adaptive overlay
//!   ([`AdaptiveStats::overlay`]), reproducing the
//!   [`orchestra_engine::Predicate::estimated_selectivity`] constants on
//!   a bare snapshot;
//!   [`estimate_plan_cost`] applies the same model to any already-built
//!   [`orchestra_engine::PhysicalPlan`], so the chosen plan and the
//!   plans it was chosen among are comparable under one yardstick;
//! * [`choose_maintenance`] ([`maintenance`]) — the per-epoch
//!   incremental-vs-recompute decision for materialized workload
//!   answers: both refresh strategies priced under the same cost model,
//!   with per-leg what-if statistics sized from the published batch's
//!   signed delta counts;
//! * [`fingerprint()`] ([`mod@fingerprint`]) —
//!   the canonical identity of a [`LogicalQuery`]: slots renumbered by
//!   relation name, predicates flattened and sorted, join edges oriented,
//!   the normal form hashed to a
//!   [`QueryFingerprint`](orchestra_common::QueryFingerprint) — the
//!   identity half of the serving layer's `(fingerprint, epoch)` result
//!   cache key;
//! * [`compile`] ([`planner`]) — the bottom-up dynamic-programming
//!   enumerator over connected join-graph subsets, with sargable
//!   predicates pushed into the leaf scans, covering-index scans elected
//!   when only key attributes are referenced, replicated scans elected
//!   for replicated relations, unreferenced columns pruned early, and
//!   `Rehash` boundaries placed only where an input's partitioning does
//!   not already cover the join keys.  Compilation is deterministic:
//!   the same query over the same statistics always emits the
//!   byte-identical plan;
//! * [`plan_space`] ([`planner`]) — every plan that enumeration
//!   considers, none pruned: each join tree of the full relation set
//!   under each valid aggregation placement, the compiled plan among
//!   them.
//!
//! The workload catalogue (`orchestra-workloads`) expresses STBenchmark
//! and the TPC-H-style queries as [`LogicalQuery`]s compiled here, and
//! the experiment harness (`orchestra-bench`) runs every plan of each
//! compiled plan's space in its `plan_quality` experiment.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod adaptive;
pub mod cost;
pub mod fingerprint;
pub mod logical;
pub mod maintenance;
pub mod planner;
pub mod stats;

pub use adaptive::{
    AdaptiveStats, CostChannel, CostFeedback, DriftConfig, DriftMonitor, EquiDepthHistogram,
    KmvSketch,
};
pub use cost::{estimate_plan_cost, estimate_plan_cost_and_rows, PlanCost};
pub use fingerprint::{canonicalize, fingerprint};
pub use logical::{col, Aggregation, ColRef, JoinEdge, LogicalExpr, LogicalQuery};
pub use maintenance::{
    choose_maintenance, compile_delta_legs, compile_delta_legs_with, MaintenanceChoice,
    MaintenanceDecision,
};
pub use planner::{compile, compile_with, plan_space, PlannerOptions};
pub use stats::{column_width_bytes, Statistics, TableStats};
