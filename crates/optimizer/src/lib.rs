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
//!   [`orchestra_engine::PhysicalPlan`] so optimizer-chosen and
//!   hand-built plans are comparable under one yardstick;
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
//!   byte-identical plan.
//!
//! The workload catalogue (`orchestra-workloads`) expresses STBenchmark
//! and the TPC-H-style queries as [`LogicalQuery`]s compiled here, and
//! the experiment harness (`orchestra-bench`) compares the compiled
//! plans against the hand-built oracles in its `plan_quality`
//! experiment.

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
pub use planner::{compile, compile_with, PlannerOptions};
pub use stats::{column_width_bytes, Statistics, TableStats};

use orchestra_engine::Predicate;

/// Estimate the number of rows surviving `predicate` over an input of
/// `input_cardinality` rows — the elementary step of the cost model.
///
/// Saturates at the representable extremes instead of rounding through
/// `f64` arithmetic: inputs too large for `f64` to hold exactly come
/// back unchanged under a selectivity of 1.0, and no estimate ever
/// exceeds the input cardinality or `usize::MAX`.
pub fn estimated_output_cardinality(input_cardinality: usize, predicate: &Predicate) -> usize {
    let selectivity = predicate.estimated_selectivity();
    if selectivity >= 1.0 {
        return input_cardinality;
    }
    let estimate = input_cardinality as f64 * selectivity;
    if estimate >= usize::MAX as f64 {
        usize::MAX
    } else {
        (estimate.round() as usize).min(input_cardinality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_engine::CmpOp;

    #[test]
    fn selectivity_scales_cardinality() {
        assert_eq!(estimated_output_cardinality(1000, &Predicate::True), 1000);
        let eq = Predicate::cmp(0, CmpOp::Eq, 7i64);
        assert_eq!(estimated_output_cardinality(1000, &eq), 100);
        assert_eq!(estimated_output_cardinality(0, &eq), 0);
    }

    #[test]
    fn huge_inputs_saturate_instead_of_rounding_through_f64() {
        // usize::MAX is not representable in f64; a selectivity of 1.0
        // must return the input unchanged rather than the rounded 2^64.
        assert_eq!(
            estimated_output_cardinality(usize::MAX, &Predicate::True),
            usize::MAX
        );
        // Near-1.0 selectivities on huge inputs stay within bounds.
        let ne = Predicate::cmp(0, CmpOp::Ne, 7i64);
        let est = estimated_output_cardinality(usize::MAX, &ne);
        assert!(est > usize::MAX / 2);
        assert!(est < usize::MAX);
        // One below a power of two: f64 rounding used to overshoot the
        // input; the estimate is now clamped to it.
        let big = (1usize << 53) + 1;
        assert!(estimated_output_cardinality(big, &Predicate::True) == big);
        assert!(estimated_output_cardinality(big, &ne) <= big);
    }
}
