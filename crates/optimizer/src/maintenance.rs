//! The incremental-vs-recompute maintenance cost model, and delta-first
//! leg compilation.
//!
//! When a participant publishes a new epoch, every materialized workload
//! answer can be refreshed two ways: push the epoch's signed delta
//! through the view's maintenance legs (one telescoped leg per changed
//! relation), or recompute the maintenance plan in full at the new
//! epoch.  Which is cheaper depends on the churn: a handful of changed
//! tuples ships a handful of broadcast delta rows, while a batch that
//! rewrites most of a relation makes every leg nearly as expensive as a
//! full run — and there is one leg per changed relation.
//!
//! Two pieces live here:
//!
//! * [`compile_delta_legs`] — per pivot relation, compile the view's
//!   logical query with the pivot's cardinality set to a delta-sized
//!   value, so the System-R enumerator picks a *delta-first join
//!   order*.  The engine then rewrites each compiled leg into broadcast
//!   form ([`orchestra_engine::MaterializedView::install_leg_plans`]):
//!   without this, a leg whose pivot sits atop the join tree would
//!   re-ship a full off-path join on every refresh.
//! * [`choose_maintenance`] — price both refresh strategies with the
//!   same network-byte cost model the planner uses
//!   ([`estimate_plan_cost`]): the recompute estimate costs the
//!   maintenance plan against the *new* epoch's statistics; the
//!   incremental estimate sums, over each leg, that leg's plan costed
//!   with the pivot relation's cardinality replaced by its signed delta
//!   row count, relations before the pivot (telescoping order) at the
//!   new cardinality, and relations after it at the old — exactly the
//!   snapshots the executed legs read.  Statistics are refreshed per
//!   epoch by the caller ([`Statistics::collect`] at the published
//!   epoch), so the decision always prices the batch actually being
//!   absorbed.

use crate::cost::estimate_plan_cost;
use crate::logical::LogicalQuery;
use crate::planner::{compile_with, PlannerOptions};
use crate::stats::Statistics;
use orchestra_common::OrchestraError;
use orchestra_engine::{MaintenanceLeg, PhysicalPlan};
use std::collections::BTreeMap;

/// Nominal pivot cardinality used when compiling delta-first legs: the
/// join order the planner picks for a tiny pivot is the right one for
/// any small delta, and legs are compiled once at view creation.
const NOMINAL_DELTA_ROWS: usize = 1;

/// Compile one delta-first leg input per relation of `query`: the same
/// logical query, planned with broadcast joins enabled
/// ([`PlannerOptions::broadcast_joins`]) as if the pivot relation held
/// a nominal single delta row — so the enumerator both starts the join
/// order from the delta and moves the tiny stream with broadcasts
/// instead of re-aligning full relations.  The result order (the
/// query's relation slots) becomes the legs' telescoping order when
/// installed.
pub fn compile_delta_legs(
    query: &LogicalQuery,
    stats: &Statistics,
) -> Result<Vec<(String, PhysicalPlan)>, OrchestraError> {
    compile_delta_legs_with(query, stats, &BTreeMap::new())
}

/// [`compile_delta_legs`] with *observed* per-relation delta sizes: each
/// pivot is compiled at its relation's measured delta-row estimate (the
/// EWMA the adaptive subsystem maintains,
/// [`crate::adaptive::AdaptiveStats::delta_rows_estimate`]) instead of
/// the nominal single row.  Relations absent from `delta_rows` keep the
/// cold-start nominal, so an empty map reproduces [`compile_delta_legs`]
/// exactly and existing figures stay stable.
pub fn compile_delta_legs_with(
    query: &LogicalQuery,
    stats: &Statistics,
    delta_rows: &BTreeMap<String, usize>,
) -> Result<Vec<(String, PhysicalPlan)>, OrchestraError> {
    let options = PlannerOptions {
        broadcast_joins: true,
    };
    query
        .relations
        .iter()
        .map(|relation| {
            let rows = delta_rows
                .get(relation)
                .copied()
                .unwrap_or(NOMINAL_DELTA_ROWS)
                .max(1);
            let leg_stats = stats.with_cardinality(relation, rows);
            Ok((relation.clone(), compile_with(query, &leg_stats, options)?))
        })
        .collect()
}

/// The refresh strategy the cost model selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaintenanceDecision {
    /// Push the signed delta legs through the maintenance plan.
    Incremental,
    /// Re-run the maintenance plan in full at the new epoch.
    Recompute,
}

/// The priced choice between incremental maintenance and recomputation.
#[derive(Clone, Debug)]
pub struct MaintenanceChoice {
    /// The cheaper strategy (ties go to recomputation — equal cost with
    /// simpler machinery).
    pub decision: MaintenanceDecision,
    /// Estimated network bytes of all incremental legs combined.
    pub incremental_bytes: f64,
    /// Estimated network bytes of a full recomputation.
    pub recompute_bytes: f64,
    /// Legs the incremental path would run (pivots of changed relations).
    pub legs: usize,
}

/// Price incremental maintenance against recomputation for one published
/// batch.
///
/// * `plan` — the view's *maintenance* plan (aggregates stripped),
///   which the recompute path executes;
/// * `legs` — the engine's rewritten delta legs
///   (`MaintenancePlan::legs`), in telescoping order;
/// * `stats_old` / `stats_new` — statistics snapshots at the view's
///   current epoch and at the published epoch;
/// * `delta_rows` — signed delta row count per relation
///   (`RelationDelta::signed_row_count`: the versions the interval
///   removed plus the ones it added, counted without reading a tuple);
///   relations absent or at zero are unchanged and contribute no leg.
pub fn choose_maintenance(
    plan: &PhysicalPlan,
    legs: &[MaintenanceLeg],
    stats_old: &Statistics,
    stats_new: &Statistics,
    delta_rows: &BTreeMap<String, usize>,
) -> Result<MaintenanceChoice, OrchestraError> {
    let recompute_bytes = estimate_plan_cost(plan, stats_new)?.total();

    let mut incremental_bytes = 0.0;
    let mut priced = 0;
    for (pivot, leg) in legs.iter().enumerate() {
        let rows = delta_rows.get(&leg.relation).copied().unwrap_or(0);
        if rows == 0 {
            continue;
        }
        priced += 1;
        // Leg `pivot` reads: relations before the pivot (telescoping
        // order) at the new epoch, the pivot as the signed delta,
        // relations after it at the old epoch.  `stats_new` is the
        // base, so only the pivot and the post-pivot relations need
        // overriding.
        let mut leg_stats = stats_new.with_cardinality(&leg.relation, rows);
        for later in &legs[pivot + 1..] {
            if let Some(old) = stats_old.table(&later.relation) {
                leg_stats = leg_stats.with_cardinality(&later.relation, old.cardinality);
            }
        }
        incremental_bytes += estimate_plan_cost(&leg.plan, &leg_stats)?.total();
    }

    let decision = if priced > 0 && incremental_bytes < recompute_bytes {
        MaintenanceDecision::Incremental
    } else {
        MaintenanceDecision::Recompute
    };
    Ok(MaintenanceChoice {
        decision,
        incremental_bytes,
        recompute_bytes,
        legs: priced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use orchestra_common::{ColumnType, Relation, Schema};
    use orchestra_engine::{FoldMode, PlanBuilder};

    fn table(name: &str, cardinality: usize) -> TableStats {
        TableStats::from_relation(
            &Relation::partitioned(
                name,
                Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
            ),
            cardinality,
        )
    }

    fn scan_ship(relation: &str) -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let r = b.scan(relation, 2, None);
        let ship = b.ship(r);
        b.output(ship)
    }

    fn leg(relation: &str, plan: PhysicalPlan) -> MaintenanceLeg {
        MaintenanceLeg {
            relation: relation.into(),
            plan,
            fold: FoldMode::Multiset,
        }
    }

    #[test]
    fn small_deltas_go_incremental_large_churn_recomputes() {
        let stats = |n| Statistics::from_tables(6, vec![table("R", n)]);
        let plan = scan_ship("R");
        let legs = vec![leg("R", plan.clone())];

        let small: BTreeMap<String, usize> = [("R".to_string(), 10)].into();
        let choice = choose_maintenance(&plan, &legs, &stats(1000), &stats(1005), &small).unwrap();
        assert_eq!(choice.decision, MaintenanceDecision::Incremental);
        assert_eq!(choice.legs, 1);
        assert!(choice.incremental_bytes < choice.recompute_bytes);

        // A churn batch whose signed delta outweighs the relation flips
        // the decision.
        let churn: BTreeMap<String, usize> = [("R".to_string(), 1600)].into();
        let choice = choose_maintenance(&plan, &legs, &stats(1000), &stats(1000), &churn).unwrap();
        assert_eq!(choice.decision, MaintenanceDecision::Recompute);
        assert!(choice.incremental_bytes > choice.recompute_bytes);
    }

    #[test]
    fn unchanged_relations_contribute_no_leg() {
        let stats = Statistics::from_tables(4, vec![table("R", 500), table("S", 500)]);
        let mut b = PlanBuilder::new();
        let r = b.scan("R", 2, None);
        let s = b.scan("S", 2, None);
        let r_re = b.rehash(r, vec![1]);
        let s_re = b.rehash(s, vec![1]);
        let j = b.hash_join(r_re, s_re, vec![1], vec![1]);
        let ship = b.ship(j);
        let plan = b.output(ship);
        let legs = vec![leg("R", plan.clone()), leg("S", plan.clone())];

        // Only R changed: one leg, priced with R at the delta size.
        let delta: BTreeMap<String, usize> = [("R".to_string(), 20)].into();
        let choice = choose_maintenance(&plan, &legs, &stats, &stats, &delta).unwrap();
        assert_eq!(choice.legs, 1);
        assert_eq!(choice.decision, MaintenanceDecision::Incremental);

        // Nothing changed: no legs, recompute wins by definition (and a
        // caller with an empty delta skips the refresh entirely).
        let none = BTreeMap::new();
        let choice = choose_maintenance(&plan, &legs, &stats, &stats, &none).unwrap();
        assert_eq!(choice.legs, 0);
        assert_eq!(choice.decision, MaintenanceDecision::Recompute);
        assert_eq!(choice.incremental_bytes, 0.0);
    }

    #[test]
    fn delta_first_legs_reorder_joins_around_the_pivot() {
        // A 3-relation chain query: the pivot relation compiled at
        // cardinality 1 must end up at the bottom of its leg's join
        // tree, so the big off-path join never re-runs.
        use crate::logical::col;
        let mut q = LogicalQuery::new();
        let a = q.relation("A");
        let b = q.relation("B");
        let c = q.relation("C");
        q.join(col(a, 0), col(b, 1))
            .join(col(b, 0), col(c, 1))
            .select(vec![
                crate::logical::LogicalExpr::col(a, 1),
                crate::logical::LogicalExpr::col(c, 1),
            ]);
        let stats =
            Statistics::from_tables(6, vec![table("A", 100), table("B", 400), table("C", 1600)]);
        let legs = compile_delta_legs(&q, &stats).unwrap();
        assert_eq!(legs.len(), 3);
        assert_eq!(legs[0].0, "A");
        // In every leg, the pivot's scan participates in the *deepest*
        // join: the other two relations join against the tiny delta
        // stream, never against each other first (which would re-ship a
        // full off-path join on every refresh).
        use orchestra_engine::OperatorKind;
        for (relation, plan) in &legs {
            assert_eq!(plan.scans().len(), 3, "leg {relation}");
            // The deepest join is the one with no HashJoin beneath it.
            let deepest = plan
                .operators()
                .iter()
                .find(|op| {
                    matches!(op.kind, OperatorKind::HashJoin { .. })
                        && subtree_has_no_join(plan, op.id)
                })
                .expect("a three-relation leg has joins");
            let pivot_scan = plan
                .scans()
                .into_iter()
                .find(|id| match &plan.op(*id).kind {
                    OperatorKind::DistributedScan { relation: r, .. } => r == relation,
                    _ => false,
                })
                .expect("pivot scan exists");
            assert!(
                subtree_contains(plan, deepest.id, pivot_scan),
                "leg {relation}: the pivot must sit under the deepest join:\n{}",
                plan.render()
            );
        }
    }

    /// No HashJoin strictly below `op`'s children.
    fn subtree_has_no_join(plan: &PhysicalPlan, op: orchestra_engine::OpId) -> bool {
        plan.op(op).children.iter().all(|c| {
            !matches!(
                plan.op(*c).kind,
                orchestra_engine::OperatorKind::HashJoin { .. }
            ) && subtree_has_no_join(plan, *c)
        })
    }

    /// Does the subtree rooted at `op` contain `target`?
    fn subtree_contains(
        plan: &PhysicalPlan,
        op: orchestra_engine::OpId,
        target: orchestra_engine::OpId,
    ) -> bool {
        op == target
            || plan
                .op(op)
                .children
                .iter()
                .any(|c| subtree_contains(plan, *c, target))
    }
}
