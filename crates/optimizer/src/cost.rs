//! The network-aware cost model.
//!
//! The paper's evaluation is traffic-centric, and in a DHT-partitioned
//! engine the dominant cost of a plan is the bytes its `Rehash` and
//! `Ship` boundaries push across the wire: scans are node-local, and CPU
//! work is the same for any plan producing the same answer.  A plan's
//! cost is therefore its **estimated inter-node traffic in bytes**, with
//! estimated rows processed kept alongside as a deterministic tie-break
//! for the dynamic program.
//!
//! The primitives here ([`exchange_fraction`], [`join_output_rows`],
//! [`group_count`]) are shared between the System-R enumerator
//! ([`crate::compile`]) and the physical-plan estimator
//! ([`estimate_plan_cost`]), so the planner's internal arithmetic and the
//! cost it reports for any already-built plan agree.

use crate::stats::Statistics;
use orchestra_common::OrchestraError;
use orchestra_engine::{AggFunc, AggMode, OperatorKind, PhysicalPlan, Predicate, ScalarExpr};

/// Estimated per-tuple framing overhead of the batch wire encoding.
pub(crate) const TUPLE_OVERHEAD_BYTES: f64 = 2.0;
/// Estimated wire bytes of one numeric value — aggregate state columns
/// and computed (arithmetic) select-list values alike.
pub(crate) const NUMERIC_COLUMN_BYTES: f64 = 9.0;
/// Fraction of distinct grouping keys per input row assumed when no
/// distinct-count statistics exist.
const GROUP_RATIO: f64 = 0.1;

/// The estimated cost of a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanCost {
    /// Estimated inter-node traffic in bytes — the cost that is
    /// minimised and compared.
    pub network_bytes: f64,
    /// Estimated rows flowing through all operators (deterministic
    /// tie-break between plans of equal traffic).
    pub cpu_rows: f64,
}

impl PlanCost {
    /// The scalar total used for comparisons: estimated network bytes.
    pub fn total(&self) -> f64 {
        self.network_bytes
    }

    /// Accumulate another cost component.
    pub fn add(&mut self, other: PlanCost) {
        self.network_bytes += other.network_bytes;
        self.cpu_rows += other.cpu_rows;
    }

    /// Is this cost strictly better than `other` (network bytes first,
    /// rows processed as the tie-break)?
    pub fn better_than(&self, other: &PlanCost) -> bool {
        if self.network_bytes != other.network_bytes {
            return self.network_bytes < other.network_bytes;
        }
        self.cpu_rows < other.cpu_rows
    }
}

/// The fraction of uniformly partitioned rows that must leave their node
/// when repartitioned or shipped across an `nodes`-participant snapshot.
pub fn exchange_fraction(nodes: usize) -> f64 {
    if nodes <= 1 {
        0.0
    } else {
        (nodes as f64 - 1.0) / nodes as f64
    }
}

/// Estimated output rows of an equi-join of `rows_a` × `rows_b` rows
/// whose join key has an estimated `distinct` distinct values (the
/// textbook `|A||B| / max(V(A), V(B))` with the base-relation
/// cardinality as the distinct-count proxy).
pub fn join_output_rows(rows_a: f64, rows_b: f64, distinct: f64) -> f64 {
    if distinct <= 1.0 {
        rows_a * rows_b
    } else {
        rows_a * rows_b / distinct
    }
}

/// Estimated group count of an aggregation over `rows` input rows:
/// one group when ungrouped, a fixed fraction of the input otherwise.
pub fn group_count(rows: f64, grouped: bool) -> f64 {
    if rows <= 0.0 {
        return 0.0;
    }
    if grouped {
        (rows * GROUP_RATIO).max(1.0)
    } else {
        1.0
    }
}

/// Estimated wire bytes of the state columns of a partial-aggregate row.
pub(crate) fn partial_state_bytes(aggs: &[(AggFunc, usize)]) -> f64 {
    aggs.iter()
        .map(|(f, _)| f.partial_width() as f64 * NUMERIC_COLUMN_BYTES)
        .sum()
}

/// Bottom-up estimate of one operator subtree: output rows, per-column
/// widths, per-column distinct-count estimates (where the adaptive
/// overlay has them), and the largest base-relation cardinality
/// underneath (the distinct-count proxy when no sketch answers).
struct SubtreeEst {
    rows: f64,
    widths: Vec<f64>,
    distincts: Vec<Option<f64>>,
    max_base_cardinality: f64,
}

impl SubtreeEst {
    fn row_bytes(&self) -> f64 {
        TUPLE_OVERHEAD_BYTES + self.widths.iter().sum::<f64>()
    }
}

/// Estimate the cost of an already-built physical plan against a
/// statistics snapshot.  Used by the plan-quality experiment to compare
/// the optimizer-chosen plan with every plan of its [`crate::plan_space`]
/// under one model.
pub fn estimate_plan_cost(
    plan: &PhysicalPlan,
    stats: &Statistics,
) -> Result<PlanCost, OrchestraError> {
    Ok(estimate_plan_cost_and_rows(plan, stats)?.0)
}

/// [`estimate_plan_cost`] plus the plan's estimated *output cardinality*
/// — the prediction the adaptive feedback loop compares against the
/// measured answer size ([`crate::adaptive::CostFeedback::observe_rows`]).
pub fn estimate_plan_cost_and_rows(
    plan: &PhysicalPlan,
    stats: &Statistics,
) -> Result<(PlanCost, f64), OrchestraError> {
    let mut cost = PlanCost::default();
    let root = walk(plan, plan.root(), stats, &mut cost)?;
    Ok((cost, root.rows))
}

fn scan_est(
    stats: &Statistics,
    relation: &str,
    predicate: &Option<Predicate>,
    key_only: bool,
) -> Result<SubtreeEst, OrchestraError> {
    let table = stats.table(relation).ok_or_else(|| {
        OrchestraError::Execution(format!("no statistics for relation {relation}"))
    })?;
    let selectivity = table.selectivity(predicate.as_ref());
    let (widths, distincts) = if key_only {
        (
            table.column_widths[..table.key_len].to_vec(),
            table.distinct_counts[..table.key_len].to_vec(),
        )
    } else {
        (table.column_widths.clone(), table.distinct_counts.clone())
    };
    Ok(SubtreeEst {
        rows: table.cardinality as f64 * selectivity,
        widths,
        distincts,
        max_base_cardinality: table.cardinality as f64,
    })
}

/// Estimated group count of an aggregation over `child`, preferring the
/// product of the group columns' distinct-count estimates (capped at the
/// input cardinality) and falling back to the fixed
/// [`group_count`] ratio when any group column lacks a sketch.
fn group_estimate(child: &SubtreeEst, group_by: &[usize], grouped: bool) -> f64 {
    if grouped && child.rows > 0.0 {
        let mut product = 1.0;
        let mut covered = !group_by.is_empty();
        for c in group_by {
            match child.distincts.get(*c).copied().flatten() {
                Some(d) => product *= d.max(1.0),
                None => {
                    covered = false;
                    break;
                }
            }
        }
        if covered {
            return product.min(child.rows).max(1.0);
        }
    }
    group_count(child.rows, grouped)
}

fn expr_width(expr: &ScalarExpr, child: &SubtreeEst) -> f64 {
    match expr {
        ScalarExpr::Column(i) => child
            .widths
            .get(*i)
            .copied()
            .unwrap_or(NUMERIC_COLUMN_BYTES),
        ScalarExpr::Literal(v) => v.serialized_size() as f64,
        ScalarExpr::Add(..) | ScalarExpr::Sub(..) | ScalarExpr::Mul(..) => NUMERIC_COLUMN_BYTES,
        ScalarExpr::Concat(parts) => parts.iter().map(|p| expr_width(p, child)).sum(),
    }
}

fn walk(
    plan: &PhysicalPlan,
    op: orchestra_engine::OpId,
    stats: &Statistics,
    cost: &mut PlanCost,
) -> Result<SubtreeEst, OrchestraError> {
    let operator = plan.op(op);
    let est = match &operator.kind {
        OperatorKind::DistributedScan {
            relation,
            predicate,
        }
        | OperatorKind::ReplicatedScan {
            relation,
            predicate,
        } => scan_est(stats, relation, predicate, false)?,
        OperatorKind::CoveringIndexScan {
            relation,
            predicate,
        } => scan_est(stats, relation, predicate, true)?,
        OperatorKind::Select { predicate } => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            SubtreeEst {
                rows: child.rows * predicate.estimated_selectivity(),
                ..child
            }
        }
        OperatorKind::Project { columns } => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            let widths = columns
                .iter()
                .map(|c| {
                    child
                        .widths
                        .get(*c)
                        .copied()
                        .unwrap_or(NUMERIC_COLUMN_BYTES)
                })
                .collect();
            let distincts = columns
                .iter()
                .map(|c| child.distincts.get(*c).copied().flatten())
                .collect();
            SubtreeEst {
                widths,
                distincts,
                ..child
            }
        }
        OperatorKind::ComputeFunction { exprs } => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            let widths = exprs.iter().map(|e| expr_width(e, &child)).collect();
            let distincts = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(i) => child.distincts.get(*i).copied().flatten(),
                    _ => None,
                })
                .collect();
            SubtreeEst {
                widths,
                distincts,
                ..child
            }
        }
        OperatorKind::HashJoin {
            left_keys,
            right_keys,
        } => {
            let left = walk(plan, operator.children[0], stats, cost)?;
            let right = walk(plan, operator.children[1], stats, cost)?;
            let max_base = left.max_base_cardinality.max(right.max_base_cardinality);
            // Prefer the key columns' sketched distinct counts; the
            // base-cardinality proxy only stands in when no side knows.
            let mut key_distinct: Option<f64> = None;
            for (side, keys) in [(&left, left_keys), (&right, right_keys)] {
                for k in keys {
                    if let Some(d) = side.distincts.get(*k).copied().flatten() {
                        key_distinct = Some(key_distinct.map_or(d, |cur| cur.max(d)));
                    }
                }
            }
            let distinct = key_distinct.unwrap_or(max_base);
            let rows = join_output_rows(left.rows, right.rows, distinct);
            let mut widths = left.widths;
            widths.extend(right.widths);
            let mut distincts = left.distincts;
            distincts.extend(right.distincts);
            SubtreeEst {
                rows,
                widths,
                distincts,
                max_base_cardinality: max_base,
            }
        }
        OperatorKind::Aggregate {
            group_by,
            aggs,
            mode,
        } => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            let grouped = !group_by.is_empty();
            let group_distincts: Vec<Option<f64>> = group_by
                .iter()
                .map(|c| child.distincts.get(*c).copied().flatten())
                .collect();
            match mode {
                AggMode::Partial => {
                    let groups = group_estimate(&child, group_by, grouped);
                    let rows = child.rows.min(groups * stats.nodes as f64);
                    let mut widths: Vec<f64> = group_by
                        .iter()
                        .map(|c| {
                            child
                                .widths
                                .get(*c)
                                .copied()
                                .unwrap_or(NUMERIC_COLUMN_BYTES)
                        })
                        .collect();
                    widths.push(partial_state_bytes(aggs));
                    let mut distincts = group_distincts;
                    distincts.push(None);
                    SubtreeEst {
                        rows,
                        widths,
                        distincts,
                        max_base_cardinality: child.max_base_cardinality,
                    }
                }
                AggMode::Single | AggMode::Final => {
                    let rows = group_estimate(&child, group_by, grouped).min(child.rows);
                    let widths = (0..group_by.len() + aggs.len())
                        .map(|_| NUMERIC_COLUMN_BYTES)
                        .collect();
                    let mut distincts = group_distincts;
                    distincts.extend(aggs.iter().map(|_| None));
                    SubtreeEst {
                        rows,
                        widths,
                        distincts,
                        max_base_cardinality: child.max_base_cardinality,
                    }
                }
            }
        }
        OperatorKind::Rehash { .. } | OperatorKind::Ship => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            cost.network_bytes += child.rows * child.row_bytes() * exchange_fraction(stats.nodes);
            child
        }
        OperatorKind::Broadcast => {
            let child = walk(plan, operator.children[0], stats, cost)?;
            // Every row goes to every *other* participant (the local
            // copy is an in-memory handover).  Row-count estimates stay
            // logical: each stationary join partner still meets each
            // broadcast row exactly once.
            cost.network_bytes +=
                child.rows * child.row_bytes() * (stats.nodes.saturating_sub(1)) as f64;
            child
        }
        OperatorKind::Output => walk(plan, operator.children[0], stats, cost)?,
    };
    cost.cpu_rows += est.rows;
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use orchestra_common::{ColumnType, Relation, Schema};
    use orchestra_engine::{CmpOp, PlanBuilder};

    fn two_col_stats(name: &str, cardinality: usize) -> TableStats {
        TableStats::from_relation(
            &Relation::partitioned(
                name,
                Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
            ),
            cardinality,
        )
    }

    fn stats(nodes: usize) -> Statistics {
        Statistics::from_tables(
            nodes,
            vec![two_col_stats("R", 1000), two_col_stats("S", 100)],
        )
    }

    #[test]
    fn primitives_behave_at_the_edges() {
        assert_eq!(exchange_fraction(1), 0.0);
        assert!(exchange_fraction(4) > 0.7 && exchange_fraction(4) < 0.8);
        assert_eq!(join_output_rows(10.0, 20.0, 0.5), 200.0);
        assert_eq!(join_output_rows(10.0, 20.0, 20.0), 10.0);
        assert_eq!(group_count(0.0, true), 0.0);
        assert_eq!(group_count(1000.0, false), 1.0);
        assert_eq!(group_count(1000.0, true), 100.0);
        assert_eq!(group_count(3.0, true), 1.0);
    }

    #[test]
    fn more_rehashes_cost_more() {
        let cheap = {
            let mut b = PlanBuilder::new();
            let r = b.scan("R", 2, None);
            let s = b.scan("S", 2, None);
            let s_re = b.rehash(s, vec![1]);
            let j = b.hash_join(r, s_re, vec![0], vec![1]);
            let ship = b.ship(j);
            b.output(ship)
        };
        let dear = {
            let mut b = PlanBuilder::new();
            let r = b.scan("R", 2, None);
            let s = b.scan("S", 2, None);
            let r_re = b.rehash(r, vec![0]);
            let s_re = b.rehash(s, vec![1]);
            let j = b.hash_join(r_re, s_re, vec![0], vec![1]);
            let ship = b.ship(j);
            b.output(ship)
        };
        let s = stats(6);
        let cheap_cost = estimate_plan_cost(&cheap, &s).unwrap();
        let dear_cost = estimate_plan_cost(&dear, &s).unwrap();
        assert!(cheap_cost.better_than(&dear_cost));
        assert!(cheap_cost.network_bytes < dear_cost.network_bytes);
    }

    #[test]
    fn selective_scans_ship_fewer_estimated_bytes() {
        let build = |pred: Option<Predicate>| {
            let mut b = PlanBuilder::new();
            let r = b.scan("R", 2, pred);
            let ship = b.ship(r);
            b.output(ship)
        };
        let s = stats(4);
        let all = estimate_plan_cost(&build(None), &s).unwrap();
        let some =
            estimate_plan_cost(&build(Some(Predicate::cmp(1, CmpOp::Eq, 3i64))), &s).unwrap();
        assert!(some.network_bytes < all.network_bytes);
        assert!(all.network_bytes > 0.0);
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut b = PlanBuilder::new();
        let r = b.scan("Mystery", 2, None);
        let ship = b.ship(r);
        let plan = b.output(ship);
        assert!(estimate_plan_cost(&plan, &stats(4)).is_err());
    }

    #[test]
    fn single_node_cluster_has_no_network_cost() {
        let mut b = PlanBuilder::new();
        let r = b.scan("R", 2, None);
        let re = b.rehash(r, vec![0]);
        let ship = b.ship(re);
        let plan = b.output(ship);
        let cost = estimate_plan_cost(&plan, &stats(1)).unwrap();
        assert_eq!(cost.network_bytes, 0.0);
        assert!(cost.cpu_rows > 0.0);
    }
}
