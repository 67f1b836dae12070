//! Physical query plans.
//!
//! A [`PhysicalPlan`] is a tree of the operators listed in Table I of the
//! paper.  Leaf operators are scans over the versioned store; `Rehash`
//! repartitions intermediate results across the participants; `Ship`
//! forwards results to the query initiator; everything above the `Ship`
//! boundary (final aggregation, output collection) runs only at the
//! initiator, everything below runs at every participant of the routing
//! snapshot.
//!
//! Plans are built with [`PlanBuilder`], which tracks output arities,
//! validates column references, and assigns execution sites.  The
//! optimizer crate produces plans through this builder; the workloads
//! crate also uses it directly for the fixed benchmark plans.

use crate::expr::{AggFunc, Predicate, ScalarExpr};

/// Identifier of an operator within its plan (index into the plan's
/// operator table).
pub type OpId = usize;

/// Where an operator executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// At every participant in the routing snapshot.
    Everywhere,
    /// Only at the query initiator (operators above the `Ship` boundary).
    InitiatorOnly,
}

/// How an aggregation operator interprets its input and produces output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggMode {
    /// One-shot aggregation over raw rows (used at the initiator when no
    /// distributed pre-aggregation is worthwhile, e.g. TPC-H Q6).
    Single,
    /// Distributed pre-aggregation over raw rows, emitting mergeable
    /// partial states (e.g. the per-node half of TPC-H Q1).
    Partial,
    /// Merge of partial states produced by `Partial` instances
    /// ("re-aggregation of partially aggregated intermediate results").
    Final,
}

/// The operator kinds of Table I.
#[derive(Clone, Debug, PartialEq)]
pub enum OperatorKind {
    /// Scan of a partitioned relation at the executing node's ranges,
    /// through index pages and data pages (Algorithm 1 restricted to the
    /// local partition).
    DistributedScan {
        /// Relation to scan.
        relation: String,
        /// Sargable predicate applied at the index/data nodes.
        predicate: Option<Predicate>,
    },
    /// Scan that answers from the index pages alone because only key
    /// attributes are needed ("bypassing the data storage nodes").
    CoveringIndexScan {
        /// Relation to scan.
        relation: String,
        /// Sargable predicate over the key attributes.
        predicate: Option<Predicate>,
    },
    /// Scan of a relation replicated in full at every node (TPC-H `nation`
    /// and `region`); no repartitioning is ever needed for these.
    ReplicatedScan {
        /// Relation to scan.
        relation: String,
        /// Predicate applied during the scan.
        predicate: Option<Predicate>,
    },
    /// Selection over intermediate results.
    Select {
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection onto a subset of columns.
    Project {
        /// Input column indices to keep, in output order.
        columns: Vec<usize>,
    },
    /// Scalar function evaluation; the output row is exactly the list of
    /// expression results.
    ComputeFunction {
        /// One expression per output column.
        exprs: Vec<ScalarExpr>,
    },
    /// Pipelined (symmetric) hash join.
    HashJoin {
        /// Join-key columns of the left input.
        left_keys: Vec<usize>,
        /// Join-key columns of the right input.
        right_keys: Vec<usize>,
    },
    /// Blocking hash aggregation (with provenance sub-groups, Section V-D).
    Aggregate {
        /// Grouping columns (of the raw input for `Single`/`Partial`, of
        /// the partial layout for `Final`).
        group_by: Vec<usize>,
        /// Aggregate functions and their input columns.
        aggs: Vec<(AggFunc, usize)>,
        /// Aggregation mode.
        mode: AggMode,
    },
    /// Repartition the input across all participants by hashing the given
    /// columns and consulting the routing snapshot.
    Rehash {
        /// Columns forming the repartitioning key.
        columns: Vec<usize>,
    },
    /// Replicate every input tuple to all participants of the routing
    /// snapshot.  A join whose other input stays in place (under *any*
    /// disjoint partitioning) is correct above a broadcast, because each
    /// stationary row exists at exactly one node — the exchange view
    /// maintenance uses to join a small signed delta stream against a
    /// large relation without moving the relation.
    Broadcast,
    /// Send all input tuples to the query initiator.
    Ship,
    /// Collect final results at the initiator (implicit root).
    Output,
}

impl OperatorKind {
    /// Short name used in plan rendering and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::DistributedScan { .. } => "DistributedScan",
            OperatorKind::CoveringIndexScan { .. } => "CoveringIndexScan",
            OperatorKind::ReplicatedScan { .. } => "ReplicatedScan",
            OperatorKind::Select { .. } => "Select",
            OperatorKind::Project { .. } => "Project",
            OperatorKind::ComputeFunction { .. } => "ComputeFunction",
            OperatorKind::HashJoin { .. } => "HashJoin",
            OperatorKind::Aggregate { .. } => "Aggregate",
            OperatorKind::Rehash { .. } => "Rehash",
            OperatorKind::Broadcast => "Broadcast",
            OperatorKind::Ship => "Ship",
            OperatorKind::Output => "Output",
        }
    }

    /// Is this a leaf (storage) operator?
    pub fn is_scan(&self) -> bool {
        self.scanned_relation().is_some()
    }

    /// The relation a leaf operator reads; `None` for any other.
    pub(crate) fn scanned_relation(&self) -> Option<&str> {
        match self {
            OperatorKind::DistributedScan { relation, .. }
            | OperatorKind::CoveringIndexScan { relation, .. }
            | OperatorKind::ReplicatedScan { relation, .. } => Some(relation),
            _ => None,
        }
    }

    /// Does this operator move tuples between nodes?
    pub fn is_exchange(&self) -> bool {
        matches!(
            self,
            OperatorKind::Rehash { .. } | OperatorKind::Broadcast | OperatorKind::Ship
        )
    }

    /// Is this a blocking operator (emits only at end-of-stream)?
    pub fn is_blocking(&self) -> bool {
        matches!(self, OperatorKind::Aggregate { .. })
    }
}

/// One operator of a physical plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Operator {
    /// The operator's identifier (index into [`PhysicalPlan::operators`]).
    pub id: OpId,
    /// What the operator does.
    pub kind: OperatorKind,
    /// Child operators (data sources), in input order (`HashJoin` has two:
    /// left then right).
    pub children: Vec<OpId>,
    /// Parent operator, `None` only for the root `Output`.
    pub parent: Option<OpId>,
    /// Position among the parent's inputs (0 for the root).
    pub(crate) input: usize,
    /// Number of columns in the operator's output rows.
    pub arity: usize,
    /// Where the operator runs.
    pub site: Site,
}

/// One pipeline segment of a plan: an exchange or `Output` — the
/// segment's *root* — and what feeds it from below without crossing
/// another exchange.  A node closes a segment (emits the blocking
/// operators' state, flushes the root, signals end-of-stream) once its
/// scans have run and every boundary exchange has delivered its last row.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Segment {
    /// The exchange or `Output` the segment feeds.
    pub(crate) root: OpId,
    /// The leaf scans inside the segment, ascending.
    pub(crate) scans: Vec<OpId>,
    /// The exchanges whose deliveries enter the segment from below,
    /// ascending.
    pub(crate) exchanges: Vec<OpId>,
    /// The blocking operators inside the segment, ascending.
    pub(crate) blocking: Vec<OpId>,
}

/// A complete physical plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    operators: Vec<Operator>,
    root: OpId,
    /// The segment topology — a function of `operators` alone, computed
    /// once when the plan is finished and read by every session.
    segments: Vec<Segment>,
}

impl PhysicalPlan {
    /// All operators, indexed by [`OpId`].
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// The operator with the given id.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.operators[id]
    }

    /// The root (`Output`) operator.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// The plan's segments, in ascending order of their roots.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// Is the plan empty (never true for a built plan)?
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// The ids of all leaf scans.
    pub fn scans(&self) -> Vec<OpId> {
        self.operators
            .iter()
            .filter(|o| o.kind.is_scan())
            .map(|o| o.id)
            .collect()
    }

    /// The relations referenced by the plan's scans.
    pub fn relations(&self) -> Vec<&str> {
        self.operators
            .iter()
            .filter_map(|o| o.kind.scanned_relation())
            .collect()
    }

    /// Number of `Rehash` operators (the paper's discussion of recovery
    /// cost and of bandwidth sensitivity is parameterised by this).
    pub fn rehash_count(&self) -> usize {
        self.operators
            .iter()
            .filter(|o| matches!(o.kind, OperatorKind::Rehash { .. }))
            .count()
    }

    /// Approximate wire size of the plan when disseminated to the
    /// participants along with the routing snapshot.
    pub fn serialized_size(&self) -> usize {
        128 + 96 * self.operators.len()
    }

    /// Multi-line indented rendering of the plan tree (for docs, examples
    /// and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(self.root, 0, &mut out);
        out
    }

    fn render_into(&self, id: OpId, depth: usize, out: &mut String) {
        let op = self.op(id);
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [id={}, arity={}, site={:?}]\n",
            op.kind.name(),
            op.id,
            op.arity,
            op.site
        ));
        for child in &op.children {
            self.render_into(*child, depth + 1, out);
        }
    }
}

/// Incremental builder for [`PhysicalPlan`]s.
#[derive(Clone, Debug, Default)]
pub struct PlanBuilder {
    operators: Vec<Operator>,
}

impl PlanBuilder {
    /// A fresh, empty builder.
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    fn push(&mut self, kind: OperatorKind, children: Vec<OpId>, arity: usize) -> OpId {
        let id = self.operators.len();
        for (input, &c) in children.iter().enumerate() {
            assert!(c < id, "child {c} does not exist yet");
            assert!(
                self.operators[c].parent.is_none(),
                "operator {c} already has a parent"
            );
            self.operators[c].parent = Some(id);
            self.operators[c].input = input;
        }
        self.operators.push(Operator {
            id,
            kind,
            children,
            parent: None,
            input: 0,
            arity,
            site: Site::Everywhere,
        });
        id
    }

    fn arity_of(&self, id: OpId) -> usize {
        self.operators[id].arity
    }

    /// Add a distributed scan of a partitioned relation with `arity`
    /// columns.
    pub fn scan(
        &mut self,
        relation: impl Into<String>,
        arity: usize,
        predicate: Option<Predicate>,
    ) -> OpId {
        self.push(
            OperatorKind::DistributedScan {
                relation: relation.into(),
                predicate,
            },
            vec![],
            arity,
        )
    }

    /// Add a covering index scan returning only the `key_len` key columns.
    pub fn covering_index_scan(
        &mut self,
        relation: impl Into<String>,
        key_len: usize,
        predicate: Option<Predicate>,
    ) -> OpId {
        self.push(
            OperatorKind::CoveringIndexScan {
                relation: relation.into(),
                predicate,
            },
            vec![],
            key_len,
        )
    }

    /// Add a scan of a fully replicated relation with `arity` columns.
    pub fn replicated_scan(
        &mut self,
        relation: impl Into<String>,
        arity: usize,
        predicate: Option<Predicate>,
    ) -> OpId {
        self.push(
            OperatorKind::ReplicatedScan {
                relation: relation.into(),
                predicate,
            },
            vec![],
            arity,
        )
    }

    /// Add a selection above `child`.
    pub fn select(&mut self, child: OpId, predicate: Predicate) -> OpId {
        let arity = self.arity_of(child);
        self.push(OperatorKind::Select { predicate }, vec![child], arity)
    }

    /// Add a projection above `child`.
    pub fn project(&mut self, child: OpId, columns: Vec<usize>) -> OpId {
        let child_arity = self.arity_of(child);
        assert!(
            columns.iter().all(|c| *c < child_arity),
            "projection column out of range"
        );
        let arity = columns.len();
        self.push(OperatorKind::Project { columns }, vec![child], arity)
    }

    /// Add scalar function evaluation above `child`; the output row is the
    /// list of expression results.
    pub fn compute(&mut self, child: OpId, exprs: Vec<ScalarExpr>) -> OpId {
        let arity = exprs.len();
        self.push(OperatorKind::ComputeFunction { exprs }, vec![child], arity)
    }

    /// Add a pipelined hash join of `left` and `right`.
    pub fn hash_join(
        &mut self,
        left: OpId,
        right: OpId,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> OpId {
        assert_eq!(
            left_keys.len(),
            right_keys.len(),
            "join key lists must have equal length"
        );
        let (la, ra) = (self.arity_of(left), self.arity_of(right));
        assert!(
            left_keys.iter().all(|c| *c < la),
            "left join key out of range"
        );
        assert!(
            right_keys.iter().all(|c| *c < ra),
            "right join key out of range"
        );
        self.push(
            OperatorKind::HashJoin {
                left_keys,
                right_keys,
            },
            vec![left, right],
            la + ra,
        )
    }

    /// Add a rehash (repartitioning) above `child`.
    pub fn rehash(&mut self, child: OpId, columns: Vec<usize>) -> OpId {
        let arity = self.arity_of(child);
        assert!(
            columns.iter().all(|c| *c < arity),
            "rehash column out of range"
        );
        self.push(OperatorKind::Rehash { columns }, vec![child], arity)
    }

    /// Add a broadcast-to-all-participants above `child`.
    pub fn broadcast(&mut self, child: OpId) -> OpId {
        let arity = self.arity_of(child);
        self.push(OperatorKind::Broadcast, vec![child], arity)
    }

    /// Add a ship-to-initiator above `child`.
    pub fn ship(&mut self, child: OpId) -> OpId {
        let arity = self.arity_of(child);
        self.push(OperatorKind::Ship, vec![child], arity)
    }

    /// Add an aggregation above `child`.
    pub fn aggregate(
        &mut self,
        child: OpId,
        group_by: Vec<usize>,
        aggs: Vec<(AggFunc, usize)>,
        mode: AggMode,
    ) -> OpId {
        let child_arity = self.arity_of(child);
        assert!(
            group_by.iter().all(|c| *c < child_arity),
            "group-by column out of range"
        );
        if mode != AggMode::Final {
            assert!(
                aggs.iter().all(|(_, c)| *c < child_arity),
                "aggregate input column out of range"
            );
        }
        let arity = match mode {
            AggMode::Partial => {
                group_by.len() + aggs.iter().map(|(f, _)| f.partial_width()).sum::<usize>()
            }
            AggMode::Single | AggMode::Final => group_by.len() + aggs.len(),
        };
        self.push(
            OperatorKind::Aggregate {
                group_by,
                aggs,
                mode,
            },
            vec![child],
            arity,
        )
    }

    /// Convenience: a distributed two-phase aggregation.  Adds a
    /// `Partial` aggregate above `child`, ships the partials to the
    /// initiator, and merges them there with a `Final` aggregate whose
    /// column references are derived from the partial layout.  Returns the
    /// final aggregate's id.
    pub fn two_phase_aggregate(
        &mut self,
        child: OpId,
        group_by: Vec<usize>,
        aggs: Vec<(AggFunc, usize)>,
    ) -> OpId {
        let group_count = group_by.len();
        let partial = self.aggregate(child, group_by, aggs.clone(), AggMode::Partial);
        let shipped = self.ship(partial);
        // In the partial layout the group columns come first, then each
        // aggregate's state columns.
        let mut col = group_count;
        let mut final_aggs = Vec::with_capacity(aggs.len());
        for (f, _) in &aggs {
            final_aggs.push((*f, col));
            col += f.partial_width();
        }
        self.aggregate(
            shipped,
            (0..group_count).collect(),
            final_aggs,
            AggMode::Final,
        )
    }

    /// Finish the plan: add the `Output` collector above `child`, assign
    /// execution sites, work out the segment topology, and validate the
    /// tree.
    pub fn output(mut self, child: OpId) -> PhysicalPlan {
        let arity = self.arity_of(child);
        let root = self.push(OperatorKind::Output, vec![child], arity);
        let mut plan = PhysicalPlan {
            operators: self.operators,
            root,
            segments: Vec::new(),
        };
        assign_sites(&mut plan);
        plan.segments = segments_of(&plan);
        validate(&plan);
        plan
    }
}

/// One segment per exchange and for `Output`: the scans, boundary
/// exchanges and blocking operators reached from the root's inputs
/// without crossing an exchange.
fn segments_of(plan: &PhysicalPlan) -> Vec<Segment> {
    let roots = plan
        .operators()
        .iter()
        .filter(|o| o.kind.is_exchange() || matches!(o.kind, OperatorKind::Output));
    roots
        .map(|root| {
            let mut segment = Segment {
                root: root.id,
                ..Segment::default()
            };
            let mut stack = root.children.clone();
            while let Some(id) = stack.pop() {
                let op = plan.op(id);
                if op.kind.is_exchange() {
                    segment.exchanges.push(id);
                } else if op.kind.is_scan() {
                    segment.scans.push(id);
                } else {
                    if op.kind.is_blocking() {
                        segment.blocking.push(id);
                    }
                    stack.extend(&op.children);
                }
            }
            segment.scans.sort_unstable();
            segment.exchanges.sort_unstable();
            segment.blocking.sort_unstable();
            segment
        })
        .collect()
}

/// Mark everything strictly above each `Ship` boundary as initiator-only.
fn assign_sites(plan: &mut PhysicalPlan) {
    fn mark(plan: &mut PhysicalPlan, id: OpId) {
        plan.operators[id].site = Site::InitiatorOnly;
        let children = plan.operators[id].children.clone();
        for child in children {
            if !matches!(plan.operators[child].kind, OperatorKind::Ship) {
                mark(plan, child);
            }
        }
    }
    mark(plan, plan.root);
}

/// Structural validation; panics with a descriptive message on invalid
/// plans (plans are built programmatically, so a panic is a programming
/// error, not a runtime condition).
fn validate(plan: &PhysicalPlan) {
    assert!(
        matches!(plan.op(plan.root).kind, OperatorKind::Output),
        "plan root must be Output"
    );
    let mut ship_seen = false;
    for op in plan.operators() {
        match &op.kind {
            OperatorKind::Output => assert_eq!(op.id, plan.root, "Output must be the root"),
            OperatorKind::Ship => ship_seen = true,
            _ => {}
        }
        if op.kind.is_scan() {
            assert!(op.children.is_empty(), "scans must be leaves");
        } else if op.id != plan.root {
            assert!(
                !op.children.is_empty(),
                "{} must have input",
                op.kind.name()
            );
        }
        if matches!(op.kind, OperatorKind::HashJoin { .. }) {
            assert_eq!(op.children.len(), 2, "HashJoin takes exactly two inputs");
        }
    }
    // Every path from a scan to the root must cross exactly one Ship.
    // Checked before the blanket ship-existence assertion so that the
    // error names the violated invariant precisely.
    for scan in plan.scans() {
        let mut ships = 0;
        let mut cursor = Some(scan);
        while let Some(id) = cursor {
            if matches!(plan.op(id).kind, OperatorKind::Ship) {
                ships += 1;
            }
            cursor = plan.op(id).parent;
        }
        assert_eq!(
            ships, 1,
            "each scan-to-root path must cross exactly one Ship"
        );
    }
    assert!(ship_seen, "every plan must ship results to the initiator");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    /// The plan of the paper's Example 5.1:
    /// `SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x`.
    fn example_5_1() -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let r = b.scan("R", 2, None); // R(x, y)
        let s = b.scan("S", 2, None); // S(y, z)
        let r_rehashed = b.rehash(r, vec![1]); // rehash R on y
        let join = b.hash_join(r_rehashed, s, vec![1], vec![0]); // R.y = S.y
        let rs = b.rehash(join, vec![0]); // rehash on x for grouping
        let agg = b.two_phase_aggregate(rs, vec![0], vec![(AggFunc::Min, 3)]);
        b.output(agg)
    }

    #[test]
    fn example_plan_builds_and_renders() {
        let plan = example_5_1();
        assert_eq!(plan.rehash_count(), 2);
        assert_eq!(plan.relations(), vec!["R", "S"]);
        assert_eq!(plan.scans().len(), 2);
        let rendering = plan.render();
        assert!(rendering.contains("HashJoin"));
        assert!(rendering.contains("Ship"));
        assert!(rendering.contains("Output"));
        assert!(plan.serialized_size() > 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn sites_split_at_the_ship_boundary() {
        let plan = example_5_1();
        for op in plan.operators() {
            match op.kind {
                OperatorKind::Output => assert_eq!(op.site, Site::InitiatorOnly),
                OperatorKind::Aggregate {
                    mode: AggMode::Final,
                    ..
                } => assert_eq!(op.site, Site::InitiatorOnly),
                OperatorKind::Aggregate { .. } => assert_eq!(op.site, Site::Everywhere),
                OperatorKind::Ship => assert_eq!(op.site, Site::Everywhere),
                _ => assert_eq!(op.site, Site::Everywhere),
            }
        }
    }

    fn segment(root: OpId, scans: &[OpId], exchanges: &[OpId], blocking: &[OpId]) -> Segment {
        Segment {
            root,
            scans: scans.to_vec(),
            exchanges: exchanges.to_vec(),
            blocking: blocking.to_vec(),
        }
    }

    fn input_positions(plan: &PhysicalPlan) -> Vec<usize> {
        plan.operators().iter().map(|o| o.input).collect()
    }

    /// The values are what the executor's per-session `segment_sources`
    /// and `input_index` returned for these plans before the topology
    /// moved into the plan.
    #[test]
    fn segment_topology_is_part_of_the_plan() {
        let plan = example_5_1();
        assert_eq!(
            plan.segments(),
            [
                segment(2, &[0], &[], &[]),
                segment(4, &[1], &[2], &[]),
                segment(6, &[], &[4], &[5]),
                segment(8, &[], &[6], &[7]),
            ]
        );
        assert_eq!(input_positions(&plan), [0, 1, 0, 0, 0, 0, 0, 0, 0]);

        // TPC-H Q3 as two joins over four rehashed inputs.
        let mut b = PlanBuilder::new();
        let customer = b.scan(
            "customer",
            2,
            Some(Predicate::cmp(1, CmpOp::Eq, "BUILDING")),
        );
        let orders = b.scan("orders", 4, Some(Predicate::cmp(2, CmpOp::Lt, 19950315i64)));
        let customer_re = b.rehash(customer, vec![0]);
        let orders_re = b.rehash(orders, vec![1]);
        let cust_orders = b.hash_join(customer_re, orders_re, vec![0], vec![1]);
        let lineitem = b.scan(
            "lineitem",
            9,
            Some(Predicate::cmp(8, CmpOp::Gt, 19950315i64)),
        );
        let cust_orders_re = b.rehash(cust_orders, vec![2]);
        let lineitem_re = b.rehash(lineitem, vec![1]);
        let joined = b.hash_join(cust_orders_re, lineitem_re, vec![2], vec![1]);
        let revenue = ScalarExpr::Mul(
            Box::new(ScalarExpr::col(9)),
            Box::new(ScalarExpr::Sub(
                Box::new(ScalarExpr::lit(100i64)),
                Box::new(ScalarExpr::col(10)),
            )),
        );
        let terms = b.compute(
            joined,
            vec![
                ScalarExpr::col(2),
                ScalarExpr::col(4),
                ScalarExpr::col(5),
                revenue,
            ],
        );
        let agg = b.two_phase_aggregate(terms, vec![0, 1, 2], vec![(AggFunc::Sum, 3)]);
        let plan = b.output(agg);
        assert_eq!(
            plan.segments(),
            [
                segment(2, &[0], &[], &[]),
                segment(3, &[1], &[], &[]),
                segment(6, &[], &[2, 3], &[]),
                segment(7, &[5], &[], &[]),
                segment(11, &[], &[6, 7], &[10]),
                segment(13, &[], &[11], &[12]),
            ]
        );
        assert_eq!(
            input_positions(&plan),
            [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn arities_propagate() {
        let plan = example_5_1();
        let join = plan
            .operators()
            .iter()
            .find(|o| matches!(o.kind, OperatorKind::HashJoin { .. }))
            .unwrap();
        assert_eq!(join.arity, 4);
        let partial = plan
            .operators()
            .iter()
            .find(|o| {
                matches!(
                    o.kind,
                    OperatorKind::Aggregate {
                        mode: AggMode::Partial,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(partial.arity, 2); // group col + MIN state
        assert_eq!(plan.op(plan.root()).arity, 2);
    }

    #[test]
    fn two_phase_average_uses_two_state_columns() {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 3, None);
        let agg =
            b.two_phase_aggregate(scan, vec![0], vec![(AggFunc::Avg, 2), (AggFunc::Count, 1)]);
        let plan = b.output(agg);
        let partial = plan
            .operators()
            .iter()
            .find(|o| {
                matches!(
                    o.kind,
                    OperatorKind::Aggregate {
                        mode: AggMode::Partial,
                        ..
                    }
                )
            })
            .unwrap();
        // group col + (sum, count) + count
        assert_eq!(partial.arity, 4);
        let final_agg = plan
            .operators()
            .iter()
            .find(|o| {
                matches!(
                    o.kind,
                    OperatorKind::Aggregate {
                        mode: AggMode::Final,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(final_agg.arity, 3);
        if let OperatorKind::Aggregate { aggs, .. } = &final_agg.kind {
            // AVG merges from column 1, COUNT from column 3 of the partial layout.
            assert_eq!(aggs[0], (AggFunc::Avg, 1));
            assert_eq!(aggs[1], (AggFunc::Count, 3));
        }
    }

    #[test]
    fn select_project_compute_arities() {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 4, Some(Predicate::cmp(0, CmpOp::Gt, 5i64)));
        let sel = b.select(scan, Predicate::cmp(1, CmpOp::Lt, 100i64));
        let proj = b.project(sel, vec![3, 0]);
        let comp = b.compute(
            proj,
            vec![
                ScalarExpr::col(0),
                ScalarExpr::col(1),
                ScalarExpr::lit(1i64),
            ],
        );
        let ship = b.ship(comp);
        let plan = b.output(ship);
        assert_eq!(plan.op(proj).arity, 2);
        assert_eq!(plan.op(comp).arity, 3);
        assert_eq!(plan.op(plan.root()).arity, 3);
    }

    #[test]
    #[should_panic(expected = "exactly one Ship")]
    fn plans_without_ship_are_rejected() {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 2, None);
        b.output(scan);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_projection_is_rejected() {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 2, None);
        b.project(scan, vec![5]);
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn sharing_a_child_is_rejected() {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 2, None);
        let _a = b.select(scan, Predicate::True);
        let _b = b.select(scan, Predicate::True);
    }
}
