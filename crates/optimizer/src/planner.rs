//! The System-R dynamic-programming planner.
//!
//! [`compile`] translates a [`LogicalQuery`] into a
//! [`orchestra_engine::PhysicalPlan`] in the classic bottom-up style:
//!
//! 1. **Access paths** — every relation slot gets a leaf candidate with
//!    its conjunctive predicates pushed into the scan.  Replicated
//!    relations elect [`orchestra_engine::OperatorKind::ReplicatedScan`]; queries touching
//!    only key attributes elect [`orchestra_engine::OperatorKind::CoveringIndexScan`]
//!    ("bypassing the data storage nodes"); everything else scans the
//!    partitioned store.  Unreferenced columns are pruned immediately.
//! 2. **Join-order search** — dynamic programming over *connected*
//!    subsets of the join graph.  Each subset keeps its best candidate
//!    per physical *partitioning property* (the hash-partitioning
//!    column lists the intermediate satisfies — the distributed analogue
//!    of System-R's interesting orders): a join whose input is already
//!    partitioned on its keys needs no `Rehash`, so a cheaper-but-
//!    mispartitioned candidate cannot blindly dominate.
//! 3. **Rehash placement** — a join inserts a `Rehash` below exactly the
//!    inputs whose partitioning does not cover the join keys; joins with
//!    a replicated input never repartition at all.
//! 4. **Finish** — the select list is lowered onto the chosen layout and
//!    the aggregation is placed by cost: distributed two-phase
//!    (`Partial` everywhere, `Final` at the initiator) when the partial
//!    states are estimated to ship fewer bytes than the raw rows,
//!    single-shot at the initiator otherwise.
//!
//! All bookkeeping uses ordered containers and the enumeration order is
//! fixed, so the same query over the same statistics always compiles to
//! the byte-identical plan.

use crate::cost::{
    exchange_fraction, group_count, join_output_rows, partial_state_bytes, PlanCost,
    NUMERIC_COLUMN_BYTES, TUPLE_OVERHEAD_BYTES,
};
use crate::logical::{col, predicate_columns, ColRef, LogicalExpr, LogicalQuery};
use crate::stats::{Statistics, TableStats};
use orchestra_common::{OrchestraError, Result};
use orchestra_engine::{AggMode, OpId, PhysicalPlan, PlanBuilder, Predicate, ScalarExpr};
use std::collections::BTreeSet;

/// Largest supported number of relation slots (bitmask enumeration).
const MAX_RELATIONS: usize = 12;

/// Which access path a leaf elected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanKind {
    Distributed,
    CoveringIndex,
    Replicated,
}

/// Per-relation-slot planning state.
struct Leaf {
    kind: ScanKind,
    predicate: Option<Predicate>,
    /// Columns the raw scan emits (full arity, or `key_len` for covering
    /// index scans).
    scan_arity: usize,
    rows: f64,
    cardinality: f64,
}

/// The physical partitioning property of an intermediate result.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Partitioning {
    /// Present in full at every node (replicated leaf).
    Replicated,
    /// Hash-partitioned; each inner list is a column sequence whose
    /// hash determines the row's node (all lists are equivalent).
    Hash(BTreeSet<Vec<ColRef>>),
}

impl Partitioning {
    fn covers(&self, keys: &[ColRef]) -> bool {
        match self {
            Partitioning::Replicated => false,
            Partitioning::Hash(lists) => lists.contains(keys),
        }
    }
}

/// How one join input reaches its join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exchange {
    /// Already placed correctly (co-partitioned or replicated).
    InPlace,
    /// Repartitioned on the join keys.
    Rehash,
    /// Replicated to every participant; the other side joins in place
    /// under whatever partitioning it has.
    Broadcast,
}

/// One join tree the dynamic program is considering.
#[derive(Clone, Debug)]
enum JoinTree {
    Leaf(usize),
    Join {
        left: Box<JoinTree>,
        right: Box<JoinTree>,
        left_keys: Vec<ColRef>,
        right_keys: Vec<ColRef>,
        left_exchange: Exchange,
        right_exchange: Exchange,
    },
}

/// A memoised plan for one relation subset.
#[derive(Clone, Debug)]
struct Candidate {
    cost: PlanCost,
    rows: f64,
    /// Largest base-relation cardinality underneath (distinct-count proxy).
    max_base: f64,
    partitioning: Partitioning,
    tree: JoinTree,
}

/// How the final aggregation (if any) is placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AggPlacement {
    NoAggregate,
    SingleAtInitiator,
    TwoPhase,
}

/// Optional planner features.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Also enumerate *broadcast joins*: replicate one input to every
    /// participant and join the other in place under whatever
    /// partitioning it already has.  Costed at `rows × (n-1) × bytes`,
    /// this wins when one side is tiny — the structural situation of a
    /// view-maintenance delta leg, which is why leg compilation turns
    /// it on while ad-hoc compilation keeps the classic rehash-only
    /// search space.
    pub broadcast_joins: bool,
}

impl PlannerOptions {
    /// The option set a *calibrated* deployment uses for ad-hoc plans:
    /// broadcast joins join the search space once measured feedback has
    /// validated the cost model's broadcast constants
    /// ([`crate::adaptive::CostFeedback::broadcast_ready`]).  The
    /// `Default` options stay conservative so cold-start compilations
    /// remain reproducible.
    pub fn calibrated() -> PlannerOptions {
        PlannerOptions {
            broadcast_joins: true,
        }
    }
}

/// Compile a logical query into a physical plan under the given
/// statistics snapshot.  Deterministic: the same `(query, stats)` always
/// yields the byte-identical plan.
pub fn compile(query: &LogicalQuery, stats: &Statistics) -> Result<PhysicalPlan> {
    compile_with(query, stats, PlannerOptions::default())
}

/// [`compile`] with explicit [`PlannerOptions`].
pub fn compile_with(
    query: &LogicalQuery,
    stats: &Statistics,
    options: PlannerOptions,
) -> Result<PhysicalPlan> {
    let planner = Planner::new(query, stats, options)?;
    planner.plan()
}

struct Planner<'a> {
    query: &'a LogicalQuery,
    stats: &'a Statistics,
    options: PlannerOptions,
    tables: Vec<&'a TableStats>,
    leaves: Vec<Leaf>,
}

impl<'a> Planner<'a> {
    fn new(
        query: &'a LogicalQuery,
        stats: &'a Statistics,
        options: PlannerOptions,
    ) -> Result<Planner<'a>> {
        let n = query.relations.len();
        if n == 0 {
            return Err(OrchestraError::Planning(
                "a query must read at least one relation".into(),
            ));
        }
        if n > MAX_RELATIONS {
            return Err(OrchestraError::Planning(format!(
                "queries over more than {MAX_RELATIONS} relations are not supported"
            )));
        }
        if query.select.is_empty() {
            return Err(OrchestraError::Planning(
                "a query must select at least one expression".into(),
            ));
        }
        let mut tables = Vec::with_capacity(n);
        for name in &query.relations {
            tables.push(stats.table(name).ok_or_else(|| {
                OrchestraError::Planning(format!("no statistics for relation {name}"))
            })?);
        }
        // A query reading only replicated relations has no partitioned
        // anchor: every participant holds the full answer, so shipping
        // would duplicate it.  Diagnose this up front — join enumeration
        // would otherwise fail with a misleading connectivity error.
        if tables.iter().all(|t| t.replicated) {
            return Err(OrchestraError::Planning(
                "queries reading only replicated relations are not supported (every \
                 participant would ship a full copy of the answer)"
                    .into(),
            ));
        }
        let planner = Planner {
            query,
            stats,
            options,
            tables,
            leaves: Vec::new(),
        };
        planner.validate_references()?;
        let leaves = (0..n)
            .map(|i| planner.elect_leaf(i))
            .collect::<Result<Vec<Leaf>>>()?;
        Ok(Planner { leaves, ..planner })
    }

    fn validate_references(&self) -> Result<()> {
        let n = self.query.relations.len();
        let check_col = |c: ColRef, what: &str| -> Result<()> {
            if c.relation >= n || c.column >= self.tables[c.relation].arity {
                return Err(OrchestraError::Planning(format!(
                    "{what} references column {} of relation slot {}, which does not exist",
                    c.column, c.relation
                )));
            }
            Ok(())
        };
        for (rel, pred) in &self.query.predicates {
            if *rel >= n {
                return Err(OrchestraError::Planning(format!(
                    "predicate references relation slot {rel}, which does not exist"
                )));
            }
            let mut cols = BTreeSet::new();
            predicate_columns(pred, &mut cols);
            for c in cols {
                check_col(col(*rel, c), "a predicate")?;
            }
        }
        for edge in &self.query.joins {
            check_col(edge.left, "a join edge")?;
            check_col(edge.right, "a join edge")?;
            if edge.left.relation == edge.right.relation {
                return Err(OrchestraError::Planning(
                    "a join edge must connect two distinct relation slots".into(),
                ));
            }
        }
        for c in self.query.select_columns() {
            check_col(c, "the select list")?;
        }
        if let Some(agg) = &self.query.aggregation {
            let width = self.query.select.len();
            if agg
                .group_by
                .iter()
                .chain(agg.aggs.iter().map(|(_, c)| c))
                .any(|c| *c >= width)
            {
                return Err(OrchestraError::Planning(
                    "aggregation references a select-list position that does not exist".into(),
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Access-path election
    // ------------------------------------------------------------------

    /// The conjunction of every pushed-down predicate of relation `rel`.
    fn pushed_predicate(&self, rel: usize) -> Option<Predicate> {
        let mut preds: Vec<Predicate> = self
            .query
            .predicates
            .iter()
            .filter(|(r, _)| *r == rel)
            .map(|(_, p)| p.clone())
            .collect();
        match preds.len() {
            0 => None,
            1 => Some(preds.remove(0)),
            _ => Some(Predicate::And(preds)),
        }
    }

    /// The global columns the subtree over `mask` must still carry:
    /// select-list columns of its relations plus its endpoints of join
    /// edges crossing out of `mask`.
    fn needed_columns(&self, mask: usize) -> BTreeSet<ColRef> {
        let mut needed: BTreeSet<ColRef> = self
            .query
            .select_columns()
            .into_iter()
            .filter(|c| mask & (1 << c.relation) != 0)
            .collect();
        for edge in &self.query.joins {
            let lin = mask & (1 << edge.left.relation) != 0;
            let rin = mask & (1 << edge.right.relation) != 0;
            if lin && !rin {
                needed.insert(edge.left);
            }
            if rin && !lin {
                needed.insert(edge.right);
            }
        }
        needed
    }

    /// Estimated wire bytes of one row of the subtree over `mask` (its
    /// pruned layout).
    fn row_bytes(&self, mask: usize) -> f64 {
        TUPLE_OVERHEAD_BYTES
            + self
                .needed_columns(mask)
                .iter()
                .map(|c| self.tables[c.relation].column_widths[c.column])
                .sum::<f64>()
    }

    /// Elect the access path of relation slot `rel`.
    fn elect_leaf(&self, rel: usize) -> Result<Leaf> {
        let table = self.tables[rel];
        let predicate = self.pushed_predicate(rel);
        let mut referenced: BTreeSet<usize> = self
            .needed_columns(1 << rel)
            .into_iter()
            .map(|c| c.column)
            .collect();
        if let Some(p) = &predicate {
            predicate_columns(p, &mut referenced);
        }
        let kind = if table.replicated {
            ScanKind::Replicated
        } else if referenced.iter().all(|c| *c < table.key_len) {
            // Only key attributes are referenced: answer from the index
            // pages alone.
            ScanKind::CoveringIndex
        } else {
            ScanKind::Distributed
        };
        let scan_arity = match kind {
            ScanKind::CoveringIndex => table.key_len,
            _ => table.arity,
        };
        // Histogram-aware when the statistics carry an adaptive overlay;
        // reproduces the textbook constants on a bare snapshot.
        let selectivity = table.selectivity(predicate.as_ref());
        Ok(Leaf {
            kind,
            predicate,
            scan_arity,
            rows: table.cardinality as f64 * selectivity,
            cardinality: table.cardinality as f64,
        })
    }

    fn leaf_candidate(&self, rel: usize) -> Candidate {
        let leaf = &self.leaves[rel];
        let table = self.tables[rel];
        let partitioning = match leaf.kind {
            ScanKind::Replicated => Partitioning::Replicated,
            _ => {
                let keys: Vec<ColRef> = (0..table.key_len).map(|c| col(rel, c)).collect();
                Partitioning::Hash([keys].into_iter().collect())
            }
        };
        Candidate {
            cost: PlanCost {
                network_bytes: 0.0,
                cpu_rows: leaf.cardinality,
            },
            rows: leaf.rows,
            max_base: leaf.cardinality,
            partitioning,
            tree: JoinTree::Leaf(rel),
        }
    }

    // ------------------------------------------------------------------
    // Join-order search
    // ------------------------------------------------------------------

    /// The aligned equi-join key lists between the relations of `a` and
    /// the relations of `b` (empty when the subsets are not connected).
    fn crossing_keys(&self, a: usize, b: usize) -> (Vec<ColRef>, Vec<ColRef>) {
        let mut keys_a = Vec::new();
        let mut keys_b = Vec::new();
        for edge in &self.query.joins {
            let (l, r) = (edge.left, edge.right);
            if a & (1 << l.relation) != 0 && b & (1 << r.relation) != 0 {
                keys_a.push(l);
                keys_b.push(r);
            } else if b & (1 << l.relation) != 0 && a & (1 << r.relation) != 0 {
                keys_a.push(r);
                keys_b.push(l);
            }
        }
        (keys_a, keys_b)
    }

    /// Join candidates `ca` (over `a`) and `cb` (over `b`): the
    /// co-partitioning (rehash) variant, plus — when enabled — the two
    /// broadcast variants.  Empty when the combination is not executable
    /// (two replicated inputs).
    fn join_candidates(
        &self,
        ca: &Candidate,
        a: usize,
        cb: &Candidate,
        b: usize,
        keys_a: &[ColRef],
        keys_b: &[ColRef],
    ) -> Vec<Candidate> {
        let a_replicated = ca.partitioning == Partitioning::Replicated;
        let b_replicated = cb.partitioning == Partitioning::Replicated;
        if a_replicated && b_replicated {
            // Every node holds both inputs in full; the join result would
            // be duplicated at every participant.
            return Vec::new();
        }
        let distinct = ca.max_base.max(cb.max_base);
        let rows = join_output_rows(ca.rows, cb.rows, distinct);
        let base_cost = {
            let mut cost = ca.cost;
            cost.add(cb.cost);
            cost.cpu_rows += rows;
            cost
        };
        let build = |cost: PlanCost,
                     partitioning: Partitioning,
                     left_exchange: Exchange,
                     right_exchange: Exchange| Candidate {
            cost,
            rows,
            max_base: distinct,
            partitioning,
            tree: JoinTree::Join {
                left: Box::new(ca.tree.clone()),
                right: Box::new(cb.tree.clone()),
                left_keys: keys_a.to_vec(),
                right_keys: keys_b.to_vec(),
                left_exchange,
                right_exchange,
            },
        };
        let mut out = Vec::new();

        // Variant 1: co-partitioning.  A replicated input joins in place
        // on either side; two partitioned inputs must be co-partitioned
        // on the join keys.
        {
            let (rehash_a, rehash_b) = if a_replicated || b_replicated {
                (false, false)
            } else {
                (
                    !ca.partitioning.covers(keys_a),
                    !cb.partitioning.covers(keys_b),
                )
            };
            let mut cost = base_cost;
            let frac = exchange_fraction(self.stats.nodes);
            if rehash_a {
                cost.network_bytes += ca.rows * self.row_bytes(a) * frac;
                cost.cpu_rows += ca.rows;
            }
            if rehash_b {
                cost.network_bytes += cb.rows * self.row_bytes(b) * frac;
                cost.cpu_rows += cb.rows;
            }
            // Partitioning of the joined rows: key-value equivalence plus
            // every property of an input that did not move.
            let mut lists: BTreeSet<Vec<ColRef>> = BTreeSet::new();
            if !a_replicated && !b_replicated {
                lists.insert(keys_a.to_vec());
                lists.insert(keys_b.to_vec());
            }
            for (candidate, replicated, rehashed, own_keys, other_keys) in [
                (ca, a_replicated, rehash_a, keys_a, keys_b),
                (cb, b_replicated, rehash_b, keys_b, keys_a),
            ] {
                if replicated || rehashed {
                    continue;
                }
                if let Partitioning::Hash(own) = &candidate.partitioning {
                    lists.extend(own.iter().cloned());
                    if own.contains(own_keys) {
                        lists.insert(other_keys.to_vec());
                    }
                }
            }
            let exchange = |rehashed| {
                if rehashed {
                    Exchange::Rehash
                } else {
                    Exchange::InPlace
                }
            };
            out.push(build(
                cost,
                Partitioning::Hash(lists),
                exchange(rehash_a),
                exchange(rehash_b),
            ));
        }

        // Variants 2 and 3: broadcast one partitioned input into the
        // other partitioned input, which keeps its partitioning.  The
        // stationary side must not be replicated (every node holds it in
        // full, so the output would be duplicated n times).
        if self.options.broadcast_joins && !a_replicated && !b_replicated {
            let remote = self.stats.nodes.saturating_sub(1) as f64;
            for (moving, moving_mask, moving_keys, stationary, stationary_keys, a_moves) in [
                (ca, a, keys_a, cb, keys_b, true),
                (cb, b, keys_b, ca, keys_a, false),
            ] {
                let mut cost = base_cost;
                cost.network_bytes += moving.rows * self.row_bytes(moving_mask) * remote;
                cost.cpu_rows += moving.rows;
                // The output lives where the stationary rows live: it
                // inherits that side's partitioning, and the join-key
                // equivalence when the stationary side was partitioned
                // on its keys.
                let mut lists: BTreeSet<Vec<ColRef>> = BTreeSet::new();
                if let Partitioning::Hash(own) = &stationary.partitioning {
                    lists.extend(own.iter().cloned());
                    if own.contains(stationary_keys) {
                        lists.insert(moving_keys.to_vec());
                    }
                }
                let (left_exchange, right_exchange) = if a_moves {
                    (Exchange::Broadcast, Exchange::InPlace)
                } else {
                    (Exchange::InPlace, Exchange::Broadcast)
                };
                out.push(build(
                    cost,
                    Partitioning::Hash(lists),
                    left_exchange,
                    right_exchange,
                ));
            }
        }
        out
    }

    /// Keep `candidate` for its subset if it is the best plan seen for
    /// its partitioning property (first-seen wins ties — deterministic).
    fn consider(bucket: &mut Vec<Candidate>, candidate: Candidate) {
        match bucket
            .iter_mut()
            .find(|c| c.partitioning == candidate.partitioning)
        {
            Some(existing) => {
                if candidate.cost.better_than(&existing.cost) {
                    *existing = candidate;
                }
            }
            None => bucket.push(candidate),
        }
    }

    /// Run the bottom-up enumeration, returning the candidate set of the
    /// full relation mask.
    fn enumerate(&self) -> Result<Vec<Candidate>> {
        let n = self.query.relations.len();
        let full = (1usize << n) - 1;
        let mut best: Vec<Vec<Candidate>> = vec![Vec::new(); full + 1];
        for rel in 0..n {
            best[1 << rel] = vec![self.leaf_candidate(rel)];
        }
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // Enumerate every split of `mask` into complementary subsets.
            let mut a = (mask - 1) & mask;
            while a > 0 {
                let b = mask ^ a;
                if !best[a].is_empty() && !best[b].is_empty() {
                    let (keys_a, keys_b) = self.crossing_keys(a, b);
                    if !keys_a.is_empty() {
                        let mut joined = Vec::new();
                        for ca in &best[a] {
                            for cb in &best[b] {
                                joined.extend(self.join_candidates(ca, a, cb, b, &keys_a, &keys_b));
                            }
                        }
                        for c in joined {
                            Self::consider(&mut best[mask], c);
                        }
                    }
                }
                a = (a - 1) & mask;
            }
        }
        let candidates = std::mem::take(&mut best[full]);
        if candidates.is_empty() {
            return Err(OrchestraError::Planning(
                "the join graph does not connect every relation (cross products are not \
                 supported)"
                    .into(),
            ));
        }
        Ok(candidates)
    }

    // ------------------------------------------------------------------
    // Finish: select-list lowering and aggregation placement
    // ------------------------------------------------------------------

    /// Estimated wire bytes of one select-list value.
    fn expr_bytes(&self, expr: &LogicalExpr) -> f64 {
        match expr {
            LogicalExpr::Column(c) => self.tables[c.relation].column_widths[c.column],
            LogicalExpr::Literal(v) => v.serialized_size() as f64,
            LogicalExpr::Add(..) | LogicalExpr::Sub(..) | LogicalExpr::Mul(..) => {
                NUMERIC_COLUMN_BYTES
            }
            LogicalExpr::Concat(parts) => parts.iter().map(|p| self.expr_bytes(p)).sum(),
        }
    }

    /// The network cost of finishing `candidate` (select, ship,
    /// aggregate), and the aggregation placement that achieves it.
    fn finish_cost(&self, candidate: &Candidate) -> (PlanCost, AggPlacement) {
        let frac = exchange_fraction(self.stats.nodes);
        let select_bytes = TUPLE_OVERHEAD_BYTES
            + self
                .query
                .select
                .iter()
                .map(|e| self.expr_bytes(e))
                .sum::<f64>();
        let ship_all = PlanCost {
            network_bytes: candidate.rows * select_bytes * frac,
            cpu_rows: candidate.rows,
        };
        let Some(agg) = &self.query.aggregation else {
            return (ship_all, AggPlacement::NoAggregate);
        };
        let grouped = !agg.group_by.is_empty();
        let groups = group_count(candidate.rows, grouped);
        let partial_rows = candidate.rows.min(groups * self.stats.nodes as f64);
        let partial_bytes = TUPLE_OVERHEAD_BYTES
            + agg
                .group_by
                .iter()
                .map(|i| self.expr_bytes(&self.query.select[*i]))
                .sum::<f64>()
            + partial_state_bytes(&agg.aggs);
        let two_phase = PlanCost {
            network_bytes: partial_rows * partial_bytes * frac,
            cpu_rows: candidate.rows + partial_rows,
        };
        if two_phase.better_than(&ship_all) {
            (two_phase, AggPlacement::TwoPhase)
        } else {
            (ship_all, AggPlacement::SingleAtInitiator)
        }
    }

    // ------------------------------------------------------------------
    // Physical-plan emission
    // ------------------------------------------------------------------

    fn tree_mask(tree: &JoinTree) -> usize {
        match tree {
            JoinTree::Leaf(rel) => 1 << rel,
            JoinTree::Join { left, right, .. } => Self::tree_mask(left) | Self::tree_mask(right),
        }
    }

    /// The pruned output layout of the subtree over `mask`, given the
    /// unpruned layout `raw`.  Falls back to the first raw column when
    /// nothing downstream needs any (so rows still flow).
    fn pruned_layout(&self, mask: usize, raw: Vec<ColRef>) -> Vec<ColRef> {
        let needed = self.needed_columns(mask);
        let kept: Vec<ColRef> = raw.iter().copied().filter(|c| needed.contains(c)).collect();
        if kept.is_empty() {
            vec![raw[0]]
        } else {
            kept
        }
    }

    /// Emit the subtree into `builder`, returning the root operator and
    /// its output layout (global column per output position).
    fn emit(&self, tree: &JoinTree, builder: &mut PlanBuilder) -> Result<(OpId, Vec<ColRef>)> {
        match tree {
            JoinTree::Leaf(rel) => {
                let leaf = &self.leaves[*rel];
                let name = self.query.relations[*rel].clone();
                let op = match leaf.kind {
                    ScanKind::Distributed => {
                        builder.scan(name, leaf.scan_arity, leaf.predicate.clone())
                    }
                    ScanKind::CoveringIndex => {
                        builder.covering_index_scan(name, leaf.scan_arity, leaf.predicate.clone())
                    }
                    ScanKind::Replicated => {
                        builder.replicated_scan(name, leaf.scan_arity, leaf.predicate.clone())
                    }
                };
                let raw: Vec<ColRef> = (0..leaf.scan_arity).map(|c| col(*rel, c)).collect();
                let layout = self.pruned_layout(1 << rel, raw.clone());
                if layout.len() < raw.len() {
                    let columns = layout.iter().map(|c| c.column).collect();
                    Ok((builder.project(op, columns), layout))
                } else {
                    Ok((op, layout))
                }
            }
            JoinTree::Join {
                left,
                right,
                left_keys,
                right_keys,
                left_exchange,
                right_exchange,
            } => {
                let (mut l_op, l_layout) = self.emit(left, builder)?;
                let (mut r_op, r_layout) = self.emit(right, builder)?;
                // Join keys survive pruning.
                let positions = |layout: &[ColRef], keys: &[ColRef]| {
                    let at = keys.iter().map(|key| layout.iter().position(|c| c == key));
                    at.collect::<Option<Vec<usize>>>().ok_or_else(|| {
                        OrchestraError::Planning(format!("a join key of {keys:?} was pruned"))
                    })
                };
                let l_keys = positions(&l_layout, left_keys)?;
                let r_keys = positions(&r_layout, right_keys)?;
                match left_exchange {
                    Exchange::Rehash => l_op = builder.rehash(l_op, l_keys.clone()),
                    Exchange::Broadcast => l_op = builder.broadcast(l_op),
                    Exchange::InPlace => {}
                }
                match right_exchange {
                    Exchange::Rehash => r_op = builder.rehash(r_op, r_keys.clone()),
                    Exchange::Broadcast => r_op = builder.broadcast(r_op),
                    Exchange::InPlace => {}
                }
                let join = builder.hash_join(l_op, r_op, l_keys, r_keys);
                let mut raw = l_layout;
                raw.extend(r_layout);
                let mask = Self::tree_mask(tree);
                let layout = self.pruned_layout(mask, raw.clone());
                if layout.len() < raw.len() {
                    // The kept columns are a subset of the raw ones.
                    let at = layout.iter().map(|c| raw.iter().position(|r| r == c));
                    let columns = at.collect::<Option<Vec<usize>>>().ok_or_else(|| {
                        OrchestraError::Planning(format!("{layout:?} is not within {raw:?}"))
                    })?;
                    Ok((builder.project(join, columns), layout))
                } else {
                    Ok((join, layout))
                }
            }
        }
    }

    /// Lower the select list above `(op, layout)`: nothing for an
    /// identity list, a `Project` when every expression is a bare column,
    /// a `ComputeFunction` otherwise.
    fn emit_select(&self, builder: &mut PlanBuilder, op: OpId, layout: &[ColRef]) -> Result<OpId> {
        let lowered: Vec<ScalarExpr> = self
            .query
            .select
            .iter()
            .map(|e| {
                e.lower(layout).ok_or_else(|| {
                    OrchestraError::Planning(
                        "the select list references a column the chosen layout lost".into(),
                    )
                })
            })
            .collect::<Result<_>>()?;
        let identity = lowered.len() == layout.len()
            && lowered
                .iter()
                .enumerate()
                .all(|(i, e)| *e == ScalarExpr::Column(i));
        if identity {
            return Ok(op);
        }
        let columns: Option<Vec<usize>> = lowered
            .iter()
            .map(|e| match e {
                ScalarExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        Ok(match columns {
            Some(columns) => builder.project(op, columns),
            None => builder.compute(op, lowered),
        })
    }

    fn plan(&self) -> Result<PhysicalPlan> {
        let candidates = self.enumerate()?;
        let mut chosen: Option<(PlanCost, &Candidate, AggPlacement)> = None;
        for candidate in &candidates {
            if candidate.partitioning == Partitioning::Replicated {
                // Every node would ship its full copy of the answer.
                continue;
            }
            let (finish, placement) = self.finish_cost(candidate);
            let mut total = candidate.cost;
            total.add(finish);
            let better = match &chosen {
                Some((best_total, _, _)) => total.better_than(best_total),
                None => true,
            };
            if better {
                chosen = Some((total, candidate, placement));
            }
        }
        let Some((_, candidate, placement)) = chosen else {
            return Err(OrchestraError::Planning(
                "queries reading only replicated relations are not supported (every \
                 participant would ship a full copy of the answer)"
                    .into(),
            ));
        };

        let mut builder = PlanBuilder::new();
        let (joined, layout) = self.emit(&candidate.tree, &mut builder)?;
        let selected = self.emit_select(&mut builder, joined, &layout)?;
        let root = match (placement, &self.query.aggregation) {
            (AggPlacement::NoAggregate, _) => builder.ship(selected),
            (AggPlacement::SingleAtInitiator, Some(agg)) => {
                let shipped = builder.ship(selected);
                builder.aggregate(
                    shipped,
                    agg.group_by.clone(),
                    agg.aggs.clone(),
                    AggMode::Single,
                )
            }
            (AggPlacement::TwoPhase, Some(agg)) => {
                builder.two_phase_aggregate(selected, agg.group_by.clone(), agg.aggs.clone())
            }
            (_, None) => {
                return Err(OrchestraError::Planning(
                    "an aggregation placement was chosen for a query without one".into(),
                ))
            }
        };
        Ok(builder.output(root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalExpr;
    use crate::stats::TableStats;
    use orchestra_common::{ColumnType, Relation, Schema};
    use orchestra_engine::{AggFunc, CmpOp, OperatorKind};

    fn table(name: &str, columns: Vec<(&str, ColumnType)>, cardinality: usize) -> TableStats {
        TableStats::from_relation(
            &Relation::partitioned(name, Schema::keyed_on_first(columns)),
            cardinality,
        )
    }

    fn replicated_table(
        name: &str,
        columns: Vec<(&str, ColumnType)>,
        cardinality: usize,
    ) -> TableStats {
        TableStats::from_relation(
            &Relation::replicated(name, Schema::keyed_on_first(columns)),
            cardinality,
        )
    }

    fn three_way_stats() -> Statistics {
        Statistics::from_tables(
            6,
            vec![
                table(
                    "customer",
                    vec![("c_custkey", ColumnType::Int), ("c_seg", ColumnType::Str)],
                    40,
                ),
                table(
                    "orders",
                    vec![
                        ("o_orderkey", ColumnType::Int),
                        ("o_custkey", ColumnType::Int),
                        ("o_date", ColumnType::Int),
                    ],
                    100,
                ),
                table(
                    "lineitem",
                    vec![
                        ("l_id", ColumnType::Int),
                        ("l_orderkey", ColumnType::Int),
                        ("l_price", ColumnType::Int),
                    ],
                    400,
                ),
            ],
        )
    }

    fn three_way_query() -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let c = q.relation("customer");
        let o = q.relation("orders");
        let l = q.relation("lineitem");
        q.filter(c, Predicate::cmp(1, CmpOp::Eq, "BUILDING"))
            .filter(o, Predicate::cmp(2, CmpOp::Lt, 1200i64))
            .join(col(c, 0), col(o, 1))
            .join(col(o, 0), col(l, 1))
            .select(vec![
                LogicalExpr::col(o, 0),
                LogicalExpr::col(o, 2),
                LogicalExpr::col(l, 2),
            ])
            .aggregate(vec![0, 1], vec![(AggFunc::Sum, 2)]);
        q
    }

    #[test]
    fn compilation_is_deterministic_across_repeated_runs() {
        // Same LogicalQuery + same stats => byte-identical rendering,
        // every time.
        let stats = three_way_stats();
        let reference = compile(&three_way_query(), &stats).unwrap().render();
        for _ in 0..5 {
            let again = compile(&three_way_query(), &stats).unwrap().render();
            assert_eq!(reference, again, "planner must be deterministic");
        }
    }

    #[test]
    fn predicates_are_pushed_into_the_leaf_scans() {
        let plan = compile(&three_way_query(), &three_way_stats()).unwrap();
        let scan_predicates: Vec<bool> = plan
            .operators()
            .iter()
            .filter_map(|o| match &o.kind {
                OperatorKind::DistributedScan {
                    relation,
                    predicate,
                } => (relation != "lineitem").then_some(predicate.is_some()),
                _ => None,
            })
            .collect();
        assert_eq!(scan_predicates.len(), 2, "customer and orders scans");
        assert!(
            scan_predicates.iter().all(|p| *p),
            "both filtered relations must scan with their predicate pushed down"
        );
        // No residual Select operators remain above the scans.
        assert!(!plan
            .operators()
            .iter()
            .any(|o| matches!(o.kind, OperatorKind::Select { .. })));
    }

    #[test]
    fn partitioning_aware_rehash_placement_saves_exchanges() {
        // customer and orders are partitioned on their keys; at least one
        // join side can consume an existing partitioning, so fewer than
        // 2-per-join rehashes are needed.
        let plan = compile(&three_way_query(), &three_way_stats()).unwrap();
        assert_eq!(plan.scans().len(), 3);
        assert!(
            plan.rehash_count() <= 3,
            "two joins must not need four rehashes:\n{}",
            plan.render()
        );
        // Unreferenced columns are pruned before the first exchange.
        assert!(plan
            .operators()
            .iter()
            .any(|o| matches!(o.kind, OperatorKind::Project { .. })));
    }

    #[test]
    fn covering_index_scan_is_elected_for_key_only_queries() {
        let stats = Statistics::from_tables(
            4,
            vec![table(
                "events",
                vec![("id", ColumnType::Int), ("payload", ColumnType::Str)],
                1000,
            )],
        );
        let mut q = LogicalQuery::new();
        let e = q.relation("events");
        q.filter(e, Predicate::cmp(0, CmpOp::Lt, 500i64))
            .select(vec![LogicalExpr::col(e, 0)]);
        let plan = compile(&q, &stats).unwrap();
        assert!(
            plan.render().contains("CoveringIndexScan"),
            "key-only query must bypass the data storage nodes:\n{}",
            plan.render()
        );
        // Referencing a non-key column falls back to a distributed scan.
        let mut q2 = LogicalQuery::new();
        let e2 = q2.relation("events");
        q2.select(vec![LogicalExpr::col(e2, 0), LogicalExpr::col(e2, 1)]);
        let plan2 = compile(&q2, &stats).unwrap();
        assert!(plan2.render().contains("DistributedScan"));
        assert!(!plan2.render().contains("CoveringIndexScan"));
    }

    #[test]
    fn replicated_scan_is_elected_and_never_rehashes() {
        let stats = Statistics::from_tables(
            5,
            vec![
                table(
                    "orders",
                    vec![
                        ("o_orderkey", ColumnType::Int),
                        ("o_nation", ColumnType::Int),
                    ],
                    500,
                ),
                replicated_table(
                    "nation",
                    vec![("n_key", ColumnType::Int), ("n_name", ColumnType::Str)],
                    25,
                ),
            ],
        );
        let mut q = LogicalQuery::new();
        let o = q.relation("orders");
        let n = q.relation("nation");
        q.join(col(o, 1), col(n, 0))
            .select(vec![LogicalExpr::col(o, 0), LogicalExpr::col(n, 1)]);
        let plan = compile(&q, &stats).unwrap();
        assert!(plan.render().contains("ReplicatedScan"));
        assert_eq!(
            plan.rehash_count(),
            0,
            "a replicated build side joins in place:\n{}",
            plan.render()
        );
    }

    #[test]
    fn ungrouped_aggregation_prefers_two_phase_partials() {
        let stats = Statistics::from_tables(
            6,
            vec![table(
                "lineitem",
                vec![("l_id", ColumnType::Int), ("l_price", ColumnType::Int)],
                1000,
            )],
        );
        let mut q = LogicalQuery::new();
        let l = q.relation("lineitem");
        q.select(vec![LogicalExpr::col(l, 1)])
            .aggregate(vec![], vec![(AggFunc::Sum, 0)]);
        let plan = compile(&q, &stats).unwrap();
        let modes: Vec<AggMode> = plan
            .operators()
            .iter()
            .filter_map(|o| match &o.kind {
                OperatorKind::Aggregate { mode, .. } => Some(*mode),
                _ => None,
            })
            .collect();
        assert_eq!(
            modes,
            vec![AggMode::Partial, AggMode::Final],
            "shipping one partial row per node beats shipping every row"
        );
    }

    #[test]
    fn compiled_covering_and_replicated_plans_execute_correctly() {
        use orchestra_common::{NodeId, Tuple, Value};
        use orchestra_engine::{EngineConfig, QueryExecutor};
        use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
        use orchestra_substrate::{AllocationScheme, RoutingTable};

        // A real deployed cluster: a partitioned fact relation and a
        // replicated dimension.
        let routing = RoutingTable::build(
            &(0..4).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut storage = DistributedStorage::new(routing, StorageConfig::default());
        storage.register_relation(Relation::partitioned(
            "events",
            Schema::keyed_on_first(vec![
                ("id", ColumnType::Int),
                ("nation", ColumnType::Int),
                ("payload", ColumnType::Str),
            ]),
        ));
        storage.register_relation(Relation::replicated(
            "nation",
            Schema::keyed_on_first(vec![
                ("n_key", ColumnType::Int),
                ("n_name", ColumnType::Str),
            ]),
        ));
        let mut batch = UpdateBatch::new();
        for i in 0..40i64 {
            batch.insert(
                "events",
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 3),
                    Value::str(format!("p{i}")),
                ]),
            );
        }
        for n in 0..3i64 {
            batch.insert(
                "nation",
                Tuple::new(vec![Value::Int(n), Value::str(format!("nation{n}"))]),
            );
        }
        let epoch = storage.publish(&batch).unwrap();
        let stats = Statistics::collect(&storage, epoch);

        // Key-only query: compiles to a covering index scan and returns
        // exactly the matching keys.
        let mut keys = LogicalQuery::new();
        let e = keys.relation("events");
        keys.filter(e, Predicate::cmp(0, CmpOp::Lt, 7i64))
            .select(vec![LogicalExpr::col(e, 0)]);
        let plan = compile(&keys, &stats).unwrap();
        assert!(plan.render().contains("CoveringIndexScan"));
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap();
        let expected: Vec<Tuple> = (0..7).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        assert_eq!(report.rows, expected);

        // The elected covering plan also survives a mid-query failure
        // under both recovery strategies.
        assert_recovers_exactly(&storage, &plan, epoch, &expected);

        // Partitioned ⋈ replicated: joins in place, no rehash, exact
        // answer.
        let mut q = LogicalQuery::new();
        let e = q.relation("events");
        let n = q.relation("nation");
        q.filter(e, Predicate::cmp(0, CmpOp::Lt, 5i64))
            .join(col(e, 1), col(n, 0))
            .select(vec![LogicalExpr::col(e, 0), LogicalExpr::col(n, 1)]);
        let plan = compile(&q, &stats).unwrap();
        assert_eq!(plan.rehash_count(), 0);
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap();
        let expected: Vec<Tuple> = (0..5)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::str(format!("nation{}", i % 3))]))
            .collect();
        assert_eq!(report.rows, expected);
        assert_recovers_exactly(&storage, &plan, epoch, &expected);
    }

    /// Kill a non-initiator node halfway through the plan's failure-free
    /// run and assert both Section V-D strategies reproduce `expected`.
    fn assert_recovers_exactly(
        storage: &orchestra_storage::DistributedStorage,
        plan: &PhysicalPlan,
        epoch: orchestra_common::Epoch,
        expected: &[orchestra_common::Tuple],
    ) {
        use orchestra_common::NodeId;
        use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, RecoveryStrategy};

        let baseline = QueryExecutor::new(storage, EngineConfig::default())
            .execute(plan, epoch, NodeId(0))
            .unwrap();
        let halfway = orchestra_simnet::SimTime::from_micros(baseline.running_time.as_micros() / 2);
        let failure = FailureSpec::at_time(NodeId(2), halfway);
        for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
            let config = EngineConfig {
                strategy,
                ..EngineConfig::default()
            };
            let report = QueryExecutor::new(storage, config)
                .execute_with_failure(plan, epoch, NodeId(0), failure)
                .unwrap();
            assert_eq!(
                report.rows,
                expected,
                "{strategy:?} must reproduce the answer for:\n{}",
                plan.render()
            );
        }
    }

    #[test]
    fn replicated_only_queries_are_diagnosed_precisely() {
        // Even with a valid connecting join edge, a query over nothing
        // but replicated relations must fail with the replicated-only
        // diagnosis, not a misleading connectivity error.
        let stats = Statistics::from_tables(
            4,
            vec![
                replicated_table("nation", vec![("n_key", ColumnType::Int)], 25),
                replicated_table(
                    "region",
                    vec![("r_key", ColumnType::Int), ("r_nation", ColumnType::Int)],
                    5,
                ),
            ],
        );
        let mut q = LogicalQuery::new();
        let n = q.relation("nation");
        let r = q.relation("region");
        q.join(col(n, 0), col(r, 1))
            .select(vec![LogicalExpr::col(n, 0), LogicalExpr::col(r, 0)]);
        let err = compile(&q, &stats).unwrap_err();
        assert!(err.message().contains("only replicated relations"), "{err}");
    }

    #[test]
    fn disconnected_join_graphs_are_rejected() {
        let stats = Statistics::from_tables(
            4,
            vec![
                table("a", vec![("k", ColumnType::Int)], 10),
                table("b", vec![("k", ColumnType::Int)], 10),
            ],
        );
        let mut q = LogicalQuery::new();
        let a = q.relation("a");
        let b = q.relation("b");
        q.select(vec![LogicalExpr::col(a, 0), LogicalExpr::col(b, 0)]);
        let err = compile(&q, &stats).unwrap_err();
        assert!(err.message().contains("cross products"), "{err}");
    }

    #[test]
    fn invalid_references_are_rejected_with_planning_errors() {
        let stats = Statistics::from_tables(4, vec![table("a", vec![("k", ColumnType::Int)], 10)]);
        // Unknown relation.
        let mut q = LogicalQuery::new();
        q.relation("mystery");
        q.select(vec![LogicalExpr::col(0, 0)]);
        assert!(compile(&q, &stats).is_err());
        // Out-of-range select column.
        let mut q = LogicalQuery::new();
        let a = q.relation("a");
        q.select(vec![LogicalExpr::col(a, 7)]);
        assert!(compile(&q, &stats).is_err());
        // Empty select list.
        let mut q = LogicalQuery::new();
        q.relation("a");
        assert!(compile(&q, &stats).is_err());
        // Aggregation over a missing select position.
        let mut q = LogicalQuery::new();
        let a = q.relation("a");
        q.select(vec![LogicalExpr::col(a, 0)])
            .aggregate(vec![0], vec![(AggFunc::Sum, 9)]);
        assert!(compile(&q, &stats).is_err());
    }
}
