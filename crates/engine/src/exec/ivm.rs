//! Incremental view maintenance over the publication pipeline.
//!
//! A CDSS participant publishes a batch of updates, a new epoch appears,
//! and every *materialized workload answer* computed at the previous
//! epoch is stale.  This module maintains those answers across epochs by
//! pushing **signed delta tuples** through the ordinary push pipeline:
//!
//! 1. The storage layer derives the epoch interval's delta from the
//!    versioned index pages
//!    ([`orchestra_storage::StorageView::delta_partition_ref`]) —
//!    `+1` rows for versions the interval added, `-1` rows for versions
//!    it removed.
//! 2. [`MaintenancePlan::derive`] turns the view's compiled plan into a
//!    *maintenance plan*: the initiator-side aggregate is stripped (its
//!    finalized values — an `AVG` collapsed to a double — cannot absorb
//!    deltas), a hidden `COUNT` is appended to any distributed partial
//!    aggregate so every group's *support* travels with its state, and
//!    everything else (scans, selects, computes, rehashes, joins, the
//!    partial aggregate, ship) is kept verbatim.  Query answers are
//!    multilinear in their base relations, so the epoch-to-epoch change
//!    telescopes into one *leg* per leaf relation: in leg *i*, relations
//!    before *i* read the new epoch, relation *i* reads the signed
//!    delta, relations after *i* read the old epoch.  On each leg's
//!    pivot path the delta stream crosses a [`OperatorKind::Broadcast`]
//!    into its joins while the stationary side is joined in place, so a
//!    small delta ships `O(|Δ| × n)` bytes instead of re-shipping full
//!    relations.  Callers can go further and install legs whose *join
//!    order* was chosen by the optimizer for a delta-sized pivot
//!    ([`MaterializedView::install_leg_plans`]).
//! 3. [`refresh_view`] runs the legs as ordinary sessions under the
//!    [`SessionScheduler`] — they multiplex one simulated network, carry
//!    provenance tags, and survive a mid-maintenance node failure
//!    through the existing Restart/Incremental recovery (a delta scan,
//!    like a full scan, is deterministically re-runnable over inherited
//!    ranges).  The signed rows each leg ships to the initiator are
//!    folded into the [`MaterializedView`]'s per-group accumulator state
//!    (or counted multiset, for aggregate-free views).
//!
//! Full recomputation rides the same machinery: one session over the
//! maintenance plan with every scan at the target epoch and the view
//! state rebuilt from scratch.  Whether a published batch is cheaper to
//! absorb incrementally or to recompute is the optimizer's call
//! (`orchestra_optimizer`'s maintenance cost model); this module
//! executes either decision.  Maintenance dataflows are *installed* at
//! the participants by the first refresh; later refreshes ship only the
//! epoch parameters and the routing snapshot.
//!
//! `COUNT`/`SUM`/`AVG` are subtractable and maintainable.  An
//! initiator-side (`Single`) `MIN`/`MAX` is maintained through a
//! bounded per-group [`ExtremumSketch`]: retractions fold exactly from
//! the tracked runners-up, and only when deletions exhaust a group's
//! tracked set does [`refresh_view`] fall back to one recompute (which
//! rebuilds every sketch).  A *distributed partial* `MIN`/`MAX`
//! collapses runner-up multiplicity before shipping, so it — like views
//! over replicated/covering scans (no delta path) or over a self-join —
//! reports itself recompute-only.

use super::scheduler::{
    AdmissionPolicy, QuerySession, SchedulerConfig, SessionReport, SessionScheduler, Submission,
    WorkloadReport,
};
use super::{EngineConfig, FailureSpec};
use crate::expr::AggFunc;
use crate::ops::{Accumulator, ExtremumKind, ExtremumSketch, EXTREMUM_SKETCH_K};
use crate::plan::{AggMode, OpId, OperatorKind, PhysicalPlan, PlanBuilder};
use orchestra_common::{Epoch, NodeId, OrchestraError, Result, Tuple, Value};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use std::collections::{BTreeMap, HashMap};

/// Per-scan read instructions for one session: pin a leaf scan to an
/// epoch other than the session's, or turn it into a *signed delta scan*
/// over an epoch interval.  An empty override set (the default) is an
/// ordinary query.
#[derive(Clone, Debug, Default)]
pub struct ScanOverrides {
    epochs: HashMap<OpId, Epoch>,
    deltas: HashMap<OpId, (Epoch, Epoch)>,
}

impl ScanOverrides {
    /// No overrides: every scan reads the session's epoch.
    pub fn new() -> ScanOverrides {
        ScanOverrides::default()
    }

    /// Pin scan `op` to read the snapshot at `epoch`.
    pub fn read_at(&mut self, op: OpId, epoch: Epoch) -> &mut Self {
        self.deltas.remove(&op);
        self.epochs.insert(op, epoch);
        self
    }

    /// Turn scan `op` into a signed delta scan over `from..to`.
    pub fn read_delta(&mut self, op: OpId, from: Epoch, to: Epoch) -> &mut Self {
        self.epochs.remove(&op);
        self.deltas.insert(op, (from, to));
        self
    }

    /// Is this the ordinary-query (no overrides) configuration?
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty() && self.deltas.is_empty()
    }

    pub(super) fn epoch_of(&self, op: OpId) -> Option<Epoch> {
        self.epochs.get(&op).copied()
    }

    pub(super) fn delta_of(&self, op: OpId) -> Option<(Epoch, Epoch)> {
        self.deltas.get(&op).copied()
    }
}

/// How the signed rows a maintenance session ships to the initiator fold
/// into the view state — determined by what the stripped aggregate was.
/// Different sessions of one view may fold differently (an
/// optimizer-compiled leg may place aggregation differently than the
/// base plan); `Raw` and `Partial` folds accumulate into the same
/// per-group accumulator state.
#[derive(Clone, Debug, PartialEq)]
pub enum FoldMode {
    /// No aggregation: the view is a counted multiset of answer rows.
    Multiset,
    /// A `Single` aggregate was stripped: rows are its raw input layout.
    Raw {
        /// Grouping columns of the raw layout.
        group_by: Vec<usize>,
        /// Aggregate functions and their raw input columns.
        aggs: Vec<(AggFunc, usize)>,
    },
    /// A `Final` aggregate was stripped: rows are the distributed
    /// partial-aggregate layout plus the hidden support count.
    Partial {
        /// Grouping columns of the partial layout.
        group_by: Vec<usize>,
        /// Aggregate functions and the columns their partial states
        /// start at.
        aggs: Vec<(AggFunc, usize)>,
        /// Column of the hidden support `COUNT` appended by the
        /// maintenance rewrite.
        count_col: usize,
    },
}

impl FoldMode {
    /// `(groups, aggregates)` of an aggregate fold, `None` for multiset.
    fn shape(&self) -> Option<(usize, usize)> {
        match self {
            FoldMode::Multiset => None,
            FoldMode::Raw { group_by, aggs } | FoldMode::Partial { group_by, aggs, .. } => {
                Some((group_by.len(), aggs.len()))
            }
        }
    }
}

/// One delta leg of a maintenance plan: the rewritten physical plan that
/// pushes relation `relation`'s signed delta through the view, plus how
/// that plan's shipped rows fold into the view state.
#[derive(Clone, Debug)]
pub struct MaintenanceLeg {
    /// The pivot relation whose delta this leg absorbs.
    pub relation: String,
    /// The leg's physical plan (pivot path broadcast, stationary sides
    /// joined in place).
    pub plan: PhysicalPlan,
    /// How this leg's shipped rows fold into the view.
    pub fold: FoldMode,
}

/// A view's compiled plan rewritten for maintenance: initiator-side
/// aggregates stripped, hidden support count appended to partial
/// aggregates, plus the fold recipe, the leaf-scan table, and one
/// [`MaintenanceLeg`] per leaf relation.
///
/// Leg order is the *telescoping order*: leg *i* reads relations before
/// *i* at the new epoch and relations after *i* at the old epoch.  Any
/// fixed order is correct as long as every leg of one refresh uses the
/// same one.
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    plan: PhysicalPlan,
    fold: FoldMode,
    scans: Vec<(OpId, String)>,
    legs: Vec<MaintenanceLeg>,
    recompute_only: Option<String>,
}

/// The `(group_by, aggs, mode)` of a stripped initiator-side aggregate.
type StrippedAgg = (Vec<usize>, Vec<(AggFunc, usize)>, AggMode);

/// The initiator-side aggregates stripped from a plan (at most one) and
/// the subtree root the maintenance body is rebuilt from.
struct StrippedShape {
    body: OpId,
    stripped: Option<StrippedAgg>,
}

/// Walk down from `Output` through the initiator-side aggregates to be
/// stripped.
fn strip_shape(original: &PhysicalPlan) -> Result<StrippedShape> {
    let mut cursor = original.op(original.root()).children[0];
    let mut stripped = None;
    while let OperatorKind::Aggregate {
        group_by,
        aggs,
        mode: mode @ (AggMode::Single | AggMode::Final),
    } = &original.op(cursor).kind
    {
        if stripped.is_some() {
            return Err(OrchestraError::Execution(
                "maintenance cannot express stacked initiator-side aggregates".into(),
            ));
        }
        stripped = Some((group_by.clone(), aggs.clone(), *mode));
        cursor = original.op(cursor).children[0];
    }
    Ok(StrippedShape {
        body: cursor,
        stripped,
    })
}

/// The fold mode of a rebuilt maintenance body, given what was stripped.
fn fold_of(stripped: &Option<StrippedAgg>, rebuilt: &PhysicalPlan) -> FoldMode {
    match stripped {
        None => FoldMode::Multiset,
        Some((group_by, aggs, AggMode::Final)) => {
            // The hidden support count is the last column of the
            // (augmented) partial layout the ship operator forwards.
            let count_col = rebuilt.op(rebuilt.root()).arity - 1;
            FoldMode::Partial {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                count_col,
            }
        }
        Some((group_by, aggs, mode)) => {
            debug_assert_eq!(*mode, AggMode::Single, "only Single/Final are stripped");
            FoldMode::Raw {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
    }
}

impl MaintenancePlan {
    /// Rewrite `original` (a plan as compiled by the optimizer or built
    /// by hand) into its maintenance form.  Fails on shapes maintenance
    /// cannot express: an aggregate that is not directly below `Output`,
    /// or stacked initiator-side aggregates.
    pub fn derive(original: &PhysicalPlan) -> Result<MaintenancePlan> {
        let shape = strip_shape(original)?;
        let strip_final = matches!(shape.stripped, Some((_, _, AggMode::Final)));
        let mut builder = PlanBuilder::new();
        let body = rebuild(original, shape.body, None, &mut builder, strip_final)?;
        let plan = builder.output(body);

        let scans: Vec<(OpId, String)> = plan
            .scans()
            .into_iter()
            .zip(plan.relations())
            .map(|(id, relation)| (id, relation.to_string()))
            .collect();
        let fold = fold_of(&shape.stripped, &plan);

        let mut recompute_only = None;
        // Raw (initiator-side) MIN/MAX folds through a bounded
        // `ExtremumSketch` and stays incremental; a distributed partial
        // MIN/MAX collapses runner-up multiplicity before shipping, so
        // its retractions genuinely cannot be folded.
        if let FoldMode::Partial { aggs, .. } = &fold {
            if let Some((f, _)) = aggs
                .iter()
                .find(|(f, _)| !Accumulator::new(*f).is_subtractable())
            {
                recompute_only = Some(format!(
                    "distributed partial {f:?} collapses runners-up; retractions cannot be folded"
                ));
            }
        }
        if let Some((_, relation)) = scans
            .iter()
            .find(|(id, _)| !matches!(plan.op(*id).kind, OperatorKind::DistributedScan { .. }))
        {
            recompute_only = Some(format!(
                "scan of {relation} is not a distributed scan and has no delta path"
            ));
        }
        let mut seen: Vec<&str> = Vec::new();
        for (_, relation) in &scans {
            if seen.contains(&relation.as_str()) {
                recompute_only = Some(format!(
                    "{relation} is scanned twice (self-join); telescoped deltas need \
                     distinct pivot relations"
                ));
            }
            seen.push(relation);
        }

        let mut maintenance = MaintenancePlan {
            plan,
            fold,
            scans,
            legs: Vec::new(),
            recompute_only,
        };
        if maintenance.recompute_only.is_none() {
            // Default legs: the base plan's own join order, pivot path
            // broadcast.  Callers can replace them with optimizer-chosen
            // join orders via `MaterializedView::install_leg_plans`.
            maintenance.legs = maintenance
                .scans
                .iter()
                .map(|(_, relation)| derive_leg(original, relation))
                .collect::<Result<Vec<MaintenanceLeg>>>()?;
        }
        Ok(maintenance)
    }

    /// The rewritten physical plan maintenance sessions execute.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// How the base plan's shipped rows fold into view state.
    pub fn fold(&self) -> &FoldMode {
        &self.fold
    }

    /// The leaf scans (operator id, relation) of the base plan, in
    /// operator order.
    pub fn scans(&self) -> &[(OpId, String)] {
        &self.scans
    }

    /// The delta legs in telescoping order (empty for recompute-only
    /// views).
    pub fn legs(&self) -> &[MaintenanceLeg] {
        &self.legs
    }

    /// Why incremental maintenance is unavailable, if it is.
    pub fn recompute_only(&self) -> Option<&str> {
        self.recompute_only.as_deref()
    }
}

/// Rewrite one plan (base plan or optimizer-compiled leg input) into the
/// delta leg pivoting on `relation`: strip the initiator-side aggregate,
/// broadcast the pivot path into its joins, splice the stationary sides'
/// alignment rehashes.
fn derive_leg(original: &PhysicalPlan, relation: &str) -> Result<MaintenanceLeg> {
    let shape = strip_shape(original)?;
    let strip_final = matches!(shape.stripped, Some((_, _, AggMode::Final)));
    let pivot = dfs_scans(original, shape.body)
        .into_iter()
        .find(|op| original.op(*op).kind.scanned_relation() == Some(relation))
        .ok_or_else(|| {
            OrchestraError::Execution(format!("leg plan for {relation} scans no such relation"))
        })?;
    let mut builder = PlanBuilder::new();
    let body = rebuild(original, shape.body, Some(pivot), &mut builder, strip_final)?;
    let plan = builder.output(body);
    let fold = fold_of(&shape.stripped, &plan);
    Ok(MaintenanceLeg {
        relation: relation.to_string(),
        plan,
        fold,
    })
}

/// Clone the subtree rooted at `op` into `builder`, appending a hidden
/// support `COUNT` to distributed partial aggregates when the final
/// aggregate above them was stripped.
///
/// With a `pivot` leaf scan the clone is that scan's *delta leg*: at
/// every join with a pivot-side input, the pivot side crosses a
/// `Broadcast` (a directly-below alignment `Rehash` is replaced by it)
/// and a directly-below `Rehash` on the stationary side is spliced out —
/// the stationary rows are joined in place, which is correct under any
/// disjoint partitioning because each stationary row exists at exactly
/// one node.  Everything off the pivot path is cloned verbatim, as is
/// everything when there is no pivot.
fn rebuild(
    original: &PhysicalPlan,
    op: OpId,
    pivot: Option<OpId>,
    builder: &mut PlanBuilder,
    strip_final: bool,
) -> Result<OpId> {
    let operator = original.op(op);
    let input = |i: usize, builder: &mut PlanBuilder| {
        rebuild(original, operator.children[i], pivot, builder, strip_final)
    };
    Ok(match &operator.kind {
        OperatorKind::DistributedScan {
            relation,
            predicate,
        } => builder.scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::CoveringIndexScan {
            relation,
            predicate,
        } => builder.covering_index_scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::ReplicatedScan {
            relation,
            predicate,
        } => builder.replicated_scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::Select { predicate } => {
            let child = input(0, builder)?;
            builder.select(child, predicate.clone())
        }
        OperatorKind::Project { columns } => {
            let child = input(0, builder)?;
            builder.project(child, columns.clone())
        }
        OperatorKind::ComputeFunction { exprs } => {
            let child = input(0, builder)?;
            builder.compute(child, exprs.clone())
        }
        OperatorKind::HashJoin {
            left_keys,
            right_keys,
        } => {
            let sides = [operator.children[0], operator.children[1]];
            let on_pivot_path =
                sides.map(|c| pivot.is_some_and(|p| subtree_contains(original, c, p)));
            // A join entirely off the pivot path keeps its alignment.  So
            // does one that already carries a Broadcast (a leg compiled
            // by the broadcast-aware planner): it is exchange-correct for
            // any pivot size, and its sides are walked only to reach
            // deeper joins.
            let keep = !on_pivot_path.contains(&true)
                || sides
                    .iter()
                    .any(|c| matches!(original.op(*c).kind, OperatorKind::Broadcast));
            let mut side = |i: usize| -> Result<OpId> {
                let child = sides[i];
                if keep {
                    return rebuild(original, child, pivot, builder, strip_final);
                }
                // Rebuild the pivot input as the broadcast delta stream
                // (replacing its alignment rehash, if any) and splice
                // the stationary side's alignment rehash out.
                let spliced = match &original.op(child).kind {
                    OperatorKind::Rehash { .. } => original.op(child).children[0],
                    _ => child,
                };
                let inner = rebuild(original, spliced, pivot, builder, strip_final)?;
                Ok(if on_pivot_path[i] {
                    builder.broadcast(inner)
                } else {
                    inner
                })
            };
            let (l, r) = (side(0)?, side(1)?);
            builder.hash_join(l, r, left_keys.clone(), right_keys.clone())
        }
        OperatorKind::Aggregate {
            group_by,
            aggs,
            mode: AggMode::Partial,
        } => {
            let child = input(0, builder)?;
            let mut aggs = aggs.clone();
            if strip_final {
                // The hidden support count: how many signed raw rows the
                // group currently rests on, so the view can drop groups
                // whose support reaches zero.
                aggs.push((AggFunc::Count, 0));
            }
            builder.aggregate(child, group_by.clone(), aggs, AggMode::Partial)
        }
        OperatorKind::Aggregate { .. } => {
            return Err(OrchestraError::Execution(
                "maintenance requires initiator-side aggregates directly below Output".into(),
            ))
        }
        OperatorKind::Rehash { columns } => {
            let child = input(0, builder)?;
            builder.rehash(child, columns.clone())
        }
        OperatorKind::Broadcast => {
            let child = input(0, builder)?;
            builder.broadcast(child)
        }
        OperatorKind::Ship => {
            let child = input(0, builder)?;
            builder.ship(child)
        }
        OperatorKind::Output => {
            return Err(OrchestraError::Execution(
                "Output cannot appear below the maintenance root".into(),
            ))
        }
    })
}

/// The leaf scans under `op` in depth-first, left-to-right order — the
/// order in which [`rebuild`] pushes them, and therefore
/// the order of the rewritten plans' [`PhysicalPlan::scans`].
fn dfs_scans(plan: &PhysicalPlan, op: OpId) -> Vec<OpId> {
    let operator = plan.op(op);
    if operator.kind.is_scan() {
        return vec![op];
    }
    operator
        .children
        .iter()
        .flat_map(|c| dfs_scans(plan, *c))
        .collect()
}

/// Does the subtree rooted at `op` contain the leaf scan `pivot`?
fn subtree_contains(plan: &PhysicalPlan, op: OpId, pivot: OpId) -> bool {
    op == pivot
        || plan
            .op(op)
            .children
            .iter()
            .any(|c| subtree_contains(plan, *c, pivot))
}

/// Mergeable state of one view group: the accumulators plus the hidden
/// support count that decides when the group disappears.  A raw-fold
/// MIN/MAX position carries an [`ExtremumSketch`] instead of using its
/// (placeholder) accumulator, making retractions foldable up to sketch
/// exhaustion.
#[derive(Clone, Debug)]
struct GroupState {
    support: i64,
    accs: Vec<Accumulator>,
    sketches: Vec<Option<ExtremumSketch>>,
}

/// A materialized workload answer maintained across epochs.
///
/// The view keeps its state in *mergeable* form — per-group accumulators
/// (so an `AVG` is still a subtractable `(sum, count)` pair, not a
/// collapsed double) or a counted multiset — and finalizes on demand:
/// [`MaterializedView::answer`] is tuple-for-tuple equal to a fresh full
/// run of the view's original plan at [`MaterializedView::epoch`].
#[derive(Clone, Debug)]
pub struct MaterializedView {
    name: String,
    maintenance: MaintenancePlan,
    epoch: Option<Epoch>,
    /// Which maintenance dataflows the participants already hold.  A
    /// flow's first *successful* run disseminates (installs) it — full
    /// plan bytes; later runs of the same flow ship parameters only.
    /// The base (recompute) plan and each delta leg install separately,
    /// and [`MaterializedView::install_leg_plans`] resets the legs.
    installed_base: bool,
    installed_legs: std::collections::BTreeSet<String>,
    groups: BTreeMap<Vec<Value>, GroupState>,
    multiset: BTreeMap<Tuple, i64>,
}

impl MaterializedView {
    /// Define a view over a compiled plan.  The state is empty until the
    /// first [`refresh_view`] (which must be a
    /// [`MaintenanceMode::Recompute`]).
    pub fn new(name: impl Into<String>, plan: &PhysicalPlan) -> Result<MaterializedView> {
        Ok(MaterializedView {
            name: name.into(),
            maintenance: MaintenancePlan::derive(plan)?,
            epoch: None,
            installed_base: false,
            installed_legs: std::collections::BTreeSet::new(),
            groups: BTreeMap::new(),
            multiset: BTreeMap::new(),
        })
    }

    /// The view's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The epoch the state currently reflects (`None` before the first
    /// recompute).
    pub fn epoch(&self) -> Option<Epoch> {
        self.epoch
    }

    /// The maintenance plan the view runs.
    pub fn maintenance(&self) -> &MaintenancePlan {
        &self.maintenance
    }

    /// Can this view absorb deltas, or must every refresh recompute?
    pub fn supports_incremental(&self) -> bool {
        self.maintenance.recompute_only.is_none()
    }

    /// Replace the default delta legs with caller-supplied leg *inputs*
    /// — typically plans the optimizer compiled per pivot with the pivot
    /// relation's cardinality set to a delta-sized value, so each leg's
    /// join order starts from the delta.  Each input is rewritten here
    /// (aggregate stripped, pivot path broadcast, stationary rehashes
    /// spliced).  `legs` must name each scanned relation exactly once;
    /// its order becomes the telescoping order.  Each leg plan must scan
    /// exactly the view's relations — a scan of any other has no
    /// telescoping position, and a leg without one of them folds a delta
    /// that skipped a join — and fold compatibly with the base plan (same
    /// group/aggregate counts).
    pub fn install_leg_plans(&mut self, legs: &[(String, PhysicalPlan)]) -> Result<()> {
        if let Some(reason) = self.maintenance.recompute_only() {
            return Err(OrchestraError::Execution(format!(
                "view {} is recompute-only: {reason}",
                self.name
            )));
        }
        let mut expected: Vec<&str> = self
            .maintenance
            .scans
            .iter()
            .map(|(_, r)| r.as_str())
            .collect();
        expected.sort_unstable();
        let mut given: Vec<&str> = legs.iter().map(|(r, _)| r.as_str()).collect();
        given.sort_unstable();
        if expected != given {
            return Err(OrchestraError::Execution(format!(
                "leg plans must cover each scanned relation exactly once \
                 (expected {expected:?}, got {given:?})"
            )));
        }
        let mut rewritten = Vec::with_capacity(legs.len());
        for (relation, plan) in legs {
            let leg = derive_leg(plan, relation)?;
            let scanned = leg.plan.relations();
            for r in expected.iter().chain(&scanned) {
                let times = scanned.iter().filter(|s| *s == r).count();
                if times != 1 || !expected.contains(r) {
                    return Err(OrchestraError::Execution(format!(
                        "leg plan for {relation} scans {r} {times} time(s); each leg of view {} \
                         must scan exactly {expected:?}, once each",
                        self.name
                    )));
                }
            }
            if leg.fold.shape() != self.maintenance.fold.shape() {
                return Err(OrchestraError::Execution(format!(
                    "leg plan for {relation} folds {:?}, incompatible with the view's {:?}",
                    leg.fold, self.maintenance.fold
                )));
            }
            rewritten.push(leg);
        }
        self.maintenance.legs = rewritten;
        // The replaced dataflows are new to the participants: their next
        // run pays full dissemination again.
        self.installed_legs.clear();
        Ok(())
    }

    /// The maintained answer, finalized and sorted exactly like
    /// [`super::QueryReport::rows`].
    pub fn answer(&self) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = match self.maintenance.fold {
            FoldMode::Multiset => self
                .multiset
                .iter()
                .flat_map(|(t, n)| {
                    debug_assert!(*n >= 0, "negative multiplicity for {t:?}");
                    std::iter::repeat_n(t.clone(), (*n).max(0) as usize)
                })
                .collect(),
            FoldMode::Raw { .. } | FoldMode::Partial { .. } => self
                .groups
                .iter()
                .map(|(key, state)| {
                    let mut values = key.clone();
                    values.extend(state.accs.iter().zip(&state.sketches).map(|(acc, sketch)| {
                        match sketch {
                            Some(s) => {
                                debug_assert!(
                                    !s.is_exhausted(),
                                    "an exhausted sketch must have triggered a recompute"
                                );
                                s.best().cloned().unwrap_or(Value::Null)
                            }
                            None => acc.final_value(),
                        }
                    }));
                    Tuple::new(values)
                })
                .collect(),
        };
        rows.sort();
        rows
    }

    /// Throw the state away (the recompute path's clean slate).
    fn reset(&mut self) {
        self.groups.clear();
        self.multiset.clear();
    }

    /// Advance the epoch the state reflects (the caller has folded every
    /// session of the refresh, or nothing changed).
    pub(super) fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = Some(epoch);
    }

    /// Fold one session's signed answer rows into the state, under the
    /// fold mode of the plan that session ran.
    fn fold(&mut self, fold: &FoldMode, rows: &[(Tuple, i8)]) {
        match fold.clone() {
            FoldMode::Multiset => {
                for (tuple, sign) in rows {
                    let entry = self.multiset.entry(tuple.clone()).or_insert(0);
                    *entry += *sign as i64;
                    if *entry == 0 {
                        self.multiset.remove(tuple);
                    }
                }
            }
            FoldMode::Raw { group_by, aggs } => {
                for (tuple, sign) in rows {
                    let state = self.group_entry(&group_by, &aggs, tuple, true);
                    state.support += *sign as i64;
                    for (i, (_, col)) in aggs.iter().enumerate() {
                        match state.sketches[i].as_mut() {
                            Some(sketch) => {
                                sketch.update_signed(tuple.value(*col), *sign as i64);
                            }
                            None => state.accs[i].update_signed(tuple.value(*col), *sign as i64),
                        }
                    }
                    self.drop_if_unsupported(&group_by, tuple);
                }
            }
            FoldMode::Partial {
                group_by,
                aggs,
                count_col,
            } => {
                for (tuple, sign) in rows {
                    let state = self.group_entry(&group_by, &aggs, tuple, false);
                    state.support += *sign as i64 * tuple.value(count_col).as_int().unwrap_or(0);
                    for (i, (f, col)) in aggs.iter().enumerate() {
                        let slice: Vec<Value> = (0..f.partial_width())
                            .map(|k| tuple.value(col + k).clone())
                            .collect();
                        state.accs[i].merge_partial_signed(&slice, *sign as i64);
                    }
                    self.drop_if_unsupported(&group_by, tuple);
                }
            }
        }
    }

    fn group_entry(
        &mut self,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        tuple: &Tuple,
        raw: bool,
    ) -> &mut GroupState {
        let key: Vec<Value> = group_by.iter().map(|c| tuple.value(*c).clone()).collect();
        self.groups.entry(key).or_insert_with(|| GroupState {
            support: 0,
            accs: aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect(),
            sketches: aggs
                .iter()
                .map(|(f, _)| match f {
                    AggFunc::Min if raw => {
                        Some(ExtremumSketch::new(ExtremumKind::Min, EXTREMUM_SKETCH_K))
                    }
                    AggFunc::Max if raw => {
                        Some(ExtremumSketch::new(ExtremumKind::Max, EXTREMUM_SKETCH_K))
                    }
                    _ => None,
                })
                .collect(),
        })
    }

    /// Has any group's extremum sketch been exhausted by retractions?
    /// When true, the maintained MIN/MAX is unknowable from retained
    /// state and the refresh must fall back to a recompute.
    pub fn sketch_exhausted(&self) -> bool {
        self.groups.values().any(|g| {
            g.sketches
                .iter()
                .flatten()
                .any(ExtremumSketch::is_exhausted)
        })
    }

    /// A group whose support count reached zero has no base rows left:
    /// its accumulators cancelled to neutral and the group must vanish
    /// from the answer, exactly as a fresh run would never form it.
    fn drop_if_unsupported(&mut self, group_by: &[usize], tuple: &Tuple) {
        let key: Vec<Value> = group_by.iter().map(|c| tuple.value(*c).clone()).collect();
        if self.groups.get(&key).map(|s| s.support) == Some(0) {
            self.groups.remove(&key);
        }
    }
}

/// How a refresh absorbs a published epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaintenanceMode {
    /// Push the interval's signed deltas through the delta legs — one
    /// session per leg whose pivot relation changed.
    Incremental,
    /// Rebuild the state from a full run of the maintenance plan at the
    /// target epoch.
    Recompute,
}

/// Measurements of one refresh.
#[derive(Clone, Debug)]
pub struct MaintenanceRun {
    /// The mode that ran.
    pub mode: MaintenanceMode,
    /// The epoch the view reflects after the refresh.
    pub epoch: Epoch,
    /// Sessions executed (delta legs, or 1 for a recompute, or 0 when
    /// every delta was empty).
    pub legs: usize,
    /// Bytes shipped between distinct nodes across all legs.
    pub shipped_bytes: u64,
    /// Inter-node messages across all legs.
    pub shipped_messages: u64,
    /// Virtual time from refresh start to the last leg's completion.
    pub makespan: SimTime,
    /// Did any leg run a failure-recovery round?
    pub recovered: bool,
    /// Signed rows folded into the view.
    pub rows_folded: usize,
    /// Did an incremental refresh exhaust an extremum sketch and fall
    /// back to a recompute?  The recompute's traffic is included in this
    /// run's totals.
    pub sketch_fallback: bool,
    /// Per-leg session reports (empty when no leg ran).
    pub sessions: Vec<SessionReport>,
}

/// Refresh `view` to `to_epoch` over `storage`, running the maintenance
/// sessions under a [`SessionScheduler`] (optionally injecting
/// `failure` into the shared network mid-maintenance — each leg then
/// recovers under `engine.strategy` like any other query).
pub fn refresh_view(
    view: &mut MaterializedView,
    storage: &DistributedStorage,
    engine: &EngineConfig,
    mode: MaintenanceMode,
    to_epoch: Epoch,
    initiator: NodeId,
    failure: Option<FailureSpec>,
) -> Result<MaintenanceRun> {
    let demanded = match mode {
        MaintenanceMode::Recompute => vec![recompute_session(view, to_epoch, initiator)],
        MaintenanceMode::Incremental => {
            let Some(from) = view.epoch else {
                return Err(OrchestraError::Execution(format!(
                    "view {} has no materialized epoch; the first refresh must recompute",
                    view.name
                )));
            };
            if let Some(reason) = view.maintenance.recompute_only() {
                return Err(OrchestraError::Execution(format!(
                    "view {} is recompute-only: {reason}",
                    view.name
                )));
            }
            if from > to_epoch {
                return Err(OrchestraError::Execution(format!(
                    "view {} already reflects {from}, cannot maintain backwards to {to_epoch}",
                    view.name
                )));
            }
            delta_legs(view, storage, from, to_epoch, initiator)?
        }
    };
    let sessions: Vec<SharedSession> = demanded
        .into_iter()
        .map(|(session, fold, contribution)| SharedSession {
            session,
            members: vec![(0, fold, contribution)],
        })
        .collect();

    let mut run = MaintenanceRun {
        mode,
        epoch: to_epoch,
        legs: sessions.len(),
        shipped_bytes: 0,
        shipped_messages: 0,
        makespan: SimTime::ZERO,
        recovered: false,
        rows_folded: 0,
        sketch_fallback: false,
        sessions: Vec::new(),
    };
    if sessions.is_empty() {
        // Nothing changed for any scanned relation: the view is already
        // exact at the target epoch.
        view.epoch = Some(to_epoch);
        return Ok(run);
    }

    let report = run_shared(
        std::slice::from_mut(view),
        storage,
        engine,
        &sessions,
        failure,
    )?;
    view.epoch = Some(to_epoch);
    for session in &report.sessions {
        run.rows_folded += session.report.signed_rows.len();
        run.recovered |= session.report.recovered;
    }
    run.shipped_bytes = report.total_bytes;
    run.shipped_messages = report.total_messages;
    run.makespan = report.makespan;
    run.sessions = report.sessions;

    // Delete-heavy retractions can exhaust a group's extremum sketch:
    // the MIN/MAX is now among discarded runners-up and no retained
    // state can recover it.  Fall back to one recompute — it rebuilds
    // every sketch — and charge its traffic to this run.
    if mode == MaintenanceMode::Incremental && view.sketch_exhausted() {
        let recompute = refresh_view(
            view,
            storage,
            engine,
            MaintenanceMode::Recompute,
            to_epoch,
            initiator,
            None,
        )?;
        run.sketch_fallback = true;
        run.legs += recompute.legs;
        run.shipped_bytes += recompute.shipped_bytes;
        run.shipped_messages += recompute.shipped_messages;
        run.makespan += recompute.makespan;
        run.recovered |= recompute.recovered;
        run.rows_folded += recompute.rows_folded;
        run.sessions.extend(recompute.sessions);
    }
    Ok(run)
}

/// Build the telescoped delta-leg sessions: leg *i* runs its pivot's leg
/// plan with scans of relations before *i* (telescoping order) pinned to
/// the new epoch, the pivot reading the signed delta, and relations
/// after *i* pinned to the old epoch.  Legs whose pivot relation did not
/// change are skipped.
pub(super) fn delta_legs(
    view: &MaterializedView,
    storage: &DistributedStorage,
    from: Epoch,
    to: Epoch,
    initiator: NodeId,
) -> Result<Vec<(QuerySession, FoldMode, Contribution)>> {
    let order: Vec<&str> = view
        .maintenance
        .legs
        .iter()
        .map(|l| l.relation.as_str())
        .collect();
    let mut sessions = Vec::new();
    for (pivot, leg) in view.maintenance.legs.iter().enumerate() {
        // A relation whose visible version did not move between the two
        // snapshots has an empty delta; comparing version epochs is
        // O(log history), no tuples are fetched.
        if storage.version_at(&leg.relation, from) == storage.version_at(&leg.relation, to) {
            continue;
        }
        let mut overrides = ScanOverrides::new();
        for op in leg.plan.scans() {
            let relation = leg.plan.op(op).kind.scanned_relation().unwrap_or_default();
            let global = order.iter().position(|r| *r == relation).ok_or_else(|| {
                OrchestraError::Execution(format!(
                    "leg plan for {} scans {relation}, which view {} has no leg for",
                    leg.relation, view.name
                ))
            })?;
            match global.cmp(&pivot) {
                std::cmp::Ordering::Less => overrides.read_at(op, to),
                std::cmp::Ordering::Equal => overrides.read_delta(op, from, to),
                std::cmp::Ordering::Greater => overrides.read_at(op, from),
            };
        }
        sessions.push((
            QuerySession {
                name: format!("{}/Δ{}@{to}", view.name, leg.relation),
                plan: leg.plan.clone(),
                epoch: to,
                initiator,
                arrival: SimTime::ZERO,
                fingerprint: None,
                estimated_cost: 0.0,
                overrides,
                plan_resident: view.installed_legs.contains(&leg.relation),
            },
            leg.fold.clone(),
            Contribution::Leg(leg.relation.clone()),
        ));
    }
    Ok(sessions)
}

/// The recompute session of `view` at `to`: the whole maintenance plan
/// with every scan at the target epoch.
pub(super) fn recompute_session(
    view: &MaterializedView,
    to: Epoch,
    initiator: NodeId,
) -> (QuerySession, FoldMode, Contribution) {
    (
        QuerySession {
            name: format!("{}/recompute@{to}", view.name),
            plan: view.maintenance.plan.clone(),
            epoch: to,
            initiator,
            arrival: SimTime::ZERO,
            // Maintenance answers are folded into view state, not
            // served to clients — never cached.
            fingerprint: None,
            estimated_cost: 0.0,
            overrides: ScanOverrides::new(),
            plan_resident: view.installed_base,
        },
        view.maintenance.fold.clone(),
        Contribution::Recompute,
    )
}

/// What a maintenance session contributes to a view it feeds.
#[derive(Clone, Debug)]
pub(super) enum Contribution {
    /// The session recomputes the view from scratch (initial
    /// materialization, a recompute-only view, a sketch fallback).
    Recompute,
    /// The session is the delta leg pivoting on this relation.
    Leg(String),
}

/// One maintenance session and the views it feeds, by index into the
/// slice handed to [`run_shared`] (one view for [`refresh_view`]; every
/// view whose session collided on a fingerprint for the registry).
pub(super) struct SharedSession {
    pub(super) session: QuerySession,
    pub(super) members: Vec<(usize, FoldMode, Contribution)>,
}

/// Run `shared` as one scheduler workload wide enough to admit every
/// session at once, then fork each session's signed rows into its member
/// views.  A completed session also marks its dataflow resident at the
/// participants, so the next run of it ships parameters + snapshot only
/// — the continuous-query property that keeps a small delta's refresh
/// traffic proportional to the delta.  (A failed run returns before
/// folding or marking anything.)
pub(super) fn run_shared(
    views: &mut [MaterializedView],
    storage: &DistributedStorage,
    engine: &EngineConfig,
    shared: &[SharedSession],
    failure: Option<FailureSpec>,
) -> Result<WorkloadReport> {
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: shared.len(),
        queue_capacity: shared.len(),
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });
    let submitted: Vec<Submission> = shared
        .iter()
        .map(|g| Submission::from(&g.session))
        .collect();
    let report =
        scheduler.run_inner(storage.view(), engine, &submitted, failure.as_slice(), None)?;
    for (session, group) in report.sessions.iter().zip(shared) {
        let rows = &session.report.signed_rows;
        for (id, fold, contribution) in &group.members {
            let view = &mut views[*id];
            match contribution {
                Contribution::Recompute => {
                    view.reset();
                    view.fold(fold, rows);
                    view.installed_base = true;
                }
                Contribution::Leg(relation) => {
                    view.fold(fold, rows);
                    view.installed_legs.insert(relation.clone());
                }
            }
        }
    }
    Ok(report)
}
