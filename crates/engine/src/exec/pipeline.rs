//! Per-node operator pipelines and the push loop.
//!
//! `Runtime` is all mutable state of one query execution.  This module
//! owns its event handler (`handle`, fed by the scheduler's loop — the
//! only one), instantiates the local operator pipeline on every
//! participant when the plan arrives, pushes rows from operator to
//! operator (`process_at`), and drives the end-of-stream
//! segment-closure cascade that completes the query.  Scans, exchange
//! batching, recovery and report assembly live in the sibling modules —
//! each reached through an explicit seam: `scan` feeds rows in at the
//! leaves, `exchange::ExchangeLayer` takes rows out at the exchange
//! boundary, `recovery` rebuilds this struct's per-phase state, and
//! `report::RunStats` accumulates the measurements.

use super::exchange::{rehash_routes, ExchangeLayer, Payload, EOS_BYTES};
use super::ivm::ScanOverrides;
use super::report::RunStats;
use super::scheduler::Submission;
use super::session::SessionSim;
use super::EngineConfig;
use crate::expr::ScalarExpr;
use crate::ops::{AggState, JoinState};
use crate::plan::{AggMode, OpId, OperatorKind, PhysicalPlan};
use crate::provenance::Phase;
use orchestra_common::{
    Column, ColumnarBatch, Epoch, KeyRange, NodeId, NodeSet, OrchestraError, Result,
};
use orchestra_simnet::{Delivery, SimTime};
use orchestra_storage::DistributedStorage;
use orchestra_substrate::RoutingTable;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

// Wall-clock accounting slots (indices into `RunStats::op_rows` /
// `op_nanos`); see [`super::report::WallClock::NAMES`] for the labels.
const WC_SELECT: usize = 0;
const WC_PROJECT: usize = 1;
const WC_COMPUTE: usize = 2;
const WC_JOIN: usize = 3;
const WC_AGGREGATE: usize = 4;
const WC_EXCHANGE: usize = 5;
pub(super) const WC_SCAN: usize = 6;
const WC_OUTPUT: usize = 7;

/// Sources feeding the segment rooted at one exchange (or `Output`): the
/// leaf scans inside the segment and the boundary exchanges whose
/// deliveries enter it from below.
#[derive(Clone, Debug, Default)]
pub(super) struct SegmentSources {
    pub(super) scans: Vec<OpId>,
    pub(super) exchanges: Vec<OpId>,
    pub(super) blocking: Vec<OpId>,
}

/// All mutable state of one query execution.
pub(super) struct Runtime<'a> {
    /// The caller's store, borrowed until the first recovery round
    /// clones it to mark the failed nodes unreadable.
    pub(super) storage: Cow<'a, DistributedStorage>,
    pub(super) config: &'a EngineConfig,
    pub(super) plan: &'a PhysicalPlan,
    pub(super) epoch: Epoch,
    /// Per-scan epoch pins and delta-scan instructions (empty for
    /// ordinary queries; set by maintenance sessions).
    pub(super) overrides: &'a ScanOverrides,
    /// Participants already hold the plan (installed maintenance
    /// dataflow): dissemination ships parameters + snapshot only.
    pub(super) plan_resident: bool,
    pub(super) initiator: NodeId,

    pub(super) sim: SessionSim,
    /// The routing table of the current phase (original snapshot, then
    /// recovery tables).
    pub(super) table: RoutingTable,
    pub(super) participants: Vec<NodeId>,
    pub(super) phase: Phase,

    /// Per-phase scan assignment: which hash ranges each node scans.
    pub(super) scan_ranges: HashMap<NodeId, Vec<KeyRange>>,
    /// Whether replicated relations are scanned this phase (full runs
    /// only; incremental recovery re-uses the survivors' earlier scans).
    pub(super) scan_replicated: bool,

    // Operator state, one instance per (participant, operator).
    pub(super) joins: HashMap<(NodeId, OpId), JoinState>,
    pub(super) aggs: HashMap<(NodeId, OpId), AggState>,
    pub(super) exchanges: ExchangeLayer,

    // End-of-stream bookkeeping, reset each phase.
    pub(super) eos_pending: HashMap<(NodeId, OpId), usize>,
    pub(super) recv_closed: HashSet<(NodeId, OpId)>,
    pub(super) fed_closed: HashSet<(NodeId, OpId)>,
    pub(super) scans_done: HashSet<NodeId>,

    /// Segment structure, precomputed from the plan.
    pub(super) segment_roots: Vec<OpId>,
    pub(super) sources: HashMap<OpId, SegmentSources>,

    /// Rows collected at the initiator's `Output`, kept columnar until
    /// the report materializes them.
    pub(super) output: ColumnarBatch,
    pub(super) done: bool,
    pub(super) finish_time: SimTime,

    /// Execution counters folded into the final [`super::QueryReport`].
    pub(super) stats: RunStats,
}

impl<'a> Runtime<'a> {
    pub(super) fn new(
        storage: &'a DistributedStorage,
        config: &'a EngineConfig,
        session: &Submission<'a>,
        sim: SessionSim,
    ) -> Runtime<'a> {
        let plan = session.plan;
        let table = storage.routing().clone();
        let participants = table.nodes();

        let segment_roots: Vec<OpId> = plan
            .operators()
            .iter()
            .filter(|o| o.kind.is_exchange() || matches!(o.kind, OperatorKind::Output))
            .map(|o| o.id)
            .collect();
        let mut sources = HashMap::new();
        for &root in &segment_roots {
            sources.insert(root, segment_sources(plan, root));
        }

        let scan_ranges = participants
            .iter()
            .map(|n| (*n, table.ranges_of(*n)))
            .collect();

        Runtime {
            storage: Cow::Borrowed(storage),
            config,
            plan,
            epoch: session.epoch,
            overrides: session.overrides,
            plan_resident: session.plan_resident,
            initiator: session.initiator,
            sim,
            table,
            participants,
            phase: 0,
            scan_ranges,
            scan_replicated: true,
            joins: HashMap::new(),
            aggs: HashMap::new(),
            exchanges: ExchangeLayer::new(),
            eos_pending: HashMap::new(),
            recv_closed: HashSet::new(),
            fed_closed: HashSet::new(),
            scans_done: HashSet::new(),
            segment_roots,
            sources,
            output: ColumnarBatch::new(0),
            done: false,
            finish_time: SimTime::ZERO,
            stats: RunStats::default(),
        }
    }

    /// Start the query at virtual time `at` (its admission instant): set
    /// up this phase's end-of-stream expectations and disseminate plan +
    /// snapshot.
    pub(super) fn begin(&mut self, at: SimTime) {
        self.reset_eos_counters();
        self.disseminate(at);
    }

    /// Has this session exhausted its recovery-round budget?
    pub(super) fn rounds_exhausted(&self) -> bool {
        self.stats.rounds >= self.config.max_recovery_rounds
    }

    // ------------------------------------------------------------------
    // Phase setup
    // ------------------------------------------------------------------

    /// Expected end-of-stream counts for the current participant set:
    /// every participant feeds every `Rehash` instance, and every
    /// participant feeds the initiator's `Ship` consumer.
    pub(super) fn reset_eos_counters(&mut self) {
        self.eos_pending.clear();
        self.recv_closed.clear();
        self.fed_closed.clear();
        self.scans_done.clear();
        let n = self.participants.len();
        for op in self.plan.operators() {
            match op.kind {
                OperatorKind::Rehash { .. } | OperatorKind::Broadcast => {
                    for &node in &self.participants {
                        self.eos_pending.insert((node, op.id), n);
                    }
                }
                OperatorKind::Ship => {
                    self.eos_pending.insert((self.initiator, op.id), n);
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    pub(super) fn handle(&mut self, d: Delivery<Payload>) -> Result<()> {
        match d.payload {
            Payload::Start => self.on_start(d.to, d.time),
            Payload::Batch { op, batch } => {
                let parent = self.plan.op(op).parent.expect("exchange has a consumer");
                let input = input_index(self.plan, parent, op);
                self.process_at(d.to, parent, input, batch, d.time)
            }
            Payload::Eos { op } => self.on_eos(d.to, op, d.time),
            Payload::StorageFetch => Ok(()),
        }
    }

    /// Plan arrived at `node`: charge startup, run this phase's scans,
    /// then try to close any segment fed purely by scans.
    fn on_start(&mut self, node: NodeId, time: SimTime) -> Result<()> {
        let startup = self.config.profile.node.startup_time();
        let mut ready = self.sim.charge_cpu(node, time, startup);
        if self.phase > 0 && self.config.strategy == super::RecoveryStrategy::Incremental {
            ready = self.retransmit_cached(node, ready)?;
        }
        for scan_op in self.plan.scans() {
            let (batch, scan_time) = self.do_scan(node, scan_op)?;
            ready = self.sim.charge_cpu(node, ready, scan_time);
            if !batch.is_empty() {
                ready = self.push_up(node, scan_op, batch, ready)?;
            }
        }
        self.scans_done.insert(node);
        self.try_close_segments(node, ready)
    }

    fn on_eos(&mut self, node: NodeId, op: OpId, time: SimTime) -> Result<()> {
        let pending = self.eos_pending.get_mut(&(node, op)).ok_or_else(|| {
            OrchestraError::Execution(format!(
                "unexpected end-of-stream for operator {op} at {node}"
            ))
        })?;
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.recv_closed.insert((node, op));
            self.try_close_segments(node, time)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The push-based pipeline
    // ------------------------------------------------------------------

    /// Push the batch produced by `from` into its parent operator.
    pub(super) fn push_up(
        &mut self,
        node: NodeId,
        from: OpId,
        batch: ColumnarBatch,
        time: SimTime,
    ) -> Result<SimTime> {
        let parent = self
            .plan
            .op(from)
            .parent
            .expect("only Output lacks a parent, and Output never produces");
        let input = input_index(self.plan, parent, from);
        self.process_at(node, parent, input, batch, time)?;
        Ok(self.sim.cpu_free_at(node).max(time))
    }

    /// Fold an operator's wall-clock cost into the report counters.  Only
    /// the operator's own compute is on the clock: callers stop it before
    /// recursing into `push_up`, so parent work is never double-billed.
    /// A blocking aggregate's emission is billed with `rows == 0` — it
    /// adds time to the slot without re-counting rows the operator arm
    /// already counted.
    pub(super) fn record_wall(&mut self, slot: usize, rows: usize, started: Instant) {
        self.stats.op_rows[slot] += rows as u64;
        self.stats.op_nanos[slot] += started.elapsed().as_nanos() as u64;
    }

    /// Process a batch arriving at operator `op` on `node` via `input`:
    /// charge one `cpu_time(len)` of simulated CPU for the arrival, then
    /// run the operator over the whole batch — operators consume and
    /// produce typed column vectors, never row objects.
    pub(super) fn process_at(
        &mut self,
        node: NodeId,
        op: OpId,
        input: usize,
        mut batch: ColumnarBatch,
        time: SimTime,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // `plan` is an independent `&'a` borrow, so the kind can be read
        // by reference without cloning predicate/expression trees on
        // every delivered batch.
        let kind = &self.plan.op(op).kind;
        if kind.is_exchange() && self.fed_closed.contains(&(node, op)) {
            // The consumers stop listening once every sender's
            // end-of-stream is in: these rows would sit in the exchange
            // for ever and the answer come up short.
            return Err(OrchestraError::Execution(format!(
                "{} row(s) reached {} operator {op} at {node} after it sent its end-of-stream",
                batch.len(),
                kind.name()
            )));
        }
        let cpu = self.config.profile.node.cpu_time(batch.len());
        let ready = self.sim.charge_cpu(node, time, cpu);
        match kind {
            OperatorKind::Select { predicate } => {
                let wall = Instant::now();
                let n = batch.len();
                let mut mask = Vec::new();
                predicate.eval_mask(&batch, &mut mask);
                batch.retain(&mask);
                self.record_wall(WC_SELECT, n, wall);
                if !batch.is_empty() {
                    self.push_up(node, op, batch, ready)?;
                }
            }
            OperatorKind::Project { columns } => {
                let wall = Instant::now();
                let out = batch.project(columns);
                self.record_wall(WC_PROJECT, out.len(), wall);
                self.push_up(node, op, out, ready)?;
            }
            OperatorKind::ComputeFunction { exprs } => {
                let wall = Instant::now();
                let n = batch.len();
                // Passthrough expressions reuse the input column wholesale
                // (cells, dictionary accounting and string ids — the pool
                // is cloned, so ids stay valid); only computed expressions
                // pay per-cell construction.
                let mut pool = batch.pool().clone();
                let cols: Vec<Column> = exprs
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Column(i) => batch.column(*i).clone(),
                        _ => Column::from_values(e.eval_column(&batch), &mut pool),
                    })
                    .collect();
                let out = ColumnarBatch::from_parts(
                    pool,
                    cols,
                    batch.sign_column().to_vec(),
                    batch.provenance_column().to_vec(),
                    batch.phase_column().to_vec(),
                );
                self.record_wall(WC_COMPUTE, n, wall);
                self.push_up(node, op, out, ready)?;
            }
            OperatorKind::HashJoin {
                left_keys,
                right_keys,
            } => {
                let wall = Instant::now();
                let n = batch.len();
                let state = self.joins.entry((node, op)).or_default();
                let out = state.process_batch(input, &batch, left_keys, right_keys, node);
                self.record_wall(WC_JOIN, n, wall);
                if !out.is_empty() {
                    self.push_up(node, op, out, ready)?;
                }
            }
            OperatorKind::Aggregate {
                group_by,
                aggs,
                mode,
            } => {
                let wall = Instant::now();
                let state = self.aggs.entry((node, op)).or_default();
                match mode {
                    AggMode::Single | AggMode::Partial => {
                        state.update_raw_batch(&batch, group_by, aggs)
                    }
                    AggMode::Final => state.update_partial_batch(&batch, group_by, aggs),
                }
                self.record_wall(WC_AGGREGATE, batch.len(), wall);
            }
            OperatorKind::Rehash { .. } | OperatorKind::Broadcast | OperatorKind::Ship => {
                let wall = Instant::now();
                let cache = self.config.recovery;
                let filled = if let OperatorKind::Rehash { columns } = kind {
                    let routes = rehash_routes(&self.table, &batch, columns);
                    let routes = routes.iter().map(|(dest, rows)| (*dest, &rows[..]));
                    self.exchanges.buffer_batch(node, op, &batch, routes, cache)
                } else {
                    // Every destination receives the whole batch.
                    let all: Vec<u32> = (0..batch.len() as u32).collect();
                    let dests = match kind {
                        OperatorKind::Ship => std::slice::from_ref(&self.initiator),
                        _ => &self.participants[..],
                    };
                    let routes = dests.iter().map(|dest| (*dest, &all[..]));
                    self.exchanges.buffer_batch(node, op, &batch, routes, cache)
                };
                for (dest, full) in filled {
                    self.send_batch(node, op, dest, full, ready);
                }
                self.record_wall(WC_EXCHANGE, batch.len(), wall);
            }
            OperatorKind::Output => {
                debug_assert_eq!(node, self.initiator);
                let wall = Instant::now();
                self.output.append_batch(&batch);
                self.record_wall(WC_OUTPUT, batch.len(), wall);
                self.finish_time = self.finish_time.max(ready);
            }
            OperatorKind::DistributedScan { .. }
            | OperatorKind::CoveringIndexScan { .. }
            | OperatorKind::ReplicatedScan { .. } => {
                return Err(OrchestraError::Execution(
                    "scan operators take no pipeline input".into(),
                ))
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Segment closure (end-of-stream cascade)
    // ------------------------------------------------------------------

    /// Close every segment at `node` whose sources have all finished.
    /// Closing one segment can enable the next, so iterate to fixpoint.
    pub(super) fn try_close_segments(&mut self, node: NodeId, time: SimTime) -> Result<()> {
        if !self.scans_done.contains(&node) {
            return Ok(());
        }
        loop {
            let mut progressed = false;
            for root in self.segment_roots.clone() {
                if self.fed_closed.contains(&(node, root)) {
                    continue;
                }
                let is_output = matches!(self.plan.op(root).kind, OperatorKind::Output);
                if is_output && node != self.initiator {
                    continue;
                }
                let sources = &self.sources[&root];
                let ready_to_close = sources
                    .exchanges
                    .iter()
                    .all(|e| self.recv_closed.contains(&(node, *e)));
                if !ready_to_close {
                    continue;
                }
                self.close_segment(node, root, time)?;
                progressed = true;
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// All inputs of the segment rooted at `root` are exhausted at `node`:
    /// emit blocking state, flush the root's buffers, signal end-of-stream.
    fn close_segment(&mut self, node: NodeId, root: OpId, time: SimTime) -> Result<()> {
        let mut ready = time;
        let is_output = matches!(self.plan.op(root).kind, OperatorKind::Output);

        for agg_op in self.sources[&root].blocking.clone() {
            let OperatorKind::Aggregate { aggs, mode, .. } = self.plan.op(agg_op).kind.clone()
            else {
                continue;
            };
            let wall = Instant::now();
            let state = self.aggs.entry((node, agg_op)).or_default();
            let emitted = match mode {
                AggMode::Partial => state.emit_unemitted(true, node, self.phase),
                AggMode::Single | AggMode::Final if is_output => {
                    // The top-level aggregate merges its sub-groups into
                    // the final answer exactly once, at query completion.
                    let rows = state.collapsed_final(&aggs);
                    let arity = rows.iter().map(|t| t.arity()).max().unwrap_or(0);
                    let tag = NodeSet::singleton(node);
                    ColumnarBatch::from_tuples(arity, &rows, 1, tag, self.phase)
                }
                AggMode::Single | AggMode::Final => state.emit_unemitted(false, node, self.phase),
            };
            self.record_wall(WC_AGGREGATE, 0, wall);
            if !emitted.is_empty() {
                ready = self.push_up(node, agg_op, emitted, ready)?;
            }
        }

        // The blocking operators' rows were the last to enter the root
        // legitimately; `process_at` rejects any that follow.
        self.fed_closed.insert((node, root));
        if is_output {
            self.done = true;
            self.finish_time = self.finish_time.max(ready);
            return Ok(());
        }

        // Flush whatever is still buffered, then signal end-of-stream.
        let pending = self.exchanges.pending_destinations(node, root);
        for dest in pending {
            self.flush_exchange(node, root, dest, ready);
        }
        let dests: Vec<NodeId> = match self.plan.op(root).kind {
            OperatorKind::Ship => vec![self.initiator],
            _ => self.participants.clone(),
        };
        for dest in dests {
            self.sim
                .send(node, dest, EOS_BYTES, ready, Payload::Eos { op: root });
        }
        Ok(())
    }
}

/// Position of child `child` among `parent`'s inputs.
fn input_index(plan: &PhysicalPlan, parent: OpId, child: OpId) -> usize {
    plan.op(parent)
        .children
        .iter()
        .position(|c| *c == child)
        .expect("child/parent links are consistent")
}

/// Find the scans, boundary exchanges and blocking operators of the
/// segment rooted at `root` (an exchange or `Output`).
fn segment_sources(plan: &PhysicalPlan, root: OpId) -> SegmentSources {
    let mut out = SegmentSources::default();
    let mut stack: Vec<OpId> = plan.op(root).children.clone();
    while let Some(id) = stack.pop() {
        let op = plan.op(id);
        if op.kind.is_exchange() {
            out.exchanges.push(id);
        } else if op.kind.is_scan() {
            out.scans.push(id);
        } else {
            if op.kind.is_blocking() {
                out.blocking.push(id);
            }
            stack.extend(op.children.iter().copied());
        }
    }
    out.scans.sort_unstable();
    out.exchanges.sort_unstable();
    out.blocking.sort_unstable();
    out
}
