//! Per-node operator pipelines and the push loop.
//!
//! `Runtime` is all mutable state of one query execution.  What the
//! paper's executor keeps *per operator instance per participant* — join
//! tables, sub-grouped aggregates, exchange buffers with their output
//! caches, end-of-stream counts — lives in one table, `Runtime::nodes`:
//! a [`NodeState`] per node slot, each holding the node's scan
//! assignment and its [`OpState`]s by operator id, created when an
//! instance first sees input.  This module owns the event handler
//! (`handle`, fed by the scheduler's loop — the only one), pushes rows
//! from operator to operator (`process_at`), and drives the end-of-stream
//! segment-closure cascade that completes the query, reading the segment
//! topology off the plan ([`PhysicalPlan::segments`]).  Scans, exchange
//! batching, recovery and report assembly live in the sibling modules and
//! reach the same table: `scan` feeds rows in at the leaves, `exchange`
//! fills an instance's per-destination buffers and moves the bytes,
//! `recovery` walks every instance to purge and re-transmit, and
//! `report::RunStats` accumulates the measurements.

use super::exchange::{buffer_batch, rehash_routes, Payload, EOS_BYTES};
use super::ivm::ScanOverrides;
use super::report::RunStats;
use super::scheduler::Submission;
use super::session::{node_slots, SessionSim};
use super::EngineConfig;
use crate::expr::ScalarExpr;
use crate::ops::{AggState, JoinState, RehashState};
use crate::plan::{AggMode, OpId, OperatorKind, PhysicalPlan, Segment};
use crate::provenance::Phase;
use orchestra_common::{
    Column, ColumnarBatch, Epoch, KeyRange, NodeId, NodeSet, OrchestraError, Result,
};
use orchestra_simnet::{Delivery, SimTime};
use orchestra_storage::StorageView;
use orchestra_substrate::RoutingTable;
use std::borrow::Cow;
use std::rc::Rc;
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

/// One node's share of a query execution.
#[derive(Default)]
pub(super) struct NodeState {
    /// The hash ranges the node scans this phase.
    pub(super) scan_ranges: Vec<KeyRange>,
    /// The node has run this phase's scans.
    pub(super) scans_done: bool,
    /// The node's operator instances by [`OpId`], grown to the highest
    /// operator that saw input here.
    pub(super) ops: Vec<OpState>,
}

/// The state of one operator instance — one operator at one node.
#[derive(Default)]
pub(super) enum OpState {
    /// Nothing has reached the instance yet, or its operator keeps no
    /// state.
    #[default]
    Idle,
    Join(Box<JoinState>),
    Agg(AggState),
    Exchange(ExchangeState),
}

/// A segment root at one node: an exchange's two ends, or `Output` at
/// the initiator (which only ever closes).
pub(super) struct ExchangeState {
    /// Sender side: per-destination buffers awaiting a full batch and,
    /// with recovery support on, the output cache stage 4 re-transmits
    /// from.
    pub(super) out: RehashState,
    /// Receiver side: the end-of-stream markers still to come this
    /// phase; `None` where the node does not consume the exchange.
    pub(super) eos_pending: Option<usize>,
    /// Sender side: the segment below closed here this phase — flushed,
    /// end-of-stream sent.
    pub(super) fed_closed: bool,
    /// Sender side: per destination node (by index), the batches flushed
    /// to it this phase.
    pub(super) sent: Vec<u32>,
    /// Receiver side: per source node (by index), the batches that
    /// arrived from it this phase.
    pub(super) received: Vec<u32>,
}

/// Count one more batch for `node` in a per-node tally.
fn tally(counts: &mut Vec<u32>, node: NodeId) {
    if counts.len() <= node.index() {
        counts.resize(node.index() + 1, 0);
    }
    counts[node.index()] += 1;
}

/// The tally of `node`.
fn tallied(counts: &[u32], node: NodeId) -> u32 {
    counts.get(node.index()).copied().unwrap_or(0)
}

impl NodeState {
    /// The instance of `op`, made `fresh` if nothing has reached it yet.
    fn instance(&mut self, op: OpId, fresh: impl FnOnce() -> OpState) -> &mut OpState {
        if self.ops.len() <= op {
            self.ops.resize_with(op + 1, OpState::default);
        }
        let slot = &mut self.ops[op];
        if let OpState::Idle = slot {
            *slot = fresh();
        }
        slot
    }

    fn join(&mut self, op: OpId) -> Result<&mut JoinState> {
        match self.instance(op, || OpState::Join(Box::default())) {
            OpState::Join(state) => Ok(state),
            _ => Err(wrong_state(op, "join")),
        }
    }

    fn agg(&mut self, op: OpId) -> Result<&mut AggState> {
        match self.instance(op, || OpState::Agg(AggState::new())) {
            OpState::Agg(state) => Ok(state),
            _ => Err(wrong_state(op, "aggregate")),
        }
    }

    /// The instance of segment root `op`; `cache` says whether a new
    /// one keeps an output cache.
    pub(super) fn exchange(&mut self, op: OpId, cache: bool) -> Result<&mut ExchangeState> {
        let fresh = || ExchangeState {
            out: RehashState::new(cache),
            eos_pending: None,
            fed_closed: false,
            sent: Vec::new(),
            received: Vec::new(),
        };
        match self.instance(op, || OpState::Exchange(fresh())) {
            OpState::Exchange(state) => Ok(state),
            _ => Err(wrong_state(op, "exchange")),
        }
    }

    /// Has the segment feeding root `op` closed here this phase?
    fn fed_closed(&self, op: OpId) -> bool {
        matches!(self.ops.get(op), Some(OpState::Exchange(x)) if x.fed_closed)
    }

    /// Is every sender's end-of-stream for exchange `op` in?
    fn recv_closed(&self, op: OpId) -> bool {
        matches!(self.ops.get(op), Some(OpState::Exchange(x)) if x.eos_pending == Some(0))
    }
}

fn wrong_state(op: OpId, wanted: &str) -> OrchestraError {
    OrchestraError::Execution(format!(
        "operator {op} holds another operator's state, not {wanted} state"
    ))
}

/// The nodes that consume an exchange of the given kind.
fn consumers<'r>(
    kind: &OperatorKind,
    initiator: &'r NodeId,
    participants: &'r [NodeId],
) -> &'r [NodeId] {
    match kind {
        OperatorKind::Ship => std::slice::from_ref(initiator),
        _ => participants,
    }
}

/// All mutable state of one query execution.
pub(super) struct Runtime<'a> {
    /// The store as this session reads it: the caller's data under the
    /// routing the session was submitted with, minus every node a
    /// recovery round has found failed.  Lookups fail over under this
    /// routing, not under the recovery table in `table`, so a remote
    /// fetch is served by the same replica either way.
    pub(super) view: StorageView<'a>,
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
    /// The routing table of the current phase — the one rows are routed
    /// and scan ranges assigned by: the view's, borrowed, until a
    /// recovery round installs its recovery table.
    pub(super) table: Cow<'a, RoutingTable>,
    pub(super) participants: Vec<NodeId>,
    pub(super) phase: Phase,

    /// The operator-instance table: per node slot, the node's scan
    /// assignment, whether its scans have run, and the state of each of
    /// its operator instances — end-of-stream bookkeeping included.
    /// Failed nodes keep their slot (and recovery purges it like any
    /// other); only participants are ever delivered to.
    pub(super) nodes: Vec<NodeState>,
    /// Whether replicated relations are scanned this phase (full runs
    /// only; incremental recovery re-uses the survivors' earlier scans).
    pub(super) scan_replicated: bool,

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
        view: StorageView<'a>,
        config: &'a EngineConfig,
        session: &Submission<'a>,
        sim: SessionSim,
    ) -> Runtime<'a> {
        let table = view.routing();
        let participants = table.nodes();
        let mut nodes = Vec::new();
        nodes.resize_with(node_slots(table), NodeState::default);
        for node in &participants {
            nodes[node.index()].scan_ranges = table.ranges_of(*node);
        }

        Runtime {
            view,
            config,
            plan: session.plan,
            epoch: session.epoch,
            overrides: session.overrides,
            plan_resident: session.plan_resident,
            initiator: session.initiator,
            sim,
            table: Cow::Borrowed(table),
            participants,
            phase: 0,
            nodes,
            scan_replicated: true,
            output: ColumnarBatch::new(0),
            done: false,
            finish_time: SimTime::ZERO,
            stats: RunStats::default(),
        }
    }

    /// Start the query at virtual time `at` (its admission instant): set
    /// up this phase's end-of-stream expectations and disseminate plan +
    /// snapshot.
    pub(super) fn begin(&mut self, at: SimTime) -> Result<()> {
        self.reset_eos_counters()?;
        self.disseminate(at);
        Ok(())
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
    pub(super) fn reset_eos_counters(&mut self) -> Result<()> {
        for state in &mut self.nodes {
            state.scans_done = false;
            for instance in &mut state.ops {
                if let OpState::Exchange(exchange) = instance {
                    exchange.eos_pending = None;
                    exchange.fed_closed = false;
                    exchange.sent.clear();
                    exchange.received.clear();
                }
            }
        }
        let n = self.participants.len();
        for op in self
            .plan
            .operators()
            .iter()
            .filter(|o| o.kind.is_exchange())
        {
            for node in consumers(&op.kind, &self.initiator, &self.participants) {
                let exchange = self.nodes[node.index()].exchange(op.id, self.config.recovery)?;
                exchange.eos_pending = Some(n);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    pub(super) fn handle(&mut self, d: Delivery<Payload>) -> Result<()> {
        match d.payload {
            Payload::Start => self.on_start(d.to, d.time),
            Payload::Batch { op, batch } => {
                let receiver = self.nodes[d.to.index()].exchange(op, self.config.recovery)?;
                tally(&mut receiver.received, d.from);
                self.push_up(d.to, op, batch, d.time).map(|_| ())
            }
            Payload::Eos { op, batches } => self.on_eos(d.from, d.to, op, batches, d.time),
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
                ready = self.push_up(node, scan_op, Rc::new(batch), ready)?;
            }
        }
        self.nodes[node.index()].scans_done = true;
        self.try_close_segments(node, ready)
    }

    /// `sender` has finished feeding exchange `op` at `node`, after
    /// flushing `batches` batches to it: every one of them must have
    /// arrived.
    fn on_eos(
        &mut self,
        sender: NodeId,
        node: NodeId,
        op: OpId,
        batches: u32,
        time: SimTime,
    ) -> Result<()> {
        let Some(OpState::Exchange(ExchangeState {
            eos_pending: Some(pending),
            received,
            ..
        })) = self.nodes[node.index()].ops.get_mut(op)
        else {
            return Err(OrchestraError::Execution(format!(
                "unexpected end-of-stream for operator {op} at {node}"
            )));
        };
        let arrived = tallied(received, sender);
        if arrived != batches {
            return Err(OrchestraError::Execution(format!(
                "{sender} sent {batches} batch(es) to operator {op} at {node} this phase, \
                 but {arrived} arrived before its end-of-stream"
            )));
        }
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
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
        batch: Rc<ColumnarBatch>,
        time: SimTime,
    ) -> Result<SimTime> {
        let from = self.plan.op(from);
        let parent = from.parent.ok_or_else(|| {
            OrchestraError::Execution(format!("operator {} has no consumer", from.id))
        })?;
        self.process_at(node, parent, from.input, batch, time)?;
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
    /// produce typed column vectors, never row objects.  The batch is
    /// shared (a delivered one is also its sender's cache entry): every
    /// operator reads it, and only `Select` changes it in place, copying
    /// it first if it is shared.
    pub(super) fn process_at(
        &mut self,
        node: NodeId,
        op: OpId,
        input: usize,
        mut batch: Rc<ColumnarBatch>,
        time: SimTime,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // `plan` is an independent `&'a` borrow, so the kind can be read
        // by reference without cloning predicate/expression trees on
        // every delivered batch.
        let kind = &self.plan.op(op).kind;
        if kind.is_exchange() && self.nodes[node.index()].fed_closed(op) {
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
                if mask.iter().any(|keep| !keep) {
                    Rc::make_mut(&mut batch).retain(&mask);
                }
                self.record_wall(WC_SELECT, n, wall);
                if !batch.is_empty() {
                    self.push_up(node, op, batch, ready)?;
                }
            }
            OperatorKind::Project { columns } => {
                let wall = Instant::now();
                let out = batch.project(columns);
                self.record_wall(WC_PROJECT, out.len(), wall);
                self.push_up(node, op, Rc::new(out), ready)?;
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
                self.push_up(node, op, Rc::new(out), ready)?;
            }
            OperatorKind::HashJoin {
                left_keys,
                right_keys,
            } => {
                let wall = Instant::now();
                let n = batch.len();
                let state = self.nodes[node.index()].join(op)?;
                let out = state.process_batch(input, &batch, left_keys, right_keys, node);
                self.record_wall(WC_JOIN, n, wall);
                if !out.is_empty() {
                    self.push_up(node, op, Rc::new(out), ready)?;
                }
            }
            OperatorKind::Aggregate {
                group_by,
                aggs,
                mode,
            } => {
                let wall = Instant::now();
                let state = self.nodes[node.index()].agg(op)?;
                match mode {
                    AggMode::Single | AggMode::Partial => {
                        state.update_raw_batch(&batch, group_by, aggs)?
                    }
                    AggMode::Final => state.update_partial_batch(&batch, group_by, aggs)?,
                }
                self.record_wall(WC_AGGREGATE, batch.len(), wall);
            }
            OperatorKind::Rehash { .. } | OperatorKind::Broadcast | OperatorKind::Ship => {
                let wall = Instant::now();
                let exchange = self.nodes[node.index()].exchange(op, self.config.recovery)?;
                let filled = if let OperatorKind::Rehash { columns } = kind {
                    let routes = rehash_routes(&self.table, &batch, columns);
                    let routes = routes.iter().map(|(dest, rows)| (*dest, &rows[..]));
                    buffer_batch(&mut exchange.out, &batch, routes)
                } else {
                    // Every destination receives the whole batch.
                    let all: Vec<u32> = (0..batch.len() as u32).collect();
                    let dests = consumers(kind, &self.initiator, &self.participants);
                    let routes = dests.iter().map(|dest| (*dest, &all[..]));
                    buffer_batch(&mut exchange.out, &batch, routes)
                };
                self.send_flushed(node, op, filled, ready)?;
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
        if !self.nodes[node.index()].scans_done {
            return Ok(());
        }
        let plan = self.plan;
        loop {
            let mut progressed = false;
            for segment in plan.segments() {
                let state = &self.nodes[node.index()];
                let is_output = matches!(plan.op(segment.root).kind, OperatorKind::Output);
                if state.fed_closed(segment.root)
                    || (is_output && node != self.initiator)
                    || !segment.exchanges.iter().all(|e| state.recv_closed(*e))
                {
                    continue;
                }
                self.close_segment(node, segment, time)?;
                progressed = true;
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// All inputs of `segment` are exhausted at `node`: emit blocking
    /// state, flush the root's buffers, signal end-of-stream.
    fn close_segment(&mut self, node: NodeId, segment: &Segment, time: SimTime) -> Result<()> {
        let mut ready = time;
        let plan = self.plan;
        let root = &plan.op(segment.root).kind;
        let is_output = matches!(root, OperatorKind::Output);

        for &agg_op in &segment.blocking {
            let OperatorKind::Aggregate { aggs, mode, .. } = &plan.op(agg_op).kind else {
                continue;
            };
            let wall = Instant::now();
            let phase = self.phase;
            let state = self.nodes[node.index()].agg(agg_op)?;
            let emitted = match mode {
                AggMode::Partial => state.emit_unemitted(true, node, phase),
                AggMode::Single | AggMode::Final if is_output => {
                    // The top-level aggregate merges its sub-groups into
                    // the final answer exactly once, at query completion.
                    let rows = state.collapsed_final(aggs);
                    let arity = rows.iter().map(|t| t.arity()).max().unwrap_or(0);
                    let tag = NodeSet::singleton(node);
                    ColumnarBatch::from_tuples(arity, &rows, 1, tag, phase)
                }
                AggMode::Single | AggMode::Final => state.emit_unemitted(false, node, phase),
            };
            self.record_wall(WC_AGGREGATE, 0, wall);
            if !emitted.is_empty() {
                ready = self.push_up(node, agg_op, Rc::new(emitted), ready)?;
            }
        }

        // The blocking operators' rows were the last to enter the root
        // legitimately; `process_at` rejects any that follow.
        let exchange = self.nodes[node.index()].exchange(segment.root, self.config.recovery)?;
        exchange.fed_closed = true;
        if is_output {
            self.done = true;
            self.finish_time = self.finish_time.max(ready);
            return Ok(());
        }

        // Flush whatever is still buffered, then signal end-of-stream.
        let flushed = exchange.out.flush_pending();
        self.send_flushed(node, segment.root, flushed, ready)?;
        for &dest in consumers(root, &self.initiator, &self.participants) {
            let exchange = self.nodes[node.index()].exchange(segment.root, self.config.recovery)?;
            let batches = tallied(&exchange.sent, dest);
            let eos = Payload::Eos {
                op: segment.root,
                batches,
            };
            self.sim.send(node, dest, EOS_BYTES, ready, eos);
        }
        Ok(())
    }

    /// Send the batches exchange `op` at `node` flushed, each to its
    /// destination: counted first, all of them, so that the end-of-stream
    /// marker tells each receiver how many batches were meant for it
    /// whatever became of them.
    fn send_flushed(
        &mut self,
        node: NodeId,
        op: OpId,
        flushed: Vec<(NodeId, Rc<ColumnarBatch>)>,
        ready: SimTime,
    ) -> Result<()> {
        let exchange = self.nodes[node.index()].exchange(op, self.config.recovery)?;
        for (dest, _) in &flushed {
            tally(&mut exchange.sent, *dest);
        }
        for (dest, batch) in flushed {
            self.send_batch(node, op, dest, batch, ready);
        }
        Ok(())
    }
}
