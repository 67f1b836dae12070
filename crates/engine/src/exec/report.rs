//! Query-report assembly and traffic accounting.
//!
//! [`RunStats`] accumulates the executor-side counters (scan volumes,
//! recovery work, round count) while the simulator keeps the ground-truth
//! per-link traffic; `Runtime::into_report` folds both into the
//! [`QueryReport`] the caller receives — the quantities plotted in the
//! paper's figures.
//!
//! The answer stays a list of the batches delivered to `Output` until
//! here, the one place that hands out [`Tuple`]s: [`sorted_answer`] sorts
//! a permutation of `(batch, row)` by comparing typed cells column by
//! column in exactly `Tuple`'s order — `orchestra_common`'s one typed
//! order, [`ColumnData::cmp_cell_at`](orchestra_common::ColumnData::cmp_cell_at)
//! — then the sign, and builds each row once, in sorted order.

use super::pipeline::Runtime;
use orchestra_common::{ColumnarBatch, NodeId, Tuple, Value};
use orchestra_simnet::SimTime;
use std::cmp::Ordering;
use std::rc::Rc;

/// Executor-side counters of one run, folded into the [`QueryReport`].
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct RunStats {
    /// Completed recovery rounds.
    pub(super) rounds: u32,
    /// Index pages consulted by all scans.
    pub(super) pages_read: usize,
    /// Tuple versions fetched by all scans.
    pub(super) tuples_scanned: usize,
    /// Tuple fetches that had to leave the scanning node.
    pub(super) remote_lookups: usize,
    /// Rows and sub-groups purged as tainted (incremental recovery).
    pub(super) purged: usize,
    /// Rows re-transmitted from output caches (incremental recovery).
    pub(super) retransmitted: usize,
    /// Host wall-clock: rows processed per operator class.
    pub(super) op_rows: [u64; 8],
    /// Host wall-clock: nanoseconds of operator compute per class.
    pub(super) op_nanos: [u64; 8],
}

/// Host wall-clock cost of one run, broken down by operator class.
///
/// Unlike every other figure in [`QueryReport`], these measure the real
/// machine the simulation ran on — compute time inside the engine's
/// operators, excluding the simulated network.  They are nondeterministic
/// by nature, so `orchestra-bench` — whose output is byte-compared —
/// never prints them; the host-time benchmark (`benchmark/`) reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallClock {
    /// Rows processed per operator class, indexed as [`WallClock::NAMES`].
    pub op_rows: [u64; 8],
    /// Nanoseconds of operator compute per class.
    pub op_nanos: [u64; 8],
}

impl WallClock {
    /// Labels of the operator classes, in slot order.
    pub const NAMES: [&'static str; 8] = [
        "select",
        "project",
        "compute",
        "join",
        "aggregate",
        "exchange",
        "scan",
        "output",
    ];
}

/// The answer set and execution measurements of one query run.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The final answer rows, sorted for deterministic comparison.
    pub rows: Vec<Tuple>,
    /// The answer rows with their delta signs, sorted.  Ordinary queries
    /// only ever produce `+1` rows; maintenance sessions (`exec::ivm`)
    /// read the signed form, where a `-1` row retracts state from the
    /// materialized view being maintained.
    pub signed_rows: Vec<(Tuple, i8)>,
    /// Simulated wall-clock running time of the query (including any
    /// recovery rounds).
    pub running_time: SimTime,
    /// Total bytes shipped between distinct nodes.
    pub total_bytes: u64,
    /// Total inter-node messages.
    pub total_messages: u64,
    /// Exact per-directed-link byte counts, in `(src, dst)` order.
    pub link_traffic: Vec<((NodeId, NodeId), u64)>,
    /// Messages the simulator dropped because a party had failed.
    pub dropped_messages: u64,
    /// Did a recovery round run?
    pub recovered: bool,
    /// Number of execution phases (1 for a failure-free run).
    pub phases: u32,
    /// Index pages consulted by all scans.
    pub pages_read: usize,
    /// Tuple versions fetched by all scans.
    pub tuples_scanned: usize,
    /// Tuple fetches that had to leave the scanning node.
    pub remote_lookups: usize,
    /// Rows and sub-groups purged as tainted (incremental recovery).
    pub purged: usize,
    /// Rows re-transmitted from output caches (incremental recovery).
    pub retransmitted: usize,
    /// Host wall-clock operator costs (nondeterministic; excluded from
    /// the determinism gates).
    pub wall_clock: WallClock,
}

impl QueryReport {
    /// The measured output cardinality — the answer's row count.  With
    /// the predicted root cardinality from the optimizer's cost walk,
    /// this is the predicted-vs-actual pair the adaptive feedback loop
    /// folds into its calibration.
    pub fn output_rows(&self) -> usize {
        self.rows.len()
    }
}

impl Runtime<'_> {
    pub(super) fn into_report(self) -> QueryReport {
        let signed_rows = sorted_answer(&self.output);
        // Sorted by (tuple, sign), so the projection is already sorted.
        // Each row was allocated once, by `sorted_answer`; `rows` shares
        // them by pointer, as the cache and its hits will after it.
        let rows: Vec<Tuple> = signed_rows.iter().map(|(t, _)| t.clone()).collect();
        let stats = self.sim.stats();
        QueryReport {
            rows,
            signed_rows,
            running_time: self.finish_time,
            total_bytes: stats.total_bytes(),
            total_messages: stats.total_messages(),
            link_traffic: stats.links().collect(),
            dropped_messages: self.sim.dropped_messages(),
            recovered: self.stats.rounds > 0,
            phases: self.stats.rounds + 1,
            pages_read: self.stats.pages_read,
            tuples_scanned: self.stats.tuples_scanned,
            remote_lookups: self.stats.remote_lookups,
            purged: self.stats.purged,
            retransmitted: self.stats.retransmitted,
            wall_clock: WallClock {
                op_rows: self.stats.op_rows,
                op_nanos: self.stats.op_nanos,
            },
        }
    }
}

/// The answer the delivered `batches` hold, as rows with their signs in
/// `(Tuple, sign)` order.  Every row is as wide as the widest batch, a
/// narrower batch's rows ending in NULLs.  The sort is stable, over the
/// rows in arrival order, so rows equal under `Ord` that still differ
/// (`Int(2)` and `Double(2.0)`) keep the order they arrived in.  It orders
/// a permutation of `(batch, row)` by comparing typed cells column by
/// column in [`Value`]'s order, as `orchestra_common`'s typed order
/// reads it off the columns (two strings that are one allocation, as
/// equal ids of one batch's pool are, equal without being read), and
/// builds each row once, in sorted order.
pub(super) fn sorted_answer(batches: &[Rc<ColumnarBatch>]) -> Vec<(Tuple, i8)> {
    let arity = batches.iter().map(|b| b.arity()).max().unwrap_or(0);
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(batches.iter().map(|b| b.len()).sum());
    for (b, batch) in batches.iter().enumerate() {
        order.extend((0..batch.len() as u32).map(|r| (b as u32, r)));
    }
    order.sort_by(|&(xb, xr), &(yb, yr)| {
        let (x, y) = (&*batches[xb as usize], &*batches[yb as usize]);
        let (xr, yr) = (xr as usize, yr as usize);
        (0..arity)
            .map(|col| compare_cells(x, xr, y, yr, col))
            .find(|ord| ord.is_ne())
            .unwrap_or_else(|| x.sign_at(xr).cmp(&y.sign_at(yr)))
    });
    order
        .iter()
        .map(|&(b, row)| {
            let (batch, row) = (&*batches[b as usize], row as usize);
            let tuple = (0..arity).map(|col| cell(batch, row, col)).collect();
            (tuple, batch.sign_at(row))
        })
        .collect()
}

/// [`Value::cmp`] of cell (`xr`, `col`) of `x` and cell (`yr`, `col`) of
/// `y`, a cell past a batch's last column NULL.
fn compare_cells(
    x: &ColumnarBatch,
    xr: usize,
    y: &ColumnarBatch,
    yr: usize,
    col: usize,
) -> Ordering {
    match (x.columns().get(col), y.columns().get(col)) {
        (Some(a), Some(b)) => a.data().cmp_cell_at(x.pool(), xr, b.data(), y.pool(), yr),
        (Some(a), None) => a.data().cmp_value_at(x.pool(), xr, &Value::Null),
        (None, Some(b)) => b.data().cmp_value_at(y.pool(), yr, &Value::Null).reverse(),
        (None, None) => Ordering::Equal,
    }
}

/// Cell (`row`, `col`) of `batch`, NULL past its last column.
fn cell(batch: &ColumnarBatch, row: usize, col: usize) -> Value {
    if col < batch.arity() {
        batch.value_at(row, col)
    } else {
        Value::Null
    }
}
