//! Runtime state of the stateful operators, stored column-wise.
//!
//! The executor (`exec`) owns one instance of every plan operator per
//! participating node; this module holds the state those instances carry
//! between messages:
//!
//! * [`JoinState`] — the pipelined *symmetric* hash join (the paper's
//!   "pipelined hash join"), a batch at a time.  Each side keeps its
//!   buffered rows in one [`ColumnarBatch`] and an index from a 64-bit
//!   key hash to the rows carrying it, chained in insertion order.  An
//!   arriving batch's key columns are hashed once, a column at a time;
//!   each row probes the other side's index, a candidate is checked cell
//!   by cell under `Value` equality, and the (probe row, match row)
//!   pairs — probe rows in batch order, matches in insertion order — are
//!   gathered a column at a time ([`ColumnarBatch::append_cells_at`]).
//!   A batch probes only the other side, so adding its own rows after
//!   the probe changes no match.  Tainted build rows are tombstoned (not
//!   compacted) on failure so row numbers in the index stay valid.
//! * [`AggState`] — the grouping operator's state, organised as
//!   *sub-groups* keyed by `(group key, provenance set, phase)` exactly as
//!   Section V-D prescribes, so that on failure the sub-groups derived
//!   from a failed node can be dropped without touching the rest, and so
//!   that re-emission after recovery never double-counts.  A batch is
//!   folded in two passes: every row is resolved to its sub-group through
//!   an index keyed by (key hash, provenance, phase), the key hashed as
//!   the join hashes it; then each aggregate folds its column into the
//!   rows' sub-groups in row order — SUM, COUNT and AVG over `Int` and
//!   `Double` columns in typed loops with `Value`'s arithmetic, MIN, MAX
//!   and untyped columns through [`Accumulator`]'s `Value` path.
//! * [`RehashState`] — per-destination output buffers plus the output
//!   cache used by recovery stage 4 ("re-create data that was sent to the
//!   failed nodes' hash key space ranges").  Buffers are
//!   [`ColumnarBatch`]es, so a flushed batch already knows its own
//!   encoded wire size — the flush path reads it off the columns' cached
//!   dictionary accounting instead of re-scanning the rows.  Rows arrive
//!   a destination's selection at a time (`RehashState::buffer_rows`) and
//!   are appended to the pending buffer in chunks cut where the buffer
//!   reaches the flush size, each filled buffer handed back with the
//!   number of the source row that filled it — the caller
//!   (`exec::exchange`) sends them in that order, which is the order a
//!   row-at-a-time loop fills them in and, since same-instant sends queue
//!   on the sender's uplink in call order, part of every simulated
//!   figure.  The cache is the list of batches flushed to each
//!   destination, shared with the payloads that carry them
//!   (`Rc<ColumnarBatch>`), not a copy of their rows; recovery stage 2
//!   moves a pending buffer bound for a failed node into it unsent, so
//!   that the cache followed by the pending buffer is always every row
//!   buffered for a destination.
//!
//! The join and the aggregate hash keys alike (`KeyHashes`): a row's
//! hash folds each key cell in the canonical form `Value`'s `Hash` gives
//! it, so keys equal as `Value`s hash alike whether their columns are
//! typed or not, and an integral `Double` meets the `Int` it equals.  The
//! hash is seeded per operator instance, so keys cannot be crafted to
//! collide in advance, and no emission order depends on it.

use crate::expr::AggFunc;
use crate::provenance::Phase;
use orchestra_common::value::{cmp_int_double, integral};
use orchestra_common::{
    ColumnData, ColumnarBatch, NodeId, NodeSet, OrchestraError, Result, Tuple, Value,
};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::rc::Rc;

#[cfg(test)]
mod join_agg_by_batch;

// ---------------------------------------------------------------------------
// Key hashing
// ---------------------------------------------------------------------------

/// Ends a chain of rows or sub-groups that share an index entry.
const END: u32 = u32::MAX;

/// What a NULL key cell folds as.
const NULL_CELL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Keeps a non-integral double from folding like the integer with its
/// bits.
const DOUBLE_SALT: u64 = 0xd6e8_feb8_6659_fd93;

/// murmur3's 64-bit finaliser: a bijection that spreads every bit of its
/// input over the whole word.
fn mix(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The hasher of the operators' indexes, whose keys are seeded key
/// hashes (with a sub-group's tags): FxHash's rotate-multiply per word,
/// finished by [`mix`].
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// A map keyed by key hashes.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// A key cell as a row hash folds it — the canonical form `Value`'s
/// `Hash` uses: an integer is itself and so is an integral double (both
/// zeros included, which `Value` equality still tells apart); any other
/// double is its bits, each NaN its own.
fn int_cell(v: i64) -> u64 {
    v as u64
}

fn double_cell(v: f64) -> u64 {
    integral(v).map_or(v.to_bits() ^ DOUBLE_SALT, int_cell)
}

/// The row hashes of a batch's key columns, and the scratch that
/// computes them, kept by an operator instance from batch to batch.
#[derive(Clone, Debug, Default)]
struct KeyHashes {
    /// Seeds every row hash and hashes every string.
    keys: RandomState,
    /// One hash per row of the batch last hashed.
    rows: Vec<u64>,
    /// The hash of each pool string of that batch met so far, by id.
    strings: Vec<Option<u64>>,
}

impl KeyHashes {
    /// Hash every row's cells in `cols`, in row order.  Rows whose key
    /// cells are equal `Value`s get equal hashes, whatever their columns'
    /// storage; each distinct string of the batch is hashed once.
    fn hash(&mut self, batch: &ColumnarBatch, cols: &[usize]) -> &[u64] {
        let KeyHashes {
            keys,
            rows,
            strings,
        } = self;
        rows.clear();
        rows.resize(batch.len(), keys.hash_one(()));
        strings.clear();
        let pool = batch.pool();
        let fold = |h: &mut u64, cell: u64| *h = mix(*h ^ cell);
        for &c in cols {
            match batch.column(c).data() {
                ColumnData::Int(v) => rows
                    .iter_mut()
                    .zip(v)
                    .for_each(|(h, x)| fold(h, int_cell(*x))),
                ColumnData::Double(v) => rows
                    .iter_mut()
                    .zip(v)
                    .for_each(|(h, x)| fold(h, double_cell(*x))),
                ColumnData::Str(ids) => {
                    strings.resize(pool.len(), None);
                    for (h, id) in rows.iter_mut().zip(ids) {
                        let cell = *strings[*id as usize]
                            .get_or_insert_with(|| keys.hash_one(pool.get(*id)));
                        fold(h, cell);
                    }
                }
                ColumnData::Values(v) => {
                    for (h, x) in rows.iter_mut().zip(v) {
                        let cell = match x {
                            Value::Null => NULL_CELL,
                            Value::Int(x) => int_cell(*x),
                            Value::Double(x) => double_cell(*x),
                            Value::Str(s) => keys.hash_one(&**s),
                        };
                        fold(h, cell);
                    }
                }
            }
        }
        rows
    }
}

/// Is the cell at (`row`, `col`) of `batch` equal to `value` as `Value`s
/// compare (`Value::cmp`)?  Typed cells compare typed, as `expr`'s
/// column comparisons do, without being materialized.
fn cell_equals(batch: &ColumnarBatch, col: usize, row: usize, value: &Value) -> bool {
    match (batch.column(col).data(), value) {
        (ColumnData::Int(v), Value::Int(x)) => v[row] == *x,
        (ColumnData::Int(v), Value::Double(x)) => cmp_int_double(v[row], *x).is_eq(),
        (ColumnData::Double(v), Value::Int(x)) => cmp_int_double(*x, v[row]).is_eq(),
        (ColumnData::Double(v), Value::Double(x)) => v[row].total_cmp(x).is_eq(),
        (ColumnData::Str(v), Value::Str(x)) => batch.pool().get_shared(v[row]) == x,
        (ColumnData::Values(v), x) => v[row] == *x,
        // A typed cell against a value of another type rank.
        _ => false,
    }
}

/// Are the cells at (`a_row`, `a_col`) of `a` and (`b_row`, `b_col`) of
/// `b` equal as `Value`s?
fn cells_equal(
    (a, a_col, a_row): (&ColumnarBatch, usize, usize),
    (b, b_col, b_row): (&ColumnarBatch, usize, usize),
) -> bool {
    match (a.column(a_col).data(), b.column(b_col).data()) {
        (ColumnData::Int(x), ColumnData::Int(y)) => x[a_row] == y[b_row],
        (ColumnData::Int(x), ColumnData::Double(y)) => cmp_int_double(x[a_row], y[b_row]).is_eq(),
        (ColumnData::Double(x), ColumnData::Int(y)) => cmp_int_double(y[b_row], x[a_row]).is_eq(),
        (ColumnData::Double(x), ColumnData::Double(y)) => x[a_row].total_cmp(&y[b_row]).is_eq(),
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            a.pool().get_shared(x[a_row]) == b.pool().get_shared(y[b_row])
        }
        (ColumnData::Values(x), _) => cell_equals(b, b_col, b_row, &x[a_row]),
        (_, ColumnData::Values(y)) => cell_equals(a, a_col, a_row, &y[b_row]),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Symmetric hash join
// ---------------------------------------------------------------------------

/// One side of the symmetric hash join: buffered rows as a columnar
/// batch, a liveness mask (purges tombstone rather than compact, keeping
/// indexed row numbers stable), and the index: each key hash maps to the
/// first and the last buffered row carrying it, and `next` links every
/// row to the following one with the same hash ([`END`] after the last).
#[derive(Clone, Debug, Default)]
struct JoinSide {
    rows: ColumnarBatch,
    alive: Vec<bool>,
    index: KeyMap<u64, (u32, u32)>,
    next: Vec<u32>,
}

impl JoinSide {
    fn live_rows(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Buffer `batch`, whose rows hash to `hashes`, behind the rows
    /// already here.
    fn insert(&mut self, batch: &ColumnarBatch, hashes: &[u64]) {
        let first = self.rows.len() as u32;
        for (row, hash) in (first..).zip(hashes) {
            self.next.push(END);
            match self.index.entry(*hash) {
                Entry::Occupied(mut chain) => {
                    let last = &mut chain.get_mut().1;
                    self.next[*last as usize] = row;
                    *last = row;
                }
                Entry::Vacant(chain) => {
                    chain.insert((row, row));
                }
            }
        }
        self.rows.append_batch(batch);
        self.alive.resize(self.rows.len(), true);
    }
}

/// State of one pipelined (symmetric) hash join instance.
#[derive(Clone, Debug, Default)]
pub struct JoinState {
    sides: [JoinSide; 2],
    hashes: KeyHashes,
    /// The (probe row, buffered row) pairs of the batch being joined.
    probe: Vec<u32>,
    matched: Vec<u32>,
}

impl JoinState {
    /// Fresh, empty join state.
    pub fn new() -> JoinState {
        JoinState::default()
    }

    /// Number of buffered rows on both sides.
    pub fn len(&self) -> usize {
        self.sides.iter().map(JoinSide::live_rows).sum()
    }

    /// Is the state empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert every row of `batch` into the `input` side (0 = left,
    /// 1 = right) and probe the other side, producing the join output
    /// (left columns then right columns, tagged with the union of the
    /// parents' provenance plus `node`) as one columnar batch.  Rows are
    /// emitted in batch order, each row's matches in build-insertion
    /// order — the order a row-at-a-time loop emits them in — and each
    /// side's cells are gathered a column at a time.
    pub fn process_batch(
        &mut self,
        input: usize,
        batch: &ColumnarBatch,
        left_keys: &[usize],
        right_keys: &[usize],
        node: NodeId,
    ) -> ColumnarBatch {
        let (keys, other_keys) = if input == 0 {
            (left_keys, right_keys)
        } else {
            (right_keys, left_keys)
        };
        let JoinState {
            sides: [left, right],
            hashes,
            probe,
            matched,
        } = self;
        let (own, other) = if input == 0 {
            (left, &*right)
        } else {
            (right, &*left)
        };
        let hashes = hashes.hash(batch, keys);
        probe.clear();
        matched.clear();
        for (row, hash) in (0u32..).zip(hashes) {
            let mut at = other.index.get(hash).map_or(END, |chain| chain.0);
            while at != END {
                let m = at as usize;
                let equal = || {
                    keys.iter()
                        .zip(other_keys)
                        .all(|(k, o)| cells_equal((batch, *k, row as usize), (&other.rows, *o, m)))
                };
                if other.alive[m] && equal() {
                    probe.push(row);
                    matched.push(at);
                }
                at = other.next[m];
            }
        }
        own.insert(batch, hashes);
        if probe.is_empty() {
            return ColumnarBatch::new(0);
        }
        // Left columns, then right.
        let ((first, first_rows), (second, second_rows)) = if input == 0 {
            ((batch, &probe[..]), (&other.rows, &matched[..]))
        } else {
            ((&other.rows, &matched[..]), (batch, &probe[..]))
        };
        let mut out = ColumnarBatch::new(first.arity() + second.arity());
        out.append_cells_at(first, first_rows, 0);
        out.append_cells_at(second, second_rows, first.arity());
        for (r, m) in probe.iter().zip(matched.iter()) {
            let (r, m) = (*r as usize, *m as usize);
            let mut provenance = batch.provenance_at(r).union(&other.rows.provenance_at(m));
            provenance.insert(node);
            out.push_tag_row(
                batch.sign_at(r) * other.rows.sign_at(m),
                provenance,
                batch.phase_at(r).max(other.rows.phase_at(m)),
            );
        }
        out
    }

    /// Drop every buffered row whose provenance intersects `failed`;
    /// returns how many rows were dropped.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let mut dropped = 0;
        for side in &mut self.sides {
            for (i, alive) in side.alive.iter_mut().enumerate() {
                if *alive && side.rows.provenance_at(i).intersects(failed) {
                    *alive = false;
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Running state of one aggregate function for one sub-group.
#[derive(Clone, Debug)]
pub enum Accumulator {
    /// COUNT(*) — number of input rows.
    Count(i64),
    /// SUM(col).
    Sum(Value),
    /// MIN(col).
    Min(Option<Value>),
    /// MAX(col).
    Max(Option<Value>),
    /// AVG(col) carried as (sum, count).
    Avg(Value, i64),
}

impl Accumulator {
    /// A fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum(Value::Null),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg(Value::Null, 0),
        }
    }

    /// Fold one raw input value into the accumulator.
    pub fn update(&mut self, value: &Value) {
        self.update_signed(value, 1);
    }

    /// Is this accumulator *subtractable* — can a retraction be folded by
    /// inverting the contribution of the original insertion?  COUNT, SUM
    /// and AVG are; MIN and MAX are not (removing the current extremum
    /// would require the discarded runners-up).
    pub fn is_subtractable(&self) -> bool {
        !matches!(self, Accumulator::Min(_) | Accumulator::Max(_))
    }

    /// Fold one raw input value with a delta sign: `+1` accumulates as
    /// [`Self::update`], `-1` inverts the contribution.  MIN and MAX
    /// cannot invert one: [`AggState`] refuses a batch that would retract
    /// into them and view maintenance recomputes them instead, so a
    /// retraction reaching them here is a bug.
    pub fn update_signed(&mut self, value: &Value, sign: i64) {
        match self {
            Accumulator::Count(c) => *c += sign,
            Accumulator::Sum(s) => {
                if !value.is_null() {
                    *s = s.add(&signed_value(value, sign));
                }
            }
            Accumulator::Min(m) => {
                debug_assert!(
                    sign > 0,
                    "MIN cannot fold a retraction; callers refuse them"
                );
                if m.as_ref().map(|cur| value < cur).unwrap_or(true) && !value.is_null() {
                    *m = Some(value.clone());
                }
            }
            Accumulator::Max(m) => {
                debug_assert!(
                    sign > 0,
                    "MAX cannot fold a retraction; callers refuse them"
                );
                if m.as_ref().map(|cur| value > cur).unwrap_or(true) && !value.is_null() {
                    *m = Some(value.clone());
                }
            }
            Accumulator::Avg(s, c) => {
                if !value.is_null() {
                    *s = s.add(&signed_value(value, sign));
                    *c += sign;
                }
            }
        }
    }

    /// Merge a *partial state* (as produced by [`Self::partial_values`]) —
    /// the re-aggregation path of a `Final` aggregate.
    pub fn merge_partial(&mut self, state: &[Value]) {
        self.merge_partial_signed(state, 1);
    }

    /// Merge a partial state with a delta sign: `-1` removes the state's
    /// whole contribution (the retraction path of view maintenance).
    pub fn merge_partial_signed(&mut self, state: &[Value], sign: i64) {
        match self {
            Accumulator::Count(c) => *c += sign * state[0].as_int().unwrap_or(0),
            Accumulator::Sum(s) => {
                if !state[0].is_null() {
                    *s = s.add(&signed_value(&state[0], sign));
                }
            }
            Accumulator::Min(m) => {
                debug_assert!(
                    sign > 0,
                    "MIN cannot fold a retraction; callers refuse them"
                );
                if !state[0].is_null() && m.as_ref().map(|cur| &state[0] < cur).unwrap_or(true) {
                    *m = Some(state[0].clone());
                }
            }
            Accumulator::Max(m) => {
                debug_assert!(
                    sign > 0,
                    "MAX cannot fold a retraction; callers refuse them"
                );
                if !state[0].is_null() && m.as_ref().map(|cur| &state[0] > cur).unwrap_or(true) {
                    *m = Some(state[0].clone());
                }
            }
            Accumulator::Avg(s, c) => {
                if !state[0].is_null() {
                    *s = s.add(&signed_value(&state[0], sign));
                }
                *c += sign * state[1].as_int().unwrap_or(0);
            }
        }
    }

    /// The mergeable partial representation of the state.
    pub fn partial_values(&self) -> Vec<Value> {
        match self {
            Accumulator::Count(c) => vec![Value::Int(*c)],
            Accumulator::Sum(s) => vec![s.clone()],
            Accumulator::Min(m) => vec![m.clone().unwrap_or(Value::Null)],
            Accumulator::Max(m) => vec![m.clone().unwrap_or(Value::Null)],
            Accumulator::Avg(s, c) => vec![s.clone(), Value::Int(*c)],
        }
    }

    /// The final scalar result.
    pub fn final_value(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int(*c),
            Accumulator::Sum(s) => s.clone(),
            Accumulator::Min(m) | Accumulator::Max(m) => m.clone().unwrap_or(Value::Null),
            Accumulator::Avg(s, c) => {
                if *c == 0 {
                    Value::Null
                } else {
                    Value::Double(s.as_f64().unwrap_or(0.0) / *c as f64)
                }
            }
        }
    }
}

/// A numeric value scaled by a delta sign (`-1` negates, `+1` is the
/// identity).  `Int(0).sub` keeps integers integer and promotes doubles.
fn signed_value(value: &Value, sign: i64) -> Value {
    if sign >= 0 {
        value.clone()
    } else {
        Value::Int(0).sub(value)
    }
}

/// Which extremum an [`ExtremumSketch`] maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtremumKind {
    /// Track the smallest values (MIN).
    Min,
    /// Track the largest values (MAX).
    Max,
}

/// Default number of distinct runner-up values an [`ExtremumSketch`]
/// retains per group.
pub const EXTREMUM_SKETCH_K: usize = 8;

/// Bounded per-group top-k state that makes MIN/MAX *retractable up to
/// exhaustion*: the `k` best distinct values are tracked exactly (with
/// multiplicities), everything worse is a single overflow count.
///
/// Invariant: every untracked row's value is no better than the worst
/// tracked value (the *boundary*).  Inserts respect it by routing
/// boundary-or-worse values into the overflow count whenever overflow
/// rows exist; deletes of tracked values simply decrement, and deletes
/// of untracked values decrement the overflow count — sound because a
/// value absent from the tracked set can only live on the far side of
/// the boundary.  The extremum is therefore always the best tracked
/// value, exactly — never an approximation — until deletions empty the
/// tracked set while overflow rows remain ([`Self::is_exhausted`]), at
/// which point the discarded runners-up are genuinely unknown and the
/// caller must recompute.  This is the classic bounded-heap fallback
/// that lets delete-heavy MIN/MAX views refresh incrementally instead
/// of recomputing on every retraction.
#[derive(Clone, Debug)]
pub struct ExtremumSketch {
    kind: ExtremumKind,
    k: usize,
    /// Distinct tracked values with multiplicities, best-first for MIN
    /// (the map's natural order) and worst-first for MAX.
    tracked: std::collections::BTreeMap<Value, i64>,
    /// Rows whose values were at-or-beyond the boundary when they
    /// arrived (or were evicted across it).
    untracked: i64,
}

impl ExtremumSketch {
    /// A fresh sketch tracking `k` distinct values (clamped to at least
    /// one).
    pub fn new(kind: ExtremumKind, k: usize) -> ExtremumSketch {
        ExtremumSketch {
            kind,
            k: k.max(1),
            tracked: std::collections::BTreeMap::new(),
            untracked: 0,
        }
    }

    /// Is `a` strictly better than `b` for this extremum?
    fn better(&self, a: &Value, b: &Value) -> bool {
        match self.kind {
            ExtremumKind::Min => a < b,
            ExtremumKind::Max => a > b,
        }
    }

    /// The worst tracked value — the boundary between exact and counted.
    fn boundary(&self) -> Option<&Value> {
        match self.kind {
            ExtremumKind::Min => self.tracked.keys().next_back(),
            ExtremumKind::Max => self.tracked.keys().next(),
        }
    }

    /// Fold one signed raw value.  Nulls never participate in MIN/MAX.
    pub fn update_signed(&mut self, value: &Value, sign: i64) {
        if value.is_null() || sign == 0 {
            return;
        }
        if sign > 0 {
            self.insert(value, sign);
        } else {
            self.delete(value, -sign);
        }
    }

    fn insert(&mut self, value: &Value, count: i64) {
        if let Some(m) = self.tracked.get_mut(value) {
            *m += count;
            return;
        }
        let beats_boundary = self.boundary().is_some_and(|b| self.better(value, b));
        if self.untracked > 0 && !beats_boundary {
            // Overflow rows exist whose rank against `value` is unknown;
            // only strictly-better-than-boundary values may join the
            // tracked set without breaking the invariant.  (In the
            // exhausted state there is no boundary at all, so nothing
            // re-enters until a recompute rebuilds the sketch.)
            self.untracked += count;
            return;
        }
        self.tracked.insert(value.clone(), count);
        while self.tracked.len() > self.k {
            let Some(boundary) = self.boundary().cloned() else {
                break;
            };
            let evicted = self.tracked.remove(&boundary).unwrap_or(0);
            self.untracked += evicted;
        }
    }

    fn delete(&mut self, value: &Value, count: i64) {
        if let Some(m) = self.tracked.get_mut(value) {
            *m -= count;
            if *m <= 0 {
                self.tracked.remove(value);
            }
            return;
        }
        // Not tracked, so it lives beyond the boundary: it is one of the
        // counted overflow rows.
        self.untracked = (self.untracked - count).max(0);
    }

    /// The exact extremum, while the sketch can still prove one: the
    /// best tracked value.  `None` when the group is empty *or*
    /// exhausted — disambiguate with [`Self::is_exhausted`].
    pub fn best(&self) -> Option<&Value> {
        match self.kind {
            ExtremumKind::Min => self.tracked.keys().next(),
            ExtremumKind::Max => self.tracked.keys().next_back(),
        }
    }

    /// Deletions consumed every tracked value but overflow rows remain:
    /// the extremum is among discarded runners-up and only a recompute
    /// can recover it.
    pub fn is_exhausted(&self) -> bool {
        self.tracked.is_empty() && self.untracked > 0
    }

    /// Signed rows currently represented (tracked multiplicities plus
    /// overflow).
    pub fn support(&self) -> i64 {
        self.tracked.values().sum::<i64>() + self.untracked
    }
}

/// One sub-group of an aggregate: the accumulators for a particular
/// `(group key, provenance set, phase)` combination, plus whether it has
/// already been emitted downstream.  Purged sub-groups are tombstoned
/// (`alive = false`), leaving the numbering of the rest as it was.
#[derive(Clone, Debug)]
struct SubGroup {
    key: Vec<Value>,
    provenance: NodeSet,
    phase: Phase,
    accumulators: Vec<Accumulator>,
    emitted: bool,
    alive: bool,
    /// The sub-group created before this one under the same index entry
    /// — a key that differs but hashes alike — or [`END`].
    next: u32,
}

/// State of one aggregation operator instance.
#[derive(Clone, Debug, Default)]
pub struct AggState {
    /// (key hash, provenance, phase) → the last sub-group created under
    /// it.
    index: KeyMap<(u64, NodeSet, Phase), u32>,
    subgroups: Vec<SubGroup>,
    hashes: KeyHashes,
    /// The sub-group of each row of the batch being folded.
    groups: Vec<u32>,
}

/// `*sum = sum.add(&signed_value(&Value::Int(x), sign))` without building
/// either `Value`: the `Null` start takes the term, `Int + Int` stays an
/// `Int` (plain `+`), and a retraction is `0 - x`, as `Int(0).sub` has it.
fn add_signed_int(sum: &mut Value, x: i64, sign: i64) {
    let x = if sign >= 0 { x } else { 0 - x };
    *sum = match *sum {
        Value::Null => Value::Int(x),
        Value::Int(a) => Value::Int(a + x),
        Value::Double(a) => Value::Double(a + x as f64),
        Value::Str(_) => Value::Null,
    };
}

/// [`add_signed_int`] for a double: a retraction is `0.0 - x`, as
/// `Int(0).sub` has it, and any sum becomes a `Double`.
fn add_signed_double(sum: &mut Value, x: f64, sign: i64) {
    let x = if sign >= 0 { x } else { 0.0 - x };
    *sum = match *sum {
        Value::Null => Value::Double(x),
        Value::Int(a) => Value::Double(a as f64 + x),
        Value::Double(a) => Value::Double(a + x),
        Value::Str(_) => Value::Null,
    };
}

/// `Value::as_int` of a cell, or 0: how a partial state's count is read.
fn int_or_zero(cells: &ColumnData, row: usize) -> i64 {
    match cells {
        ColumnData::Int(v) => v[row],
        ColumnData::Values(v) => v[row].as_int().unwrap_or(0),
        ColumnData::Double(_) | ColumnData::Str(_) => 0,
    }
}

/// The `j`-th accumulator of each row's sub-group, for one aggregate's
/// fold over a batch.
struct RowAccumulators<'a> {
    subgroups: &'a mut [SubGroup],
    groups: &'a [u32],
    signs: &'a [i8],
    j: usize,
}

impl RowAccumulators<'_> {
    /// Call `fold` with each row's accumulator, the row and its sign, in
    /// row order.
    fn each(self, mut fold: impl FnMut(&mut Accumulator, usize, i64)) {
        for (row, (g, sign)) in self.groups.iter().zip(self.signs).enumerate() {
            fold(
                &mut self.subgroups[*g as usize].accumulators[self.j],
                row,
                i64::from(*sign),
            );
        }
    }

    /// SUM or AVG over numeric cells: `add` folds a row's cell into the
    /// running sum, and AVG counts the row — one, or the count cell of
    /// its partial state in `counts`.
    fn sums(self, counts: Option<&ColumnData>, add: impl Fn(&mut Value, usize, i64)) {
        self.each(|acc, row, sign| {
            if let Accumulator::Sum(sum) | Accumulator::Avg(sum, _) = acc {
                add(sum, row, sign);
            }
            if let Accumulator::Avg(_, count) = acc {
                *count += counts.map_or(sign, |cells| sign * int_or_zero(cells, row));
            }
        })
    }
}

impl AggState {
    /// Fresh, empty aggregation state.
    pub fn new() -> AggState {
        AggState::default()
    }

    /// Number of sub-groups currently held.
    pub fn subgroup_count(&self) -> usize {
        self.subgroups.iter().filter(|g| g.alive).count()
    }

    /// Fold a whole columnar batch of raw input rows (modes `Single` and
    /// `Partial`) in order, honouring each row's delta sign — a
    /// retraction inverts its contribution.  A batch that would retract
    /// into a MIN or MAX is refused with an `Execution` error and leaves
    /// the state as it was.
    pub fn update_raw_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
    ) -> Result<()> {
        self.update_batch(batch, group_by, aggs, false)
    }

    /// Fold a whole columnar batch of partial-state rows (mode `Final`):
    /// `aggs[i].1` is the column at which the i-th aggregate's partial
    /// state begins.  Retractions into MIN or MAX are refused as by
    /// [`Self::update_raw_batch`].
    pub fn update_partial_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
    ) -> Result<()> {
        self.update_batch(batch, group_by, aggs, true)
    }

    fn update_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        partial: bool,
    ) -> Result<()> {
        if let Some((func, _)) = aggs
            .iter()
            .find(|(f, _)| !Accumulator::new(*f).is_subtractable())
        {
            if batch.sign_column().iter().any(|s| *s < 0) {
                return Err(OrchestraError::Execution(format!(
                    "{func:?} cannot fold a retraction; a maintenance plan must recompute it"
                )));
            }
        }
        self.resolve(batch, group_by, aggs);
        for (j, (func, col)) in aggs.iter().enumerate() {
            self.fold(j, *func, batch, *col, partial);
        }
        Ok(())
    }

    /// Resolve every row of `batch` to its sub-group (into
    /// `self.groups`), creating the sub-groups it lacks in the order
    /// their first rows come.
    fn resolve(&mut self, batch: &ColumnarBatch, group_by: &[usize], aggs: &[(AggFunc, usize)]) {
        let AggState {
            index,
            subgroups,
            hashes,
            groups,
        } = self;
        groups.clear();
        for (row, hash) in hashes.hash(batch, group_by).iter().enumerate() {
            let (provenance, phase) = (batch.provenance_at(row), batch.phase_at(row));
            let head = index.entry((*hash, provenance, phase)).or_insert(END);
            let mut at = *head;
            while at != END {
                let group = &subgroups[at as usize];
                let same = group
                    .key
                    .iter()
                    .zip(group_by)
                    .all(|(v, c)| cell_equals(batch, *c, row, v));
                if same {
                    break;
                }
                at = group.next;
            }
            if at == END {
                at = subgroups.len() as u32;
                subgroups.push(SubGroup {
                    key: group_by.iter().map(|c| batch.value_at(row, *c)).collect(),
                    provenance,
                    phase,
                    accumulators: aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect(),
                    emitted: false,
                    alive: true,
                    next: *head,
                });
                *head = at;
            }
            groups.push(at);
        }
    }

    /// Fold column `col` of `batch` — in `Final` mode the first column of
    /// the aggregate's partial state — into the `j`-th accumulator of
    /// every row's sub-group, in row order.  SUM, COUNT and AVG over
    /// `Int` and `Double` cells take typed loops that compute what
    /// [`Accumulator::update_signed`] and
    /// [`Accumulator::merge_partial_signed`] would, bit for bit;
    /// everything else goes through them.
    fn fold(&mut self, j: usize, func: AggFunc, batch: &ColumnarBatch, col: usize, partial: bool) {
        let rows = RowAccumulators {
            subgroups: &mut self.subgroups,
            groups: &self.groups,
            signs: batch.sign_column(),
            j,
        };
        let cells = batch.column(col).data();
        // AVG's count: one per raw row, a partial state's count cell.
        let counts = (partial && func == AggFunc::Avg).then(|| batch.column(col + 1).data());
        match (func, cells) {
            (AggFunc::Count, _) => rows.each(|acc, row, sign| {
                if let Accumulator::Count(c) = acc {
                    *c += if partial {
                        sign * int_or_zero(cells, row)
                    } else {
                        sign
                    };
                }
            }),
            (AggFunc::Sum | AggFunc::Avg, ColumnData::Int(v)) => {
                rows.sums(counts, |sum, row, sign| add_signed_int(sum, v[row], sign))
            }
            (AggFunc::Sum | AggFunc::Avg, ColumnData::Double(v)) => rows
                .sums(counts, |sum, row, sign| {
                    add_signed_double(sum, v[row], sign)
                }),
            _ => rows.each(|acc, row, sign| {
                if partial {
                    let width = func.partial_width();
                    let state = [
                        batch.value_at(row, col),
                        if width > 1 {
                            batch.value_at(row, col + 1)
                        } else {
                            Value::Null
                        },
                    ];
                    acc.merge_partial_signed(&state[..width], sign);
                } else {
                    acc.update_signed(&batch.value_at(row, col), sign);
                }
            }),
        }
    }

    /// Drop every sub-group whose provenance intersects `failed`; returns
    /// the number of sub-groups dropped.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        // The sub-groups under one index entry share its provenance, so
        // an entry goes with its sub-groups.
        self.index
            .retain(|(_, provenance, _), _| !provenance.intersects(failed));
        let mut dropped = 0;
        for group in &mut self.subgroups {
            if group.alive && group.provenance.intersects(failed) {
                group.alive = false;
                dropped += 1;
            }
        }
        dropped
    }

    /// Emit every sub-group that has not been emitted yet, marking it
    /// emitted.  `partial` selects between the mergeable partial layout
    /// and the final scalar layout.  Output rows are tagged with the
    /// sub-group's provenance plus `node`, at `phase`.
    pub fn emit_unemitted(&mut self, partial: bool, node: NodeId, phase: Phase) -> ColumnarBatch {
        let mut order: Vec<usize> = (0..self.subgroups.len())
            .filter(|&i| {
                let g = &self.subgroups[i];
                g.alive && !g.emitted
            })
            .collect();
        // Deterministic emission order (group key, then phase; the stable
        // sort keeps insertion order among ties).
        order.sort_by(|&a, &b| {
            let (ga, gb) = (&self.subgroups[a], &self.subgroups[b]);
            ga.key.cmp(&gb.key).then_with(|| ga.phase.cmp(&gb.phase))
        });
        let mut out = ColumnarBatch::new(0);
        for i in order {
            let group = &mut self.subgroups[i];
            group.emitted = true;
            let mut values = group.key.clone();
            for acc in &group.accumulators {
                if partial {
                    values.extend(acc.partial_values());
                } else {
                    values.push(acc.final_value());
                }
            }
            let mut provenance = group.provenance;
            provenance.insert(node);
            out.pad_to_arity(values.len());
            // Emitted states are assertions: any retractions the
            // sub-group absorbed are already folded into its values.
            out.push_row_owned(values, 1, provenance, phase);
        }
        out
    }

    /// Merge-and-finalise: collapse all sub-groups (regardless of
    /// provenance/phase) by group key and return final values.  This is
    /// the executor's query-completion path for the top-level
    /// `Single`/`Final` aggregate — it runs exactly once, when the
    /// initiator's `Output` segment closes, merging the per-provenance
    /// sub-groups into the duplicate-free answer.  Unit tests also use it
    /// to validate accumulator algebra directly.  Sub-groups merge in
    /// insertion order, keeping floating-point folds deterministic.
    pub fn collapsed_final(&self, aggs: &[(AggFunc, usize)]) -> Vec<Tuple> {
        let mut merged: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for group in self.subgroups.iter().filter(|g| g.alive) {
            let accs = merged
                .entry(group.key.clone())
                .or_insert_with(|| aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect());
            for (i, acc) in group.accumulators.iter().enumerate() {
                accs[i].merge_partial(&acc.partial_values());
            }
        }
        let mut out: Vec<Tuple> = merged
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.iter().map(Accumulator::final_value));
                Tuple::new(key)
            })
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// Rehash / Ship buffering and output caching
// ---------------------------------------------------------------------------

/// State of one `Rehash` or `Ship` operator instance: the per-destination
/// output buffers awaiting a full batch, and (when recovery support is
/// enabled) the cache of everything sent, used to re-create data that had
/// been sent to a failed node.  Buffers live as [`ColumnarBatch`]es, so
/// the wire size of a flushed batch is read off the columns' cached
/// dictionary accounting rather than recomputed from its rows.
///
/// The cache holds, per destination, the batches flushed to it, in flush
/// order — each the very allocation its wire payload carries
/// (`Rc<ColumnarBatch>`), so a sent row is held once, not copied into the
/// cache beside its payload.  Invariant: a destination's cache entries
/// followed by its pending buffer are every row buffered for it, in the
/// order it was buffered (less what purges dropped and stage 4 took).
#[derive(Clone, Debug, Default)]
pub struct RehashState {
    buffers: HashMap<NodeId, ColumnarBatch>,
    cache: HashMap<NodeId, Vec<Rc<ColumnarBatch>>>,
    cache_enabled: bool,
}

impl RehashState {
    /// Fresh state; `cache_enabled` mirrors the engine's recovery-support
    /// switch.
    pub fn new(cache_enabled: bool) -> RehashState {
        RehashState {
            cache_enabled,
            ..RehashState::default()
        }
    }

    /// Buffer the rows of `src` numbered in `rows` (ascending) for `dest`,
    /// column by column, in chunks cut wherever the pending buffer reaches
    /// `flush_at` rows.  Every buffer so filled is flushed — cached, and
    /// returned for sending, in order, with the number of the source row
    /// that filled it; what is left stays pending.
    pub(crate) fn buffer_rows(
        &mut self,
        dest: NodeId,
        src: &ColumnarBatch,
        rows: &[u32],
        flush_at: usize,
    ) -> Vec<(u32, Rc<ColumnarBatch>)> {
        let mut filled = Vec::new();
        let mut rest = rows;
        while !rest.is_empty() {
            let buf = self.buffers.entry(dest).or_default();
            // A buffer is flushed by the row that brings it to `flush_at`
            // (the first one, should it already be there).
            let room = flush_at.saturating_sub(buf.len()).max(1);
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            buf.append_rows(src, chunk);
            if buf.len() >= flush_at {
                filled.push((chunk[chunk.len() - 1], self.flush(dest)));
            }
            rest = tail;
        }
        filled
    }

    /// Take the pending buffer for `dest` as a batch to send, recording
    /// it in the cache as sent.
    fn flush(&mut self, dest: NodeId) -> Rc<ColumnarBatch> {
        let batch = Rc::new(self.buffers.remove(&dest).unwrap_or_default());
        if self.cache_enabled {
            self.cache.entry(dest).or_default().push(Rc::clone(&batch));
        }
        batch
    }

    /// Destinations that currently have pending rows.
    pub fn pending_destinations(&self) -> Vec<NodeId> {
        let mut dests: Vec<NodeId> = self
            .buffers
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(d, _)| *d)
            .collect();
        dests.sort_unstable();
        dests
    }

    /// Flush every pending buffer (the end of a segment): the batches to
    /// send, in destination order, each cached as sent.
    pub fn flush_pending(&mut self) -> Vec<(NodeId, Rc<ColumnarBatch>)> {
        let dests = self.pending_destinations();
        dests.into_iter().map(|d| (d, self.flush(d))).collect()
    }

    /// Recovery stage 2 for the pending buffers bound for `failed` nodes:
    /// they must not be sent there, so each moves into the cache unsent,
    /// behind the batches that were, and stage 4 re-routes its rows with
    /// theirs.
    pub fn cache_pending_for(&mut self, failed: &NodeSet) {
        for dest in self.pending_destinations() {
            if failed.contains(dest) {
                self.flush(dest);
            }
        }
    }

    /// Remove and return the untainted rows cached as having been sent to
    /// `dest`, in the order they were — exactly the rows recovery stage 4
    /// must re-transmit; tainted rows for `dest` stay cached until
    /// purged.  The returned entries are *consumed*: re-buffering
    /// re-caches each row under its new destination, and a later recovery
    /// round must not find (and duplicate) the stale entries still keyed
    /// to the failed node, so no non-consuming variant is offered.
    pub fn take_cached_batch_for(&mut self, dest: NodeId, failed: &NodeSet) -> ColumnarBatch {
        let mut out = ColumnarBatch::new(0);
        let mut tainted = ColumnarBatch::new(0);
        for batch in self.cache.remove(&dest).unwrap_or_default() {
            let (clean_rows, tainted_rows): (Vec<u32>, Vec<u32>) = (0..batch.len() as u32)
                .partition(|r| !batch.provenance_at(*r as usize).intersects(failed));
            out.append_rows(&batch, &clean_rows);
            tainted.append_rows(&batch, &tainted_rows);
        }
        if !tainted.is_empty() {
            self.cache.insert(dest, vec![Rc::new(tainted)]);
        }
        out
    }

    /// Drop tainted rows from the cache and from the pending buffers;
    /// returns how many rows were dropped.  A row is in one or the other,
    /// never both, so the two counts add up.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let mut dropped = 0;
        for batches in self.cache.values_mut() {
            dropped += purge_shared(batches, failed);
            batches.retain(|b| !b.is_empty());
        }
        self.cache.retain(|_, batches| !batches.is_empty());
        for batch in self.buffers.values_mut() {
            dropped += purge_batch(batch, failed);
        }
        self.buffers.retain(|_, b| !b.is_empty());
        dropped
    }

    /// Number of rows currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.values().flatten().map(|b| b.len()).sum()
    }
}

/// Drop the rows tainted by `failed` from `batches`, one batch at a time;
/// returns how many.  A clean batch is left alone; a tainted one still
/// shared — a sent batch is also the payload in flight and, delivered to
/// `Output`, the answer — is copied before it is cut.
pub(crate) fn purge_shared(batches: &mut [Rc<ColumnarBatch>], failed: &NodeSet) -> usize {
    batches
        .iter_mut()
        .filter(|batch| {
            batch
                .provenance_column()
                .iter()
                .any(|p| p.intersects(failed))
        })
        .map(|batch| purge_batch(Rc::make_mut(batch), failed))
        .sum()
}

/// Drop `batch`'s rows tainted by `failed`; returns how many.
fn purge_batch(batch: &mut ColumnarBatch, failed: &NodeSet) -> usize {
    let keep: Vec<bool> = batch
        .provenance_column()
        .iter()
        .map(|p| !p.intersects(failed))
        .collect();
    let before = batch.len();
    batch.retain(&keep);
    before - batch.len()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use orchestra_common::Value;

    /// `vals` as a one-row batch carrying the given tags, so a test can
    /// drive the batch entry points one row at a time.
    fn one_tagged(vals: Vec<Value>, node: u16, sign: i8, phase: Phase) -> ColumnarBatch {
        let mut batch = ColumnarBatch::new(vals.len());
        batch.push_row_owned(vals, sign, NodeSet::singleton(NodeId(node)), phase);
        batch
    }

    /// [`one_tagged`] as a scan at `node` emits it: `+1`, phase 0.
    fn one(vals: Vec<Value>, node: u16) -> ColumnarBatch {
        one_tagged(vals, node, 1, 0)
    }

    /// Integers and doubles at the edges of exactness (±2^53, ±2^63), with
    /// NaNs, both zeros and a fraction.
    pub(crate) fn edge_numbers() -> (Vec<i64>, Vec<f64>) {
        let p53 = 1i64 << 53;
        let mut ints = vec![0, 1, -1, i64::MAX, i64::MIN];
        for base in [p53, -p53] {
            ints.extend([base - 1, base, base + 1, base + 2]);
        }
        let (f53, f63) = (p53 as f64, 9_223_372_036_854_775_808.0);
        let doubles = vec![
            0.0,
            -0.0,
            0.5,
            1.0,
            f53,
            f53 + 2.0,
            -f53,
            -f53 - 2.0,
            f63,
            -f63,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        (ints, doubles)
    }

    #[test]
    fn typed_int_and_double_cells_compare_as_values_do() {
        let (ints, doubles) = edge_numbers();
        let mut batch = ColumnarBatch::new(2);
        for &i in &ints {
            for &d in &doubles {
                batch.push_row_owned(
                    vec![Value::Int(i), Value::Double(d)],
                    1,
                    NodeSet::empty(),
                    0,
                );
            }
        }
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(1).data(), ColumnData::Double(_)));
        for row in 0..batch.len() {
            let (i, d) = (batch.value_at(row, 0), batch.value_at(row, 1));
            assert_eq!(
                cells_equal((&batch, 0, row), (&batch, 1, row)),
                i == d,
                "{i:?} {d:?}"
            );
            assert_eq!(
                cells_equal((&batch, 1, row), (&batch, 0, row)),
                i == d,
                "{d:?} {i:?}"
            );
            assert_eq!(
                cell_equals(&batch, 0, row, &d),
                i == d,
                "{i:?} against {d:?}"
            );
            assert_eq!(
                cell_equals(&batch, 1, row, &i),
                i == d,
                "{d:?} against {i:?}"
            );
        }
    }

    /// Buffer the whole of `batch` for `dest` with the executor's flush
    /// size out of reach; returns the pending length afterwards.
    fn buffer_all(r: &mut RehashState, dest: NodeId, batch: &ColumnarBatch) -> usize {
        let all: Vec<u32> = (0..batch.len() as u32).collect();
        assert!(r.buffer_rows(dest, batch, &all, usize::MAX).is_empty());
        r.buffers.get(&dest).map_or(0, ColumnarBatch::len)
    }

    /// Every row of `batch` with its tags, for whole-batch comparisons.
    fn rows_of(batch: &ColumnarBatch) -> Vec<(Tuple, i8, NodeSet, Phase)> {
        (0..batch.len())
            .map(|r| {
                (
                    batch.tuple_at(r),
                    batch.sign_at(r),
                    batch.provenance_at(r),
                    batch.phase_at(r),
                )
            })
            .collect()
    }

    #[test]
    fn symmetric_join_finds_matches_in_either_arrival_order() {
        let mut j = JoinState::new();
        let node = NodeId(9);
        // Left arrives first: no match yet.
        let out = j.process_batch(
            0,
            &one(vec![Value::Int(1), Value::str("a")], 0),
            &[0],
            &[0],
            node,
        );
        assert!(out.is_empty());
        // Matching right arrives: one result.
        let out = j.process_batch(
            1,
            &one(vec![Value::Int(1), Value::str("x")], 1),
            &[0],
            &[0],
            node,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.tuple_at(0).values(),
            &[
                Value::Int(1),
                Value::str("a"),
                Value::Int(1),
                Value::str("x")
            ]
        );
        assert!(out.provenance_at(0).contains(NodeId(0)));
        assert!(out.provenance_at(0).contains(NodeId(1)));
        assert!(out.provenance_at(0).contains(node));
        // A second left with the same key joins against the stored right.
        let out = j.process_batch(
            0,
            &one(vec![Value::Int(1), Value::str("b")], 2),
            &[0],
            &[0],
            node,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn join_purge_drops_only_tainted_rows() {
        let mut j = JoinState::new();
        let node = NodeId(9);
        j.process_batch(0, &one(vec![Value::Int(1)], 0), &[0], &[0], node);
        j.process_batch(0, &one(vec![Value::Int(2)], 5), &[0], &[0], node);
        j.process_batch(1, &one(vec![Value::Int(3)], 5), &[0], &[0], node);
        let dropped = j.purge_tainted(&NodeSet::singleton(NodeId(5)));
        assert_eq!(dropped, 2);
        assert_eq!(j.len(), 1);
        assert!(!j.is_empty());
    }

    #[test]
    fn purged_join_rows_never_match_again() {
        // Tombstoned rows must be invisible to later probes.
        let mut j = JoinState::new();
        let node = NodeId(9);
        j.process_batch(
            0,
            &one(vec![Value::Int(1), Value::str("dead")], 5),
            &[0],
            &[0],
            node,
        );
        j.process_batch(
            0,
            &one(vec![Value::Int(1), Value::str("live")], 0),
            &[0],
            &[0],
            node,
        );
        j.purge_tainted(&NodeSet::singleton(NodeId(5)));
        let out = j.process_batch(1, &one(vec![Value::Int(1)], 1), &[0], &[0], node);
        assert_eq!(out.len(), 1);
        assert_eq!(out.value_at(0, 1), Value::str("live"));
    }

    #[test]
    fn accumulators_compute_sql_semantics() {
        let mut count = Accumulator::new(AggFunc::Count);
        let mut sum = Accumulator::new(AggFunc::Sum);
        let mut min = Accumulator::new(AggFunc::Min);
        let mut max = Accumulator::new(AggFunc::Max);
        let mut avg = Accumulator::new(AggFunc::Avg);
        for v in [3i64, 1, 4, 1, 5] {
            let val = Value::Int(v);
            count.update(&val);
            sum.update(&val);
            min.update(&val);
            max.update(&val);
            avg.update(&val);
        }
        assert_eq!(count.final_value(), Value::Int(5));
        assert_eq!(sum.final_value(), Value::Int(14));
        assert_eq!(min.final_value(), Value::Int(1));
        assert_eq!(max.final_value(), Value::Int(5));
        assert_eq!(avg.final_value(), Value::Double(2.8));
    }

    #[test]
    fn partial_then_merge_equals_direct_aggregation() {
        // Split the input across two partial accumulators, merge, compare
        // against a single accumulator over the whole input.
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let input: Vec<i64> = vec![10, -3, 7, 7, 0, 42];
            let mut direct = Accumulator::new(func);
            for v in &input {
                direct.update(&Value::Int(*v));
            }
            let mut p1 = Accumulator::new(func);
            let mut p2 = Accumulator::new(func);
            for (i, v) in input.iter().enumerate() {
                if i % 2 == 0 {
                    p1.update(&Value::Int(*v));
                } else {
                    p2.update(&Value::Int(*v));
                }
            }
            let mut merged = Accumulator::new(func);
            merged.merge_partial(&p1.partial_values());
            merged.merge_partial(&p2.partial_values());
            assert_eq!(merged.final_value(), direct.final_value(), "{func:?}");
        }
    }

    #[test]
    fn signed_updates_invert_insertions_exactly() {
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            let mut acc = Accumulator::new(func);
            assert!(acc.is_subtractable());
            for v in [10i64, -3, 7] {
                acc.update(&Value::Int(v));
            }
            let snapshot = acc.partial_values();
            // Fold three more rows in, then retract them: the state must
            // return to the snapshot.
            for v in [5i64, 5, 20] {
                acc.update_signed(&Value::Int(v), 1);
            }
            for v in [5i64, 5, 20] {
                acc.update_signed(&Value::Int(v), -1);
            }
            assert_eq!(acc.partial_values(), snapshot, "{func:?}");
            // Retracting a whole partial state works the same way.
            let mut other = Accumulator::new(func);
            other.update(&Value::Int(100));
            acc.merge_partial_signed(&other.partial_values(), 1);
            acc.merge_partial_signed(&other.partial_values(), -1);
            assert_eq!(acc.partial_values(), snapshot, "{func:?}");
        }
        assert!(!Accumulator::new(AggFunc::Min).is_subtractable());
        assert!(!Accumulator::new(AggFunc::Max).is_subtractable());
    }

    #[test]
    fn min_rejects_retractions() {
        // A batch that retracts into a MIN (raw rows) or a MAX (partial
        // states) is refused whole, and the state is left as it was.
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Min, 1)];
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(3)], 0), &[0], &aggs)
            .unwrap();
        let mut retracting = one(vec![Value::str("h"), Value::Int(5)], 0);
        retracting.append_batch(&one_tagged(vec![Value::str("g"), Value::Int(3)], 0, -1, 0));
        let err = agg.update_raw_batch(&retracting, &[0], &aggs).unwrap_err();
        assert!(
            matches!(&err, OrchestraError::Execution(m) if m.contains("Min cannot fold a retraction")),
            "{err}"
        );
        let partial = [(AggFunc::Max, 1)];
        assert!(agg
            .update_partial_batch(&retracting, &[0], &partial)
            .is_err());
        assert_eq!(agg.subgroup_count(), 1);
        assert_eq!(
            agg.collapsed_final(&aggs),
            vec![Tuple::new(vec![
                Value::str("g"),
                Value::Int(3),
                Value::Int(3)
            ])]
        );
    }

    #[test]
    fn agg_state_folds_row_signs() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Count, 1)];
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(10)], 0), &[0], &aggs)
            .unwrap();
        agg.update_raw_batch(
            &one_tagged(vec![Value::str("g"), Value::Int(4)], 0, -1, 0),
            &[0],
            &aggs,
        )
        .unwrap();
        let rows = agg.collapsed_final(&aggs);
        assert_eq!(
            rows[0].values(),
            &[Value::str("g"), Value::Int(6), Value::Int(0)]
        );
    }

    #[test]
    fn agg_state_subgroups_by_provenance_and_emission_is_once() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1)];
        // Two rows in the same group but with different provenance → two
        // sub-groups.
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(10)], 0), &[0], &aggs)
            .unwrap();
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(5)], 1), &[0], &aggs)
            .unwrap();
        assert_eq!(agg.subgroup_count(), 2);
        let emitted = agg.emit_unemitted(true, NodeId(7), 0);
        assert_eq!(emitted.len(), 2);
        // Nothing new to emit on a second close.
        assert!(agg.emit_unemitted(true, NodeId(7), 0).is_empty());
        // New input after emission creates a fresh sub-group (new phase)
        // and only that one is emitted next time.
        let late = one_tagged(vec![Value::str("g"), Value::Int(1)], 2, 1, 1);
        agg.update_raw_batch(&late, &[0], &aggs).unwrap();
        let emitted = agg.emit_unemitted(true, NodeId(7), 1);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted.phase_at(0), 1);
    }

    #[test]
    fn emission_orders_by_key_then_phase_and_tags_with_the_emitter() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Avg, 1)];
        let row = |g: &str, v: i64| vec![Value::str(g), Value::Int(v)];
        for batch in [
            one(row("b", 10), 0),
            one(row("a", 4), 1),
            one(row("a", 6), 3),
            // A second phase, whose retraction folds into its sub-group.
            one_tagged(row("a", 1), 1, 1, 1),
            one_tagged(row("a", 2), 1, -1, 1),
        ] {
            agg.update_raw_batch(&batch, &[0], &aggs).unwrap();
        }
        assert_eq!(agg.purge_tainted(&NodeSet::singleton(NodeId(3))), 1);
        // Group key first, then phase; the purged sub-group is absent;
        // every row is an assertion at the emission phase, tagged with
        // its sub-group's provenance plus the emitting node.
        let emitted = agg.emit_unemitted(true, NodeId(7), 1);
        let tags = |n: u16| [NodeId(n), NodeId(7)].into_iter().collect::<NodeSet>();
        let partial = |g: &str, sum: i64, count: i64| {
            Tuple::new(vec![
                Value::str(g),
                Value::Int(sum),
                Value::Int(sum),
                Value::Int(count),
            ])
        };
        assert_eq!(
            rows_of(&emitted),
            vec![
                (partial("a", 4, 1), 1, tags(1), 1),
                (partial("a", -1, 0), 1, tags(1), 1),
                (partial("b", 10, 1), 1, tags(0), 1),
            ]
        );
        assert!(agg.emit_unemitted(true, NodeId(7), 1).is_empty());
    }

    #[test]
    fn agg_purge_drops_tainted_subgroups() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Count, 0)];
        agg.update_raw_batch(&one(vec![Value::str("a")], 0), &[0], &aggs)
            .unwrap();
        agg.update_raw_batch(&one(vec![Value::str("b")], 3), &[0], &aggs)
            .unwrap();
        assert_eq!(agg.purge_tainted(&NodeSet::singleton(NodeId(3))), 1);
        assert_eq!(agg.subgroup_count(), 1);
    }

    #[test]
    fn collapsed_final_merges_across_subgroups() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Count, 1)];
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(10)], 0), &[0], &aggs)
            .unwrap();
        agg.update_raw_batch(&one(vec![Value::str("g"), Value::Int(5)], 1), &[0], &aggs)
            .unwrap();
        agg.update_raw_batch(&one(vec![Value::str("h"), Value::Int(2)], 1), &[0], &aggs)
            .unwrap();
        let rows = agg.collapsed_final(&aggs);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].values(),
            &[Value::str("g"), Value::Int(15), Value::Int(2)]
        );
        assert_eq!(
            rows[1].values(),
            &[Value::str("h"), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn agg_typed_and_untyped_group_columns_fold_alike() {
        // The same mixed-sign, mixed-provenance rows folded from typed
        // group columns and from group columns demoted to
        // `ColumnData::Values` must hash alike and land in exactly the
        // same sub-groups.
        let aggs = [(AggFunc::Sum, 2), (AggFunc::Avg, 2), (AggFunc::Count, 0)];
        // (cells, sign, scanning node) per row.
        let rows: Vec<(Vec<Value>, i8, NodeSet)> = (0..40)
            .map(|i| {
                (
                    vec![
                        Value::str(if i % 2 == 0 { "A" } else { "B" }),
                        Value::Int(i % 3),
                        Value::Double(i as f64 * 0.5),
                    ],
                    if i % 7 == 0 { -1 } else { 1 },
                    NodeSet::singleton(NodeId((i % 4) as u16)),
                )
            })
            .collect();
        let mut fast = AggState::new();
        let mut fallback = AggState::new();
        for chunk in rows.chunks(16) {
            let mut typed = ColumnarBatch::new(3);
            // A leading NULL row demotes the group columns; dropping it
            // again leaves the same rows in untyped cells.
            let mut untyped = ColumnarBatch::new(3);
            untyped.push_row(
                &[Value::Null, Value::Null, Value::Null],
                1,
                NodeSet::empty(),
                0,
            );
            for (cells, sign, provenance) in chunk {
                typed.push_row(cells, *sign, *provenance, 0);
                untyped.push_row(cells, *sign, *provenance, 0);
            }
            let keep: Vec<bool> = (0..untyped.len()).map(|i| i > 0).collect();
            untyped.retain(&keep);
            for c in [0, 1] {
                assert!(!matches!(typed.column(c).data(), ColumnData::Values(_)));
                assert!(matches!(untyped.column(c).data(), ColumnData::Values(_)));
            }
            fast.update_raw_batch(&typed, &[0, 1], &aggs).unwrap();
            fallback.update_raw_batch(&untyped, &[0, 1], &aggs).unwrap();
        }
        assert_eq!(fast.subgroup_count(), fallback.subgroup_count());
        assert_eq!(fast.collapsed_final(&aggs), fallback.collapsed_final(&aggs));
        assert_eq!(
            rows_of(&fast.emit_unemitted(true, NodeId(7), 0)),
            rows_of(&fallback.emit_unemitted(true, NodeId(7), 0))
        );
    }

    /// The sizes of the batches `flush_pending` sends, by destination.
    fn flush_sizes(r: &mut RehashState) -> Vec<(NodeId, usize)> {
        r.flush_pending()
            .iter()
            .map(|(dest, batch)| (*dest, batch.len()))
            .collect()
    }

    #[test]
    fn rehash_buffers_and_cache() {
        let mut r = RehashState::new(true);
        for i in 0..5 {
            let len = buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(i)], 0));
            assert_eq!(len, i as usize + 1);
        }
        buffer_all(&mut r, NodeId(2), &one(vec![Value::Int(99)], 3));
        assert_eq!(r.pending_destinations(), vec![NodeId(1), NodeId(2)]);
        // A row is cached when it is sent, not while it waits.
        assert_eq!(r.cache_len(), 0);
        assert_eq!(flush_sizes(&mut r), vec![(NodeId(1), 5), (NodeId(2), 1)]);
        assert!(r.flush_pending().is_empty());
        assert_eq!(r.cache_len(), 6);

        // Stage-4 retransmission: cached rows for a failed destination,
        // excluding tainted ones.
        let failed = NodeSet::singleton(NodeId(3));
        let resend = r.take_cached_batch_for(NodeId(2), &failed);
        assert!(resend.is_empty(), "row destined to n2 is itself tainted");
        let resend = r.take_cached_batch_for(NodeId(1), &failed);
        assert_eq!(resend.len(), 5);
        // The consumed entries are gone; the tainted n2 row remains until
        // purged.
        assert_eq!(r.cache_len(), 1);
        assert_eq!(r.purge_tainted(&failed), 1);
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn rehash_without_cache_keeps_nothing() {
        let mut r = RehashState::new(false);
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(1)], 0));
        assert_eq!(flush_sizes(&mut r), vec![(NodeId(1), 1)]);
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn take_cached_batch_for_consumes_entries() {
        // Regression: retransmission must consume the cache entries keyed
        // to the failed destination, or a second recovery round would
        // re-send (and duplicate) them.
        let mut r = RehashState::new(true);
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(1)], 0));
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(2)], 5));
        buffer_all(&mut r, NodeId(2), &one(vec![Value::Int(3)], 0));
        r.flush_pending();
        // Sent in two batches, taken as one.
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(4)], 0));
        r.flush_pending();
        let failed = NodeSet::singleton(NodeId(5));
        let taken = r.take_cached_batch_for(NodeId(1), &failed);
        assert_eq!(
            rows_of(&taken)
                .iter()
                .map(|(t, ..)| t.clone())
                .collect::<Vec<_>>(),
            vec![
                Tuple::new(vec![Value::Int(1)]),
                Tuple::new(vec![Value::Int(4)])
            ],
            "the untainted rows for n1, in the order they were sent"
        );
        // A second call finds nothing left for that destination.
        assert!(r.take_cached_batch_for(NodeId(1), &failed).is_empty());
        // Entries for other destinations are untouched.
        assert_eq!(r.take_cached_batch_for(NodeId(2), &failed).len(), 1);
    }

    #[test]
    fn stage_two_moves_a_pending_buffer_for_a_failed_node_into_the_cache() {
        let mut r = RehashState::new(true);
        let batch = ColumnarBatch::from_tuples(
            1,
            &(0..5)
                .map(|i| Tuple::new(vec![Value::Int(i)]))
                .collect::<Vec<_>>(),
            1,
            NodeSet::singleton(NodeId(0)),
            0,
        );
        // Rows 0-2 are sent to n1, rows 3-4 wait; n2 has one waiting row.
        assert_eq!(
            r.buffer_rows(NodeId(1), &batch, &[0, 1, 2, 3, 4], 3).len(),
            1
        );
        assert!(r.buffer_rows(NodeId(2), &batch, &[1], 3).is_empty());
        r.cache_pending_for(&NodeSet::singleton(NodeId(1)));
        // Nothing for n1 is left to send; n2's row still waits.
        assert_eq!(r.pending_destinations(), vec![NodeId(2)]);
        let all = r.take_cached_batch_for(NodeId(1), &NodeSet::singleton(NodeId(1)));
        assert_eq!(
            rows_of(&all),
            rows_of(&batch),
            "every row ever bound for n1"
        );
        assert_eq!(flush_sizes(&mut r), vec![(NodeId(2), 1)]);
    }

    #[test]
    fn a_sent_batch_and_its_cache_entry_are_one_allocation() {
        let mut r = RehashState::new(true);
        let batch = ColumnarBatch::from_tuples(
            1,
            &(0..5)
                .map(|i| Tuple::new(vec![Value::Int(i)]))
                .collect::<Vec<_>>(),
            1,
            NodeSet::singleton(NodeId(0)),
            0,
        );
        let filled = r.buffer_rows(NodeId(1), &batch, &[0, 1, 2, 3, 4], 2);
        let flushed = r.flush_pending();
        let sent: Vec<&Rc<ColumnarBatch>> = filled
            .iter()
            .map(|(_, b)| b)
            .chain(flushed.iter().map(|(_, b)| b))
            .collect();
        let cached = &r.cache[&NodeId(1)];
        assert_eq!(sent.len(), 3);
        assert_eq!(cached.len(), 3);
        for (payload, entry) in sent.iter().zip(cached) {
            assert!(Rc::ptr_eq(payload, entry));
        }

        // A purge that cuts a cached batch still in flight copies it
        // first: the payload its receiver holds keeps every row.
        let mut r = RehashState::new(true);
        let mut mixed = ColumnarBatch::new(1);
        mixed.push_row(&[Value::Int(1)], 1, NodeSet::singleton(NodeId(0)), 0);
        mixed.push_row(&[Value::Int(2)], 1, NodeSet::singleton(NodeId(4)), 0);
        r.buffer_rows(NodeId(1), &mixed, &[0, 1], 8);
        let (_, in_flight) = r.flush_pending().remove(0);
        assert_eq!(r.purge_tainted(&NodeSet::singleton(NodeId(4))), 1);
        assert_eq!((in_flight.len(), r.cache_len()), (2, 1));
    }

    #[test]
    fn purge_counts_each_logical_row_once() {
        // A row is cached once it is sent and pending until then, never
        // both: a purge counts each dropped row once, wherever it was.
        let mut r = RehashState::new(true);
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(1)], 7));
        r.flush_pending();
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(2)], 7));
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(3)], 0));
        let failed = NodeSet::singleton(NodeId(7));
        assert_eq!(r.purge_tainted(&failed), 2);
        assert_eq!(r.cache_len(), 0);
        assert_eq!(flush_sizes(&mut r), vec![(NodeId(1), 1)]);

        // Without a cache, pending-buffer drops are what gets counted.
        let mut r = RehashState::new(false);
        buffer_all(&mut r, NodeId(1), &one(vec![Value::Int(1)], 7));
        buffer_all(&mut r, NodeId(2), &one(vec![Value::Int(2)], 0));
        assert_eq!(r.purge_tainted(&failed), 1);
        assert_eq!(flush_sizes(&mut r), vec![(NodeId(2), 1)]);
    }

    #[test]
    fn extremum_sketch_is_exact_until_exhaustion() {
        let mut s = ExtremumSketch::new(ExtremumKind::Min, 4);
        for v in [7, 3, 9, 1, 5, 8, 2, 6] {
            s.update_signed(&Value::Int(v), 1);
        }
        // Tracks the 4 smallest {1,2,3,5}; the rest are overflow.
        assert_eq!(s.best(), Some(&Value::Int(1)));
        assert_eq!(s.support(), 8);
        // Retract the minimum twice: the sketch still answers exactly
        // from the runners-up — where a bare accumulator would already
        // force a recompute.
        s.update_signed(&Value::Int(1), -1);
        assert_eq!(s.best(), Some(&Value::Int(2)));
        s.update_signed(&Value::Int(2), -1);
        assert_eq!(s.best(), Some(&Value::Int(3)));
        assert!(!s.is_exhausted());
        // Drain the remaining tracked values: overflow rows survive but
        // their order was discarded — the sketch declines to answer.
        s.update_signed(&Value::Int(3), -1);
        s.update_signed(&Value::Int(5), -1);
        assert!(s.is_exhausted());
        assert_eq!(s.best(), None);
        assert_eq!(s.support(), 4);
    }

    #[test]
    fn extremum_sketch_never_promotes_past_unknown_overflow() {
        let mut s = ExtremumSketch::new(ExtremumKind::Min, 2);
        for v in 1..=10 {
            s.update_signed(&Value::Int(v), 1);
        }
        // Tracked {1,2}, overflow 3..=10.
        for v in [1, 2] {
            s.update_signed(&Value::Int(v), -1);
        }
        assert!(s.is_exhausted());
        // A fresh value cannot become "best": overflow rows of unknown
        // rank (3..=10) may beat it.  It must join the overflow until a
        // recompute rebuilds the sketch.
        s.update_signed(&Value::Int(100), 1);
        assert!(s.is_exhausted());
        assert_eq!(s.best(), None);
        // A strictly-better-than-boundary value, by contrast, is always
        // safe to track.
        let mut t = ExtremumSketch::new(ExtremumKind::Min, 2);
        for v in [5, 6, 7, 8] {
            t.update_signed(&Value::Int(v), 1);
        }
        t.update_signed(&Value::Int(1), 1);
        assert_eq!(t.best(), Some(&Value::Int(1)));
    }

    #[test]
    fn extremum_sketch_max_mirrors_min() {
        let mut s = ExtremumSketch::new(ExtremumKind::Max, 3);
        for v in [4, 9, 2, 7, 5] {
            s.update_signed(&Value::Int(v), 1);
        }
        assert_eq!(s.best(), Some(&Value::Int(9)));
        s.update_signed(&Value::Int(9), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        // Deleting an untracked (small) value only touches the overflow.
        s.update_signed(&Value::Int(2), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        assert_eq!(s.support(), 3);
        // Duplicates share one tracked slot.
        s.update_signed(&Value::Int(7), 1);
        s.update_signed(&Value::Int(7), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        // Nulls never participate.
        s.update_signed(&Value::Null, 1);
        assert_eq!(s.support(), 3);
    }

    #[test]
    fn buffer_from_copies_the_source_rows_into_buffer_and_cache() {
        // Buffering a selection of a columnar source must leave each
        // destination's buffer holding exactly the rows routed to it, and
        // hand back — and cache — a buffer the moment it fills.
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::str(format!("s{}", i % 2))]))
            .collect();
        let batch = ColumnarBatch::from_tuples(2, &tuples, 1, NodeSet::singleton(NodeId(0)), 0);
        let rows = rows_of(&batch);
        let mut r = RehashState::new(true);
        for dest in [0u32, 1] {
            let routed: Vec<u32> = (dest..6).step_by(2).collect();
            assert!(r
                .buffer_rows(NodeId(dest as u16), &batch, &routed, 4)
                .is_empty());
        }
        assert_eq!(r.cache_len(), 0);
        // Three rows are pending for node 0; five more fill the buffer at
        // source row 0, again at source row 4, and leave none pending.
        let filled = r.buffer_rows(NodeId(0), &batch, &[0, 1, 2, 3, 4], 4);
        let sent: Vec<_> = filled.iter().map(|(by, b)| (*by, rows_of(b))).collect();
        let pick = |at: &[usize]| at.iter().map(|i| rows[*i].clone()).collect::<Vec<_>>();
        assert_eq!(
            sent,
            vec![(0, pick(&[0, 2, 4, 0])), (4, pick(&[1, 2, 3, 4]))]
        );
        assert_eq!(r.cache_len(), 8);
        assert_eq!(r.pending_destinations(), vec![NodeId(1)]);
        let pending = r.flush_pending();
        assert_eq!(rows_of(&pending[0].1), pick(&[1, 3, 5]));
        // The cache is every row sent to each destination, in order.
        for (dest, expected) in [(0, pick(&[0, 2, 4, 0, 1, 2, 3, 4])), (1, pick(&[1, 3, 5]))] {
            let cached = r.take_cached_batch_for(NodeId(dest), &NodeSet::empty());
            assert_eq!(rows_of(&cached), expected);
        }
    }
}
