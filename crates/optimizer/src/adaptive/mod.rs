//! Adaptive statistics: incrementally-maintained histograms and
//! sketches, drift-triggered re-optimization, and measured-traffic
//! feedback.
//!
//! The base [`Statistics`] snapshot carries one cardinality per relation
//! and catalog-derived column widths — enough to compile a first plan,
//! blind to everything execution later reveals.  This module closes the
//! loop:
//!
//! ```text
//!   publication delta ──▶ AdaptiveStats::absorb   (histograms, KMV
//!         │                                        sketches, widths,
//!         │                                        delta-size EWMA)
//!         ▼
//!   overlay() ──▶ richer Statistics ──▶ compile / compile_delta_legs_with
//!         │                                   │
//!         ▼                                   ▼
//!   DriftMonitor::observe ──fire──▶ recompile legs, rebase
//!         ▲                                   │
//!         │                                   ▼
//!   CostFeedback::observe_* ◀── measured QueryReport bytes & rows
//! ```
//!
//! [`AdaptiveStats::absorb`] folds the **same signed rows** the IVM
//! path's delta scans read, in the same order — it walks
//! [`DistributedStorage::delta`]'s rows, the memoized change set of the
//! `(relation, from, to)` interval, each changed partition's removed
//! versions at `-1` and then its added ones at `+1`.  Statistics
//! maintenance after a registry refresh is a memo hit, never a second
//! derivation and never a base-relation rescan.
//!
//! It folds **a column at a time**.  The delta's rows are gathered from
//! the stored columnar runs into one batch ([`orchestra_storage::gather`],
//! the scan's gather), and each column's summaries are fed from its typed
//! cells, no row built.  A sketch needs each distinct value's hash once,
//! so a column hashes each of its distinct values once per delta
//! (`ColumnarBatch::hash_columns_at`, one SHA-1 block for a number) and
//! folds its cells' hashes in row order.  The key column of a relation
//! keyed on one column hashes nothing: a value's sketch hash is the top
//! of its one-value ring key, which is the ring position the row's page
//! entry cached when the version was published.

pub mod drift;
pub mod feedback;
pub mod histogram;
pub mod sketch;

pub use drift::{DriftConfig, DriftMonitor};
pub use feedback::{CostChannel, CostFeedback};
pub use histogram::EquiDepthHistogram;
pub use sketch::KmvSketch;

use crate::stats::Statistics;
use orchestra_common::{ColumnData, ColumnarBatch, Epoch, Key160, NodeSet, Result, Value};
use orchestra_storage::{gather, DistributedStorage, StoredRow};
use std::collections::BTreeMap;
use std::sync::Arc;

/// EWMA smoothing factor for per-relation delta-size estimates.
const DELTA_EWMA_ALPHA: f64 = 0.3;

/// The maintained summaries of one column.
#[derive(Clone, Debug)]
struct ColumnObs {
    histogram: EquiDepthHistogram,
    sketch: KmvSketch,
    /// Signed sum of observed serialized value sizes, and the signed row
    /// count behind it — their ratio is the observed mean width.
    width_sum: f64,
    width_rows: i64,
}

impl ColumnObs {
    fn new() -> ColumnObs {
        ColumnObs {
            histogram: EquiDepthHistogram::default(),
            sketch: KmvSketch::default(),
            width_sum: 0.0,
            width_rows: 0,
        }
    }

    /// Fold one cell with a delta sign.  `hash` is the value's sketch hash
    /// when the caller has it, or `None` to have the sketch hash it.
    fn fold(&mut self, value: &Value, hash: Option<u64>, sign: i64) {
        self.histogram.update(value, sign);
        match hash {
            Some(h) if !value.is_null() => self.sketch.update_hash(h, sign),
            Some(_) => {}
            None => self.sketch.update(value, sign),
        }
        self.width_sum += sign as f64 * value.serialized_size() as f64;
        self.width_rows += sign;
    }

    /// Fold column `c` of `batch`, the gathered `rows` of one delta, cell
    /// by cell in row order, each row with its sign; a cell past its row's
    /// published arity is padding and is not folded.  `key` says the column
    /// is its relation's whole key, whose hashes are the rows' positions.
    fn fold_column(
        &mut self,
        batch: &ColumnarBatch,
        c: usize,
        rows: &[(StoredRow<'_>, i8, Key160)],
        key: bool,
        scratch: &mut Scratch,
    ) {
        let data = batch.column(c).data();
        if key {
            scratch.hashes.clear();
            (scratch.hashes).extend(rows.iter().map(|(_, _, position)| position.top64()));
        } else {
            match data {
                ColumnData::Int(v) => scratch.hash_distinct(batch, c, v.iter().map(|x| *x as u64)),
                ColumnData::Double(v) => {
                    scratch.hash_distinct(batch, c, v.iter().map(|x| x.to_bits()))
                }
                ColumnData::Str(v) => {
                    scratch.hash_distinct(batch, c, v.iter().map(|id| u64::from(*id)))
                }
                ColumnData::Values(_) => {}
            }
        }
        let (hashes, signs) = (&scratch.hashes, batch.sign_column());
        let cells = hashes
            .iter()
            .zip(signs)
            .map(|(h, s)| (Some(*h), i64::from(*s)));
        match data {
            ColumnData::Int(v) => {
                for (x, (h, sign)) in v.iter().zip(cells) {
                    self.fold(&Value::Int(*x), h, sign);
                }
            }
            ColumnData::Double(v) => {
                for (x, (h, sign)) in v.iter().zip(cells) {
                    self.fold(&Value::Double(*x), h, sign);
                }
            }
            ColumnData::Str(v) => {
                let pool = batch.pool();
                for (id, (h, sign)) in v.iter().zip(cells) {
                    self.fold(&Value::Str(Arc::clone(pool.get_shared(*id))), h, sign);
                }
            }
            ColumnData::Values(v) => {
                for (r, (value, (row, sign, _))) in v.iter().zip(rows).enumerate() {
                    if c < row.arity() {
                        self.fold(value, key.then(|| hashes[r]), i64::from(*sign));
                    }
                }
            }
        }
    }

    fn mean_width(&self) -> Option<f64> {
        if self.width_rows > 0 && self.width_sum > 0.0 {
            Some(self.width_sum / self.width_rows as f64)
        } else {
            None
        }
    }
}

/// Incrementally-maintained per-relation statistics, fed exclusively by
/// signed publication deltas.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveStats {
    relations: BTreeMap<String, Vec<ColumnObs>>,
    delta_ewma: BTreeMap<String, f64>,
}

impl AdaptiveStats {
    /// Fresh, empty state: overlays are identity until deltas arrive.
    pub fn new() -> AdaptiveStats {
        AdaptiveStats::default()
    }

    /// Fold the signed delta of every relation that changed in
    /// `(from, to]` into the maintained summaries, in the order
    /// [`orchestra_storage::RelationDelta::rows`] gives: per changed
    /// partition, the versions the interval removed at `-1`, then the ones
    /// it added at `+1`.  A histogram's bucket splits and merges depend on
    /// that order, and each column sees its cells in it: the delta is
    /// gathered into one batch and folded a column at a time, each
    /// distinct value hashed once per column (the key column of a relation
    /// keyed on one column not at all).  Reads the storage layer's memoized
    /// delta derivation, so absorbing after a registry refresh of the same
    /// interval derives nothing new.  Allocates per relation and column,
    /// not per row.  Returns the total signed rows folded.
    pub fn absorb(
        &mut self,
        storage: &DistributedStorage,
        from: Epoch,
        to: Epoch,
    ) -> Result<usize> {
        let mut folded = 0;
        let relations = storage.changed_relations(from, to);
        // Scratch space for every relation and column.
        let mut rows = Vec::new();
        let mut scratch = Scratch::default();
        for relation in &relations {
            let delta = storage.delta(relation, from, to)?;
            let signed_rows = delta.signed_row_count();
            folded += signed_rows;
            rows.clear();
            rows.reserve(signed_rows);
            for row in delta.rows() {
                rows.push(row?);
            }
            let width = rows.iter().map(|(row, ..)| row.arity()).max().unwrap_or(0);
            let columns = self.relations.entry(relation.clone()).or_default();
            if columns.len() < width {
                columns.resize_with(width, ColumnObs::new);
            }
            if width > 0 {
                let cols: Vec<usize> = (0..width).collect();
                let signed = rows.iter().map(|(row, sign, _)| (*row, *sign));
                let batch = gather(signed, &cols, NodeSet::default(), 0);
                let key_len = storage.relation(relation).map(|r| r.schema().key_len());
                for (c, obs) in columns.iter_mut().enumerate().take(width) {
                    let key = c == 0 && key_len == Some(1);
                    obs.fold_column(&batch, c, &rows, key, &mut scratch);
                }
            }
            let ewma = self.delta_ewma.entry(relation.clone()).or_insert(0.0);
            *ewma = if *ewma == 0.0 {
                signed_rows as f64
            } else {
                (1.0 - DELTA_EWMA_ALPHA) * *ewma + DELTA_EWMA_ALPHA * signed_rows as f64
            };
        }
        Ok(folded)
    }

    /// A copy of `base` enriched with everything the deltas taught us:
    /// per-column histograms and distinct counts attached, and observed
    /// mean widths replacing the catalog's fixed per-type guesses.
    /// Relations and columns never observed pass through untouched.
    pub fn overlay(&self, base: &Statistics) -> Statistics {
        let mut stats = base.clone();
        for (name, columns) in &self.relations {
            let Some(table) = stats.table_mut(name) else {
                continue;
            };
            for (i, obs) in columns.iter().enumerate() {
                if i >= table.arity {
                    break;
                }
                if let Some(width) = obs.mean_width() {
                    table.column_widths[i] = width;
                }
                if obs.histogram.total() > 0 {
                    table.histograms[i] = Some(obs.histogram.clone());
                }
                let distinct = obs.sketch.distinct();
                if distinct > 0.0 {
                    table.distinct_counts[i] = Some(distinct);
                }
            }
        }
        stats
    }

    /// The observed per-relation delta-size estimate (EWMA of signed row
    /// counts), rounded for use as a what-if cardinality.  Relations
    /// never observed are absent — leg compilation keeps its cold-start
    /// nominal default for those.
    pub fn delta_rows_estimate(&self) -> BTreeMap<String, usize> {
        self.delta_ewma
            .iter()
            .filter(|(_, e)| **e > 0.0)
            .map(|(name, e)| (name.clone(), (e.round() as usize).max(1)))
            .collect()
    }

    /// Has any delta been absorbed for `relation`?
    pub fn observed(&self, relation: &str) -> bool {
        self.relations.contains_key(relation)
    }
}

/// The lists [`ColumnObs::fold_column`] works in, kept from one column and
/// relation to the next.
#[derive(Default)]
struct Scratch {
    /// A column's cells as (bits, row), sorted: equal values side by side.
    sorted: Vec<(u64, u32)>,
    /// The first row of each distinct value, in sorted order.
    firsts: Vec<u32>,
    keys: Vec<Key160>,
    /// Each row's sketch hash.
    hashes: Vec<u64>,
}

impl Scratch {
    /// Fill [`Self::hashes`] with the sketch hash of each cell of typed
    /// column `c` of `batch`, whose cells `bits` gives in row order (equal
    /// bits for equal values: a number's bits, a string's pool id),
    /// hashing each distinct value once.
    fn hash_distinct(&mut self, batch: &ColumnarBatch, c: usize, bits: impl Iterator<Item = u64>) {
        self.sorted.clear();
        // A batch's rows number fewer than `u32::MAX`, as its ids do.
        (self.sorted).extend(bits.enumerate().map(|(row, b)| (b, row as u32)));
        self.sorted.sort_unstable();
        let distinct = || self.sorted.chunk_by(|a, b| a.0 == b.0);
        self.firsts.clear();
        self.firsts.reserve(self.sorted.len());
        self.firsts.extend(distinct().map(|same| same[0].1));
        batch.hash_columns_at(&[c], &self.firsts, &mut self.keys);
        self.hashes.clear();
        self.hashes.resize(self.sorted.len(), 0);
        for (same, key) in distinct().zip(&self.keys) {
            for (_, row) in same {
                self.hashes[*row as usize] = key.top64();
            }
        }
    }
}

#[cfg(test)]
mod absorb_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{ColumnType, NodeId, Relation, Schema, Tuple};
    use orchestra_storage::{StorageConfig, UpdateBatch};
    use orchestra_substrate::{AllocationScheme, RoutingTable};

    fn storage() -> DistributedStorage {
        let routing = RoutingTable::build(
            &(0..4).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut s = DistributedStorage::new(routing, StorageConfig::default());
        s.register_relation(Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![
                ("k", ColumnType::Int),
                ("flag", ColumnType::Str),
                ("x", ColumnType::Int),
            ]),
        ));
        s
    }

    fn row(k: i64, flag: &str, x: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::str(flag), Value::Int(x)])
    }

    #[test]
    fn absorb_builds_histograms_and_widths_from_deltas_only() {
        let mut s = storage();
        let e0 = s.publish(&UpdateBatch::new()).unwrap();
        let mut b = UpdateBatch::new();
        for k in 0..200 {
            b.insert("R", row(k, if k % 4 == 0 { "HOT" } else { "COLD" }, k % 50));
        }
        let e1 = s.publish(&b).unwrap();

        let mut adaptive = AdaptiveStats::new();
        let folded = adaptive.absorb(&s, e0, e1).unwrap();
        assert_eq!(folded, 200);

        let base = Statistics::collect(&s, e1);
        let enriched = adaptive.overlay(&base);
        let table = enriched.table("R").unwrap();
        // The flag column observed ~4-5 byte strings, far from the
        // catalog's 30-byte guess.
        assert!(table.column_widths[1] < 15.0, "{}", table.column_widths[1]);
        // The histogram sees the exact 1-in-4 equality fraction.
        let hist = table.histograms[1].as_ref().unwrap();
        let frac = hist
            .fraction(orchestra_engine::CmpOp::Eq, &Value::str("HOT"))
            .unwrap();
        assert!((frac - 0.25).abs() < 1e-12);
        // Distinct counts: 200 keys, 2 flags, 50 x-values.
        assert_eq!(table.distinct_counts[1], Some(2.0));
        assert_eq!(table.distinct_counts[2], Some(50.0));
        // The base snapshot itself is untouched.
        assert!(base.table("R").unwrap().histograms[1].is_none());
    }

    #[test]
    fn absorb_folds_retractions_and_tracks_delta_ewma() {
        let mut s = storage();
        let e0 = s.publish(&UpdateBatch::new()).unwrap();
        let mut b0 = UpdateBatch::new();
        for k in 0..100 {
            b0.insert("R", row(k, "A", k));
        }
        let e1 = s.publish(&b0).unwrap();
        let mut adaptive = AdaptiveStats::new();
        adaptive.absorb(&s, e0, e1).unwrap();

        let mut b1 = UpdateBatch::new();
        for k in 0..10 {
            b1.delete("R", vec![Value::Int(k)]);
        }
        let e2 = s.publish(&b1).unwrap();
        adaptive.absorb(&s, e1, e2).unwrap();

        let base = Statistics::collect(&s, e2);
        let table = adaptive.overlay(&base).table("R").unwrap().clone();
        assert_eq!(table.histograms[0].as_ref().unwrap().total(), 90);

        // EWMA: seeded at 100, then pulled toward the 10-row delta.
        let est = adaptive.delta_rows_estimate();
        let r = est["R"];
        assert!(r < 100 && r > 10, "EWMA between the two deltas: {r}");
    }

    #[test]
    fn absorb_after_a_prior_consumer_is_a_memo_hit() {
        let mut s = storage();
        let mut b0 = UpdateBatch::new();
        for k in 0..50 {
            b0.insert("R", row(k, "A", k));
        }
        let e1 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert("R", row(900, "B", 1));
        let e2 = s.publish(&b1).unwrap();

        // A first consumer (standing in for the registry refresh)
        // derives the interval.
        s.delta("R", e1, e2).unwrap();
        let before = s.delta_derivations();
        let mut adaptive = AdaptiveStats::new();
        adaptive.absorb(&s, e1, e2).unwrap();
        assert_eq!(
            s.delta_derivations(),
            before,
            "statistics maintenance must ride the memoized derivation"
        );
        assert!(adaptive.observed("R"));
    }

    #[test]
    fn unchanged_relations_are_skipped_entirely() {
        let mut s = storage();
        let e0 = s.publish(&UpdateBatch::new()).unwrap();
        let mut b0 = UpdateBatch::new();
        b0.insert("R", row(1, "A", 1));
        let e1 = s.publish(&b0).unwrap();
        let mut adaptive = AdaptiveStats::new();
        let folded = adaptive.absorb(&s, e0, e1).unwrap();
        assert_eq!(folded, 1);
        let folded = adaptive.absorb(&s, e1, e1).unwrap();
        assert_eq!(folded, 0, "an empty interval folds nothing");
    }
}
