//! A delta folded a column at a time; the row-at-a-time fold it replaced
//! is the reference.
//!
//! [`reference_absorb`] is `AdaptiveStats::absorb` as it was: every signed
//! row of every changed relation's delta built as a `Tuple` and each of
//! its cells folded in turn ([`fold_tuple`]), the sketch hashing every
//! cell.  Over random stores — relations keyed on one column or on two,
//! keys that are `Int`s, integral `Double`s, NaN and ±0.0, and columns of
//! `Int`s, `Double`s (NaN, ±0.0, ±inf among them), `Str`s, and NULLs or
//! mixed types, rows shorter and longer than the schema — and streams of
//! inserts, modifies and deletes (some of keys that are absent or named
//! twice), both statistics absorb every epoch, now and then over a longer
//! interval, and must be `Debug`-equal after every absorb.  Columns are
//! drawn to push histograms past their exact map into buckets and into
//! opaque mode, and sketches past saturation.
//!
//! The second case drives the bucket lookup, a binary search over buckets
//! in order, against the scan it replaced, over points that include NaN,
//! infinities and values whose midpoints overflow.
//!
//! `cargo test` runs 20 random cases of each in a debug build; a release
//! build runs 300.

use super::histogram::{bucket_update, buckets_from_exact, in_order, Bucket};
use super::*;
use orchestra_common::rng::{seeded, StdRng};
use orchestra_common::{ColumnType, NodeId, Relation, Schema, Tuple};
use orchestra_storage::{StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};

/// `absorb` as it was: each signed row built and folded cell by cell.
fn reference_absorb(
    stats: &mut AdaptiveStats,
    storage: &DistributedStorage,
    from: Epoch,
    to: Epoch,
) -> Result<usize> {
    let mut folded = 0;
    for relation in storage.changed_relations(from, to) {
        let delta = storage.delta(&relation, from, to)?;
        let signed_rows = delta.signed_row_count();
        folded += signed_rows;
        let columns = stats.relations.entry(relation.clone()).or_default();
        for row in delta.rows() {
            let (row, sign, _) = row?;
            fold_tuple(columns, &row.tuple(), i64::from(sign));
        }
        let ewma = stats.delta_ewma.entry(relation).or_insert(0.0);
        *ewma = if *ewma == 0.0 {
            signed_rows as f64
        } else {
            (1.0 - DELTA_EWMA_ALPHA) * *ewma + DELTA_EWMA_ALPHA * signed_rows as f64
        };
    }
    Ok(folded)
}

/// Fold one signed tuple into the per-column summaries, growing the
/// column list to the tuple's arity on first contact.
fn fold_tuple(columns: &mut Vec<ColumnObs>, tuple: &Tuple, sign: i64) {
    while columns.len() < tuple.arity() {
        columns.push(ColumnObs::new());
    }
    for (i, obs) in columns.iter_mut().enumerate().take(tuple.arity()) {
        obs.fold(tuple.value(i), None, sign);
    }
}

fn cases() -> usize {
    if cfg!(debug_assertions) {
        20
    } else {
        300
    }
}

/// What a column's cells are drawn from.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// A few integers: the histogram stays exact.
    FewInts,
    /// Many integers: buckets, and a saturated sketch.
    ManyInts,
    /// Doubles, NaN, ±0.0, ±inf and integral ones among them.
    Doubles,
    /// A few strings.
    FewStrs,
    /// Many strings: an opaque histogram.
    ManyStrs,
    /// NULLs, integers, doubles and strings mixed.
    Mixed,
    /// Integers with NULLs among them.
    NullableInts,
}

const KINDS: [Kind; 7] = [
    Kind::FewInts,
    Kind::ManyInts,
    Kind::Doubles,
    Kind::FewStrs,
    Kind::ManyStrs,
    Kind::Mixed,
    Kind::NullableInts,
];

fn special_double(rng: &mut StdRng) -> f64 {
    [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        3.0,
        -7.0,
        1.5,
        f64::MAX,
    ][rng.random_range(0..10usize)]
}

fn cell(rng: &mut StdRng, kind: Kind) -> Value {
    match kind {
        Kind::FewInts => Value::Int(i64::from(rng.random_range(0..6u32))),
        Kind::ManyInts => Value::Int(i64::from(rng.random_range(0..1_000u32)) - 500),
        Kind::Doubles => match rng.random_range(0..4u32) {
            0 => Value::Double(special_double(rng)),
            1 => Value::Double(f64::from(rng.random_range(0..40u32)) - 20.0),
            _ => Value::Double((f64::from(rng.random_range(0..8_000u32)) - 4_000.0) / 8.0),
        },
        Kind::FewStrs => Value::str(["A", "N", "R", ""][rng.random_range(0..4usize)]),
        Kind::ManyStrs => Value::str(format!("s{}", rng.random_range(0..300u32))),
        Kind::Mixed => match rng.random_range(0..4u32) {
            0 => Value::Null,
            1 => Value::Int(rng.random_range(0..40u64) as i64),
            2 => Value::Double(f64::from(rng.random_range(0..40u32)) / 2.0),
            _ => Value::str(format!("m{}", rng.random_range(0..10u32))),
        },
        Kind::NullableInts => match rng.random_range(0..5u32) {
            0 => Value::Null,
            _ => Value::Int(rng.random_range(0..100u64) as i64),
        },
    }
}

/// A key value: `Int`s, some as integral `Double`s, and now and then NaN
/// or ±0.0.
fn key_cell(rng: &mut StdRng, keys: i64) -> Value {
    let k = rng.random_range(0..keys as u64) as i64;
    match rng.random_range(0..10u32) {
        0 => Value::Double(k as f64),
        1 => Value::Double([f64::NAN, 0.0, -0.0][rng.random_range(0..3usize)]),
        _ => Value::Int(k),
    }
}

/// One relation of a case: its name, key length and column kinds.
struct Table {
    name: String,
    key_len: usize,
    kinds: Vec<Kind>,
    keys: i64,
}

impl Table {
    fn random(rng: &mut StdRng, name: &str) -> Table {
        let key_len = rng.random_range(1..=2usize);
        let kinds = (0..rng.random_range(1..=4usize))
            .map(|_| KINDS[rng.random_range(0..KINDS.len())])
            .collect();
        Table {
            name: name.to_string(),
            key_len,
            kinds,
            keys: [20, 200, 2_000][rng.random_range(0..3usize)],
        }
    }

    fn relation(&self) -> Relation {
        let key = (0..self.key_len).map(|i| (format!("k{i}"), ColumnType::Int));
        let rest = (self.kinds.iter().enumerate()).map(|(i, _)| (format!("c{i}"), ColumnType::Int));
        Relation::partitioned(
            &self.name,
            Schema::new(key.chain(rest).collect(), self.key_len),
        )
    }

    fn key(&self, rng: &mut StdRng) -> Vec<Value> {
        (0..self.key_len)
            .map(|_| key_cell(rng, self.keys))
            .collect()
    }

    /// A row of `key`: mostly the schema's width, now and then shorter
    /// (down to the key alone) or a column longer.
    fn row(&self, rng: &mut StdRng, key: Vec<Value>) -> Tuple {
        let width = match rng.random_range(0..8u32) {
            0 => rng.random_range(0..=self.kinds.len()),
            1 => self.kinds.len() + 1,
            _ => self.kinds.len(),
        };
        let mut values = key;
        for i in 0..width {
            let kind = self.kinds.get(i).copied().unwrap_or(Kind::Mixed);
            values.push(cell(rng, kind));
        }
        Tuple::new(values)
    }
}

/// One publication's share for `table`: inserts, modifies and deletes,
/// some of them of keys that are not there or named twice.
fn random_updates(rng: &mut StdRng, table: &Table, batch: &mut UpdateBatch) {
    for _ in 0..rng.random_range(0..60u32) {
        let key = table.key(rng);
        match rng.random_range(0..4u32) {
            0 | 1 => {
                let row = table.row(rng, key);
                batch.insert(&table.name, row);
            }
            2 => {
                let row = table.row(rng, key);
                batch.modify(&table.name, row);
            }
            _ => {
                batch.delete(&table.name, key);
            }
        }
    }
}

fn store(rng: &mut StdRng, tables: &[Table]) -> DistributedStorage {
    let nodes: Vec<NodeId> = (0..rng.random_range(1..=5u16)).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 3);
    let config = StorageConfig {
        partitions_per_relation: [1, 4, 16][rng.random_range(0..3usize)],
    };
    let mut storage = DistributedStorage::new(routing, config);
    for table in tables {
        storage.register_relation(table.relation());
    }
    storage
}

#[test]
fn a_column_at_a_time_folds_what_the_row_loop_folded() {
    let mut rng = seeded(0xab50_b5ed);
    let mut epochs = 0;
    // Which shapes the summaries reached, read off their `Debug`.
    let mut reached = [
        ("Buckets", false),
        ("Opaque", false),
        ("saturated: true", false),
    ];
    for case in 0..cases() {
        let tables: Vec<Table> = (0..rng.random_range(1..=2usize))
            .map(|i| Table::random(&mut rng, &format!("T{i}")))
            .collect();
        let mut storage = store(&mut rng, &tables);
        let (mut columnar, mut reference) = (AdaptiveStats::new(), AdaptiveStats::new());
        let mut published = vec![storage.publish(&UpdateBatch::new()).unwrap()];
        for step in 0..rng.random_range(1..=12usize) {
            let mut batch = UpdateBatch::new();
            for table in &tables {
                if rng.random_bool(0.8) {
                    random_updates(&mut rng, table, &mut batch);
                }
            }
            let to = storage.publish(&batch).unwrap();
            // Mostly the last epoch; now and then a longer interval.
            let from = if rng.random_bool(0.8) {
                published[published.len() - 1]
            } else {
                published[rng.random_range(0..published.len())]
            };
            published.push(to);
            let folded = columnar.absorb(&storage, from, to).unwrap();
            let expected = reference_absorb(&mut reference, &storage, from, to).unwrap();
            assert_eq!(folded, expected, "case {case}, step {step}");
            assert_eq!(
                format!("{columnar:?}"),
                format!("{reference:?}"),
                "case {case}, step {step}: {:?}",
                tables
                    .iter()
                    .map(|t| (t.key_len, &t.kinds))
                    .collect::<Vec<_>>()
            );
            epochs += 1;
        }
        let state = format!("{columnar:?}");
        for (shape, seen) in &mut reached {
            *seen |= state.contains(*shape);
        }
    }
    assert!(epochs >= cases(), "{epochs} epochs");
    assert!(reached.iter().all(|(_, seen)| *seen), "{reached:?}");
}

/// `bucket_update` as it was: the bucket looked up by a scan for the first
/// bucket holding `x`, else for the first after the gap it falls in.
fn reference_bucket_update(
    buckets: &mut Vec<Bucket>,
    x: f64,
    sign: i64,
    max_buckets: usize,
    total: i64,
) {
    if buckets.is_empty() {
        if sign > 0 {
            buckets.push(Bucket {
                lo: x,
                hi: x,
                count: sign,
            });
        }
        return;
    }
    let idx = if x < buckets[0].lo {
        if sign > 0 {
            buckets[0].lo = x;
        }
        0
    } else if x > buckets[buckets.len() - 1].hi {
        let last = buckets.len() - 1;
        if sign > 0 {
            buckets[last].hi = x;
        }
        last
    } else {
        buckets
            .iter()
            .position(|b| x >= b.lo && x <= b.hi)
            .unwrap_or_else(|| buckets.iter().position(|b| x < b.lo).unwrap_or(0))
    };
    buckets[idx].count = (buckets[idx].count + sign).max(0);
    let depth = (total / max_buckets as i64).max(1);
    if buckets[idx].count > 2 * depth && buckets[idx].hi > buckets[idx].lo {
        let b = buckets[idx].clone();
        let mid = (b.lo + b.hi) / 2.0;
        let half = b.count / 2;
        buckets[idx] = Bucket {
            lo: b.lo,
            hi: mid,
            count: half,
        };
        buckets.insert(
            idx + 1,
            Bucket {
                lo: mid,
                hi: b.hi,
                count: b.count - half,
            },
        );
    }
    while buckets.len() > max_buckets {
        let mut best = 0;
        let mut best_count = i64::MAX;
        for i in 0..buckets.len() - 1 {
            let combined = buckets[i].count + buckets[i + 1].count;
            if combined < best_count {
                best_count = combined;
                best = i;
            }
        }
        let right = buckets.remove(best + 1);
        buckets[best].hi = right.hi;
        buckets[best].count += right.count;
    }
}

fn point(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => special_double(rng),
        1 => f64::MAX / f64::from(rng.random_range(1..4u32)),
        _ => (f64::from(rng.random_range(0..2_000u32)) - 1_000.0) / 4.0,
    }
}

#[test]
fn the_bucket_search_lands_where_the_scan_did() {
    let mut rng = seeded(0xb0c4_e75a);
    let (mut searched, mut scanned) = (0, 0);
    for case in 0..cases() {
        let max_buckets = rng.random_range(2..=32usize);
        // Start from the exact map's conversion, NaN points and all.
        let mut counts: BTreeMap<Value, i64> = BTreeMap::new();
        for _ in 0..rng.random_range(1..=2 * max_buckets) {
            *counts.entry(Value::Double(point(&mut rng))).or_insert(0) += 1;
        }
        let mut buckets = buckets_from_exact(&counts, max_buckets);
        let mut ordered = in_order(&buckets);
        let mut reference = buckets.clone();
        let mut total: i64 = counts.values().sum();
        for step in 0..rng.random_range(1..400u32) {
            let x = point(&mut rng);
            let sign = if rng.random_bool(0.3) { -1 } else { 1 };
            total = (total + sign).max(0);
            if ordered {
                searched += 1;
            } else {
                scanned += 1;
            }
            bucket_update(&mut buckets, &mut ordered, x, sign, max_buckets, total);
            reference_bucket_update(&mut reference, x, sign, max_buckets, total);
            // `Debug`, as a NaN bound is not equal to itself.
            assert_eq!(
                format!("{buckets:?}"),
                format!("{reference:?}"),
                "case {case}, step {step}, point {x}"
            );
            assert!(!ordered || in_order(&buckets), "case {case}, step {step}");
        }
    }
    assert!(
        searched > 0 && scanned > 0,
        "{searched} searched, {scanned} scanned"
    );
}
