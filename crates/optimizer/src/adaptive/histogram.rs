//! Per-column equi-depth histograms maintained from signed deltas.
//!
//! A histogram starts in **exact mode**: a bounded map of per-value
//! counts, which answers equality and range fractions with no estimation
//! error at all — the right representation for the low-cardinality
//! categorical columns (TPC-H market segments, flags) whose fixed 10%
//! equality guess is the cost model's worst systematic error.  The first
//! update that would push the map past its cap converts a *numeric*
//! column into **bucket mode**: a bounded list of equi-depth `[lo, hi]`
//! buckets with split/merge maintenance, answering range fractions by
//! linear interpolation inside the straddling bucket.  The buckets are
//! kept sorted, each ending where the next starts or before, so a point
//! finds its bucket by binary search; a NaN bound (or a split whose
//! midpoint overflows) breaks that order, and the histogram then finds the
//! bucket by a scan, which lands the point where the search would have
//! over sorted buckets.  A high-cardinality
//! *string* column goes **opaque** instead — the histogram keeps only its
//! signed row total and declines to answer, so the caller falls back to
//! the engine's textbook constants rather than trusting a bucket layout
//! that cannot interpolate.
//!
//! Every update carries a delta sign, so the histogram is maintained
//! incrementally from the same signed publication deltas the IVM path
//! derives — never by rescanning a base relation.

use orchestra_common::Value;
use orchestra_engine::CmpOp;
use std::collections::BTreeMap;

/// Default bound on bucket count (bucket mode) and exact-map entries.
pub const DEFAULT_BUCKETS: usize = 32;

/// One equi-depth bucket over a numeric domain (inclusive bounds).
#[derive(Clone, Debug, PartialEq)]
pub(super) struct Bucket {
    pub(super) lo: f64,
    pub(super) hi: f64,
    pub(super) count: i64,
}

/// The shape the histogram currently holds.
#[derive(Clone, Debug, PartialEq)]
enum Shape {
    /// Per-value counts, exact while distinct values stay under the cap.
    Exact(BTreeMap<Value, i64>),
    /// Equi-depth buckets over a numeric domain, and whether they are in
    /// order ([`in_order`]), which every update keeps track of.
    Buckets { buckets: Vec<Bucket>, ordered: bool },
    /// High-cardinality non-numeric column: totals only, no answers.
    Opaque,
}

/// An incrementally-maintained per-column distribution summary.
#[derive(Clone, Debug, PartialEq)]
pub struct EquiDepthHistogram {
    shape: Shape,
    max_buckets: usize,
    total: i64,
}

impl Default for EquiDepthHistogram {
    fn default() -> Self {
        EquiDepthHistogram::new(DEFAULT_BUCKETS)
    }
}

impl EquiDepthHistogram {
    /// A fresh histogram bounded at `max_buckets` buckets (and the same
    /// number of exact-mode entries).
    pub fn new(max_buckets: usize) -> EquiDepthHistogram {
        EquiDepthHistogram {
            shape: Shape::Exact(BTreeMap::new()),
            max_buckets: max_buckets.max(2),
            total: 0,
        }
    }

    /// Signed rows folded so far (inserts minus deletes).
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Fold one value with a delta sign (`+1` insert, `-1` delete).
    pub fn update(&mut self, value: &Value, sign: i64) {
        if value.is_null() {
            return;
        }
        self.total = (self.total + sign).max(0);
        match &mut self.shape {
            Shape::Exact(counts) => {
                let entry = counts.entry(value.clone()).or_insert(0);
                *entry += sign;
                if *entry <= 0 {
                    counts.remove(value);
                }
                if counts.len() > self.max_buckets {
                    self.shape = if counts.keys().all(|v| v.as_f64().is_some()) {
                        let buckets = buckets_from_exact(counts, self.max_buckets);
                        let ordered = in_order(&buckets);
                        Shape::Buckets { buckets, ordered }
                    } else {
                        Shape::Opaque
                    };
                }
            }
            Shape::Buckets { buckets, ordered } => {
                if let Some(x) = value.as_f64() {
                    bucket_update(buckets, ordered, x, sign, self.max_buckets, self.total);
                }
            }
            Shape::Opaque => {}
        }
    }

    /// Estimated fraction of rows with `column op value`, or `None` when
    /// this histogram cannot answer (empty, opaque, or an equality over
    /// interpolated buckets — the caller should fall back to
    /// distinct-count or textbook estimates).
    pub fn fraction(&self, op: CmpOp, value: &Value) -> Option<f64> {
        if self.total <= 0 {
            return None;
        }
        let total = self.total as f64;
        match &self.shape {
            Shape::Exact(counts) => {
                let matching: i64 = counts
                    .iter()
                    .filter(|(v, _)| op.eval(v, value))
                    .map(|(_, c)| *c)
                    .sum();
                Some((matching as f64 / total).clamp(0.0, 1.0))
            }
            Shape::Buckets { buckets, .. } => {
                let x = value.as_f64()?;
                let below = rows_below(buckets, x);
                match op {
                    // Interpolated buckets cannot resolve a point mass.
                    CmpOp::Eq | CmpOp::Ne => None,
                    CmpOp::Lt | CmpOp::Le => Some((below / total).clamp(0.0, 1.0)),
                    CmpOp::Gt | CmpOp::Ge => Some((1.0 - below / total).clamp(0.0, 1.0)),
                }
            }
            Shape::Opaque => None,
        }
    }

    /// Estimated fraction of rows in `[low, high]` (inclusive).
    pub fn between_fraction(&self, low: &Value, high: &Value) -> Option<f64> {
        if self.total <= 0 {
            return None;
        }
        let total = self.total as f64;
        match &self.shape {
            Shape::Exact(counts) => {
                let matching: i64 = counts
                    .iter()
                    .filter(|(v, _)| *v >= low && *v <= high)
                    .map(|(_, c)| *c)
                    .sum();
                Some((matching as f64 / total).clamp(0.0, 1.0))
            }
            Shape::Buckets { buckets, .. } => {
                let (lo, hi) = (low.as_f64()?, high.as_f64()?);
                if hi < lo {
                    return Some(0.0);
                }
                let span = rows_below(buckets, hi) - rows_below(buckets, lo);
                Some((span / total).clamp(0.0, 1.0))
            }
            Shape::Opaque => None,
        }
    }
}

/// Build an equi-depth bucket list from exact per-value counts: sorted
/// values are greedily packed so every bucket holds roughly `total /
/// max_buckets` rows.
pub(super) fn buckets_from_exact(counts: &BTreeMap<Value, i64>, max_buckets: usize) -> Vec<Bucket> {
    let mut points: Vec<(f64, i64)> = counts
        .iter()
        .filter_map(|(v, c)| v.as_f64().map(|x| (x, *c)))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: i64 = points.iter().map(|(_, c)| c).sum();
    let depth = (total / max_buckets as i64).max(1);
    let mut buckets: Vec<Bucket> = Vec::new();
    for (x, c) in points {
        let len = buckets.len();
        match buckets.last_mut() {
            Some(last) if last.count < depth && len <= max_buckets => {
                last.hi = x;
                last.count += c;
            }
            _ => buckets.push(Bucket {
                lo: x,
                hi: x,
                count: c,
            }),
        }
    }
    buckets
}

/// Are `buckets` in order: each bucket's bounds ordered (`lo <= hi`), and
/// each bucket ending where the next starts or before (`hi <= lo` of the
/// next)?  A NaN bound is in no order.  Buckets built from sorted points
/// are in order unless a point is NaN (`total_cmp` sorts it to an end),
/// extending an end bucket and merging two keep the order, and a split
/// keeps it while its midpoint lies between the bounds (it does not when
/// the sum of the bounds overflows, or is NaN for `-inf` and `inf`).
pub(super) fn in_order(buckets: &[Bucket]) -> bool {
    buckets.iter().all(|b| b.lo <= b.hi) && buckets.windows(2).all(|w| w[0].hi <= w[1].lo)
}

/// Fold one numeric point into the bucket list, splitting an overfull
/// bucket and merging the lightest adjacent pair when the bound is hit.
/// `ordered` says whether the buckets are [`in_order`]; the update keeps
/// it true only while they stay so.
///
/// The point lands in the first bucket holding it, or else in the first
/// bucket after the gap it falls in (in the first bucket for NaN).  Over
/// buckets in order that is the first bucket ending at or after the point,
/// found by binary search; otherwise by a scan.
pub(super) fn bucket_update(
    buckets: &mut Vec<Bucket>,
    ordered: &mut bool,
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
            *ordered = !x.is_nan();
        }
        return;
    }
    // Locate the bucket holding `x`, extending the boundary buckets for
    // out-of-range values.
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
    } else if *ordered {
        debug_assert!(in_order(buckets), "{buckets:?}");
        buckets.partition_point(|b| b.hi < x)
    } else {
        buckets
            .iter()
            .position(|b| x >= b.lo && x <= b.hi)
            .unwrap_or_else(|| {
                // `x` falls in a gap between buckets: attach to the
                // nearest following bucket.
                buckets.iter().position(|b| x < b.lo).unwrap_or(0)
            })
    };
    buckets[idx].count = (buckets[idx].count + sign).max(0);

    // Split a bucket holding more than twice the target depth, at its
    // midpoint (halving the count — the uniform assumption).
    let depth = (total / max_buckets as i64).max(1);
    if buckets[idx].count > 2 * depth && buckets[idx].hi > buckets[idx].lo {
        let b = buckets[idx].clone();
        let mid = (b.lo + b.hi) / 2.0;
        *ordered &= b.lo <= mid && mid <= b.hi;
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
    // Merge the lightest adjacent pair while over the bound.
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

/// Estimated rows strictly below `x`: full buckets plus linear
/// interpolation inside the straddling one.
fn rows_below(buckets: &[Bucket], x: f64) -> f64 {
    let mut rows = 0.0;
    for b in buckets {
        if x >= b.hi {
            rows += b.count as f64;
        } else if x > b.lo {
            let width = b.hi - b.lo;
            let frac = if width > 0.0 { (x - b.lo) / width } else { 0.5 };
            rows += b.count as f64 * frac;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_fraction(rows: &[i64], op: CmpOp, v: i64) -> f64 {
        let matching = rows
            .iter()
            .filter(|r| op.eval(&Value::Int(**r), &Value::Int(v)))
            .count();
        matching as f64 / rows.len() as f64
    }

    /// A deterministic pinned stream: quadratic residues mod a prime,
    /// skewed toward small values.
    fn pinned_stream(n: i64) -> Vec<i64> {
        (0..n).map(|i| (i * i) % 997).collect()
    }

    #[test]
    fn exact_mode_matches_recomputation_exactly() {
        let rows: Vec<i64> = (0..200).map(|i| i % 5).collect();
        let mut h = EquiDepthHistogram::new(32);
        for r in &rows {
            h.update(&Value::Int(*r), 1);
        }
        assert!(matches!(h.shape, Shape::Exact(_)));
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            for v in 0..6 {
                assert_eq!(
                    h.fraction(op, &Value::Int(v)).unwrap(),
                    exact_fraction(&rows, op, v),
                    "{op:?} {v}"
                );
            }
        }
    }

    #[test]
    fn exact_mode_folds_deletions() {
        let mut h = EquiDepthHistogram::new(32);
        for i in 0..100 {
            h.update(&Value::Int(i % 4), 1);
        }
        // Delete every row with value 0: its equality fraction is 0, the
        // others re-normalize against the shrunken total.
        for _ in 0..25 {
            h.update(&Value::Int(0), -1);
        }
        assert_eq!(h.total(), 75);
        assert_eq!(h.fraction(CmpOp::Eq, &Value::Int(0)).unwrap(), 0.0);
        let third = h.fraction(CmpOp::Eq, &Value::Int(1)).unwrap();
        assert!((third - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_mode_tracks_ranges_within_tolerance_on_a_pinned_stream() {
        let rows = pinned_stream(3000);
        let mut h = EquiDepthHistogram::new(32);
        for r in &rows {
            h.update(&Value::Int(*r), 1);
        }
        assert!(
            !matches!(h.shape, Shape::Exact(_)),
            "3000 skewed values must overflow the cap"
        );
        for v in [50, 200, 500, 900] {
            let est = h.fraction(CmpOp::Lt, &Value::Int(v)).unwrap();
            let exact = exact_fraction(&rows, CmpOp::Lt, v);
            assert!(
                (est - exact).abs() < 0.08,
                "Lt {v}: est {est:.3} vs exact {exact:.3}"
            );
        }
        // Equality over interpolated buckets declines to answer.
        assert_eq!(h.fraction(CmpOp::Eq, &Value::Int(50)), None);
    }

    #[test]
    fn bucket_mode_absorbs_signed_churn() {
        let mut h = EquiDepthHistogram::new(16);
        for i in 0..2000 {
            h.update(&Value::Int(i), 1);
        }
        // Retract the lower half: the mass shifts upward.
        for i in 0..1000 {
            h.update(&Value::Int(i), -1);
        }
        assert_eq!(h.total(), 1000);
        let below_mid = h.fraction(CmpOp::Lt, &Value::Int(1000)).unwrap();
        assert!(below_mid < 0.35, "lower half retracted, got {below_mid:.3}");
    }

    #[test]
    fn between_matches_exact_in_exact_mode() {
        let mut h = EquiDepthHistogram::new(32);
        for i in 0..100 {
            h.update(&Value::Int(i % 10), 1);
        }
        let f = h.between_fraction(&Value::Int(2), &Value::Int(4)).unwrap();
        assert!((f - 0.3).abs() < 1e-12);
        assert_eq!(
            h.between_fraction(&Value::Int(4), &Value::Int(2)),
            Some(0.0)
        );
    }

    #[test]
    fn high_cardinality_strings_go_opaque_not_wrong() {
        let mut h = EquiDepthHistogram::new(8);
        for i in 0..100 {
            h.update(&Value::str(format!("payload-{i}")), 1);
        }
        assert_eq!(h.fraction(CmpOp::Eq, &Value::str("payload-1")), None);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn bucket_count_stays_bounded() {
        let mut h = EquiDepthHistogram::new(8);
        for i in 0..5000 {
            h.update(&Value::Int((i * 37) % 4001), 1);
        }
        if let Shape::Buckets { buckets: b, .. } = &h.shape {
            assert!(b.len() <= 8, "bucket bound violated: {}", b.len());
        } else {
            panic!("expected bucket mode");
        }
    }

    #[test]
    fn empty_histogram_declines() {
        let h = EquiDepthHistogram::default();
        assert_eq!(h.fraction(CmpOp::Eq, &Value::Int(1)), None);
        assert_eq!(h.between_fraction(&Value::Int(0), &Value::Int(1)), None);
    }
}
