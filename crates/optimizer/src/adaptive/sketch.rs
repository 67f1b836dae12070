//! KMV (k-minimum-values) distinct-count sketches over the in-tree SHA-1.
//!
//! The sketch keeps the `k` smallest 64-bit hashes of the values it has
//! seen, each with a signed multiplicity so deletions fold.  Below `k`
//! distinct values the count is **exact** (every hash is tracked); past
//! saturation the classic estimator `(k-1) / h_k` applies, where `h_k`
//! is the largest tracked hash normalized into `(0, 1]`.  Deletions are
//! graceful rather than perfect: retracting a tracked value frees its
//! slot, retracting an untracked one is a no-op, and a saturated sketch
//! whose tracked set shrinks keeps estimating from what remains — the
//! estimate degrades smoothly instead of going wrong.
//!
//! Hashing is the workspace's own [`orchestra_common::sha1`] over the
//! value's ring-key encoding (its wire encoding, with a double equal to
//! an integer encoded as that `Int`, so that `Int(2)` and `Double(2.0)`
//! count once), so the sketch is deterministic across runs and platforms
//! — a hard requirement for the byte-exact determinism gates.  The value
//! is hashed as a one-value ring key ([`hash_values`]), never written to
//! a heap buffer.  The hash depends on the value alone, so a caller that
//! folds a column of cells hashes each distinct value once (adaptive
//! statistics hash a delta's distinct values a batch at a time with
//! `ColumnarBatch::hash_columns_at`, and read a one-column key's hash off
//! the ring position its page entry cached) and hands the sketch the
//! hash.

use orchestra_common::tuple::hash_values;
use orchestra_common::Value;
use std::collections::BTreeMap;
use std::iter;

/// Default number of minimum hashes retained.
pub const DEFAULT_K: usize = 64;

/// A deterministic distinct-count sketch with signed multiplicities.
#[derive(Clone, Debug, PartialEq)]
pub struct KmvSketch {
    k: usize,
    /// The smallest hashes seen, each with its signed multiplicity.
    hashes: BTreeMap<u64, i64>,
    /// Has any hash ever been rejected or evicted?  Once true, the
    /// tracked set is a sample and the estimator takes over.
    saturated: bool,
}

/// The 64-bit hash of one value: the top 64 bits of its ring key, the
/// first eight bytes of the SHA-1 of its key encoding.
fn hash_value(value: &Value) -> u64 {
    hash_values(iter::once(value)).top64()
}

impl Default for KmvSketch {
    fn default() -> Self {
        KmvSketch::new(DEFAULT_K)
    }
}

impl KmvSketch {
    /// A fresh sketch tracking the `k` smallest hashes.
    pub fn new(k: usize) -> KmvSketch {
        KmvSketch {
            k: k.max(2),
            hashes: BTreeMap::new(),
            saturated: false,
        }
    }

    /// Fold one value with a delta sign (`+1` insert, `-1` delete).
    pub fn update(&mut self, value: &Value, sign: i64) {
        if value.is_null() {
            return;
        }
        self.update_hash(hash_value(value), sign);
    }

    /// [`Self::update`] of a non-NULL value whose hash the caller has: the
    /// top 64 bits of the value's ring key.  A caller folding many cells
    /// hashes each distinct value once and folds its cells in their order.
    pub(crate) fn update_hash(&mut self, h: u64, sign: i64) {
        // In a full sketch, a hash above the largest tracked one is not
        // tracked and would not be admitted: only the saturation mark can
        // change, and the map is not consulted.
        let full = self.hashes.len() >= self.k;
        if let Some((&largest, _)) = self.hashes.last_key_value().filter(|_| full) {
            if h > largest {
                self.saturated |= sign > 0;
                return;
            }
        }
        if sign > 0 {
            if let Some(count) = self.hashes.get_mut(&h) {
                *count += sign;
            } else if self.hashes.len() < self.k {
                self.hashes.insert(h, sign);
            } else {
                // The map is full, so it has a largest hash (`k >= 2`).
                if let Some(&largest) = self.hashes.keys().next_back().filter(|&&l| h < l) {
                    self.hashes.remove(&largest);
                    self.hashes.insert(h, sign);
                }
                self.saturated = true;
            }
        } else if let Some(count) = self.hashes.get_mut(&h) {
            *count += sign;
            if *count <= 0 {
                self.hashes.remove(&h);
            }
        }
    }

    /// The estimated number of distinct values, exact while unsaturated.
    pub fn distinct(&self) -> f64 {
        let tracked = self.hashes.len();
        let estimated = self.saturated && tracked >= 2;
        let Some(&largest) = self.hashes.keys().next_back().filter(|_| estimated) else {
            return tracked as f64;
        };
        // Normalize into (0, 1]; +1 keeps a zero hash off the origin.
        let h_k = (largest as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        ((tracked as f64 - 1.0) / h_k).max(tracked as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{rng, sha1};

    /// The hash as first written: encode into a buffer, SHA-1 the buffer —
    /// the key encoding, in which a double equal to an integer is encoded
    /// as that `Int`.
    fn buffered_hash(value: &Value) -> u64 {
        let keyed = match value {
            Value::Double(v)
                if v.fract() == 0.0
                    && v.is_finite()
                    && *v >= i64::MIN as f64
                    && *v <= i64::MAX as f64 =>
            {
                Value::Int(*v as i64)
            }
            other => other.clone(),
        };
        let mut encoded = Vec::new();
        keyed.encode_to(&mut encoded);
        u64::from_be_bytes(sha1::sha1(&encoded)[..8].try_into().unwrap())
    }

    /// [`KmvSketch::update`] without the early-out for hashes above a full
    /// sketch's largest.
    fn update_without_early_out(s: &mut KmvSketch, value: &Value, sign: i64) {
        if value.is_null() {
            return;
        }
        let h = buffered_hash(value);
        if sign > 0 {
            if let Some(count) = s.hashes.get_mut(&h) {
                *count += sign;
            } else if s.hashes.len() < s.k {
                s.hashes.insert(h, sign);
            } else {
                let largest = *s.hashes.keys().next_back().unwrap();
                if h < largest {
                    s.hashes.remove(&largest);
                    s.hashes.insert(h, sign);
                }
                s.saturated = true;
            }
        } else if let Some(count) = s.hashes.get_mut(&h) {
            *count += sign;
            if *count <= 0 {
                s.hashes.remove(&h);
            }
        }
    }

    #[test]
    fn the_hash_is_the_sha1_of_the_encoding_without_a_buffer() {
        for value in [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(1.5),
            Value::Double(2.0),
            Value::Double(9_223_372_036_854_775_808.0),
            Value::Double(f64::INFINITY),
            Value::str(""),
            Value::str("x".repeat(50)),
            Value::str("x".repeat(51)),
            Value::str("x".repeat(56)),
            Value::str("a string of well over fifty-five bytes, so it spans two blocks"),
        ] {
            assert_eq!(hash_value(&value), buffered_hash(&value), "{value:?}");
        }
        // A double that equals an integer counts as that integer.
        assert_eq!(hash_value(&Value::Double(2.0)), hash_value(&Value::Int(2)));
        assert_ne!(hash_value(&Value::Double(2.5)), hash_value(&Value::Int(2)));
    }

    #[test]
    fn the_early_out_changes_nothing_on_a_saturating_signed_stream() {
        let mut r = rng::seeded(0x4b3f);
        for k in [2, 8, 64] {
            let (mut fast, mut reference) = (KmvSketch::new(k), KmvSketch::new(k));
            for step in 0..5_000 {
                let value = match r.random_range(0u8..10) {
                    0 => Value::Null,
                    1..=3 => Value::str(format!("s{}", r.random_range(0u32..400))),
                    _ => Value::Int(r.random_range(0u32..1_000).into()),
                };
                let sign = if r.random_bool(0.3) { -1 } else { 1 };
                fast.update(&value, sign);
                update_without_early_out(&mut reference, &value, sign);
                assert_eq!(fast, reference, "k = {k}, step {step}");
            }
            assert!(fast.saturated, "k = {k}");
        }
    }

    #[test]
    fn exact_below_k() {
        let mut s = KmvSketch::new(64);
        for i in 0..50 {
            s.update(&Value::Int(i), 1);
            s.update(&Value::Int(i), 1); // duplicates do not inflate
        }
        assert!(!s.saturated);
        assert_eq!(s.distinct(), 50.0);
    }

    #[test]
    fn deletions_fold_exactly_below_k() {
        let mut s = KmvSketch::new(64);
        for i in 0..40 {
            s.update(&Value::Int(i), 1);
        }
        for i in 0..10 {
            s.update(&Value::Int(i), -1);
        }
        assert_eq!(s.distinct(), 30.0);
        // Deleting an unseen value is a no-op.
        s.update(&Value::Int(999), -1);
        assert_eq!(s.distinct(), 30.0);
    }

    #[test]
    fn saturated_estimate_stays_within_error_bounds() {
        // k = 64 gives an expected relative standard error of about
        // 1/sqrt(k-2) ~ 13%; the deterministic SHA-1 stream is pinned, so
        // a generous 35% bound can never flake.
        for n in [500i64, 2000, 10000] {
            let mut s = KmvSketch::new(64);
            for i in 0..n {
                s.update(&Value::Int(i), 1);
            }
            assert!(s.saturated);
            let est = s.distinct();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.35, "n={n}: estimate {est:.0}, error {err:.3}");
        }
    }

    #[test]
    fn estimates_are_deterministic_and_type_sensitive() {
        let build = |n: i64| {
            let mut s = KmvSketch::new(16);
            for i in 0..n {
                s.update(&Value::str(format!("v{i}")), 1);
            }
            s.distinct()
        };
        assert_eq!(build(1000), build(1000));
        // Int(1) and Str("1") encode differently and hash apart.
        let mut s = KmvSketch::new(16);
        s.update(&Value::Int(1), 1);
        s.update(&Value::str("1"), 1);
        assert_eq!(s.distinct(), 2.0);
    }

    #[test]
    fn saturated_deletions_degrade_gracefully() {
        let mut s = KmvSketch::new(8);
        for i in 0..100 {
            s.update(&Value::Int(i), 1);
        }
        let before = s.distinct();
        assert!(before > 8.0);
        // Retract values until tracked slots free up: the estimate keeps
        // answering and never goes negative or NaN.
        for i in 0..100 {
            s.update(&Value::Int(i), -1);
        }
        let after = s.distinct();
        assert!(after.is_finite() && after >= 0.0);
        assert!(after <= before);
    }
}
