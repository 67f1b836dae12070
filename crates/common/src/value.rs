//! Field values of relational tuples.
//!
//! The workloads the paper evaluates — STBenchmark mapping scenarios and
//! TPC-H OLAP queries — need integers, decimals, dates and (many, long)
//! strings.  [`Value`] covers those, plus `Null`, with:
//!
//! * total ordering and hashing (doubles are compared via their IEEE-754
//!   total order so values can key hash tables in joins and aggregates),
//! * serialized-size accounting, which is what the network-traffic
//!   measurements of Figures 8/9/11/12/15/16/19/20 count, and
//! * the scalar operations the `Compute-function` operator and the
//!   aggregate operator need (concatenation, arithmetic, min/max/sum).

use std::cmp::Ordering;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single field value.
///
/// Immutable, and cheap to clone: numbers are copied and a string is
/// shared by pointer (`Arc<str>`), so a clone bumps a reference count.
/// A string is allocated once — where it is generated or computed — and
/// the same allocation then serves the store, the interned-string pool of
/// every batch it passes through ([`crate::StringPool::intern_shared`]),
/// the answer, the result cache and every cache hit.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (also used for dates, encoded as days since
    /// 1970-01-01, matching how TPC-H predicates compare dates).
    Int(i64),
    /// Double-precision float (TPC-H prices, discounts, aggregates).
    Double(f64),
    /// Variable-length string (STBenchmark's 25-character fields, TPC-H
    /// comments, names, flags).  Shared, never copied, by `clone`.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view (returns `None` for non-integers).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view: integers are widened to doubles.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number of bytes this value occupies in the wire format used by the
    /// engine's batched tuple shipping (a 1-byte type tag plus the payload;
    /// strings carry a 4-byte length prefix).  Network-traffic figures are
    /// sums of these sizes (before compression).
    pub fn serialized_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 1 + 8,
            Value::Double(_) => 1 + 8,
            Value::Str(s) => 1 + 4 + s.len(),
        }
    }

    /// Append the wire encoding of this value to `out`.  Used both for
    /// real data shipping in the simulator and for computing stable hash
    /// keys of composite tuple keys.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        self.encode_with(|bytes| out.extend_from_slice(bytes));
    }

    /// Hand the wire encoding of this value to `sink`, piece by piece —
    /// [`Value::encode_to`] for consumers that do not want a buffer (key
    /// hashing streams the pieces straight into SHA-1).
    pub(crate) fn encode_with(&self, mut sink: impl FnMut(&[u8])) {
        match self {
            Value::Null => sink(&[0]),
            Value::Int(v) => {
                sink(&[1]);
                sink(&v.to_be_bytes());
            }
            Value::Double(v) => {
                sink(&[2]);
                sink(&v.to_be_bytes());
            }
            Value::Str(s) => {
                sink(&[3]);
                sink(&(s.len() as u32).to_be_bytes());
                sink(s.as_bytes());
            }
        }
    }

    /// [`Value::encode_with`] in the canonical form ring keys are hashed
    /// from: a double equal to an integer ([`integral`]) is encoded as
    /// that `Int`.  `Int(2)` and `Double(2.0)` compare equal, join and
    /// group together, and so must route to one node.
    pub(crate) fn encode_key_with(&self, sink: impl FnMut(&[u8])) {
        match self {
            Value::Double(v) => match integral(*v) {
                Some(i) => Value::Int(i).encode_with(sink),
                None => self.encode_with(sink),
            },
            _ => self.encode_with(sink),
        }
    }

    /// Addition for numeric values (used by SUM); any NULL operand yields
    /// the other operand, matching SQL aggregate semantics of ignoring
    /// NULLs.
    pub fn add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Null, v) | (v, Value::Null) => v.clone(),
            (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Double(x + y),
                _ => Value::Null,
            },
        }
    }

    /// Multiplication for numeric values (used by compute-function
    /// expressions such as `extendedprice * (1 - discount)`).
    pub fn mul(&self, other: &Value) -> Value {
        match (self.as_f64(), other.as_f64()) {
            (Some(x), Some(y)) => match (self, other) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a * b),
                _ => Value::Double(x * y),
            },
            _ => Value::Null,
        }
    }

    /// Subtraction for numeric values.
    pub fn sub(&self, other: &Value) -> Value {
        match (self.as_f64(), other.as_f64()) {
            (Some(x), Some(y)) => match (self, other) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a - b),
                _ => Value::Double(x - y),
            },
            _ => Value::Null,
        }
    }

    /// String concatenation (the STBenchmark "Concatenate" scenario glues
    /// three attributes together); non-string operands are rendered with
    /// `Display`.
    pub fn concat(&self, other: &Value) -> Value {
        let mut out = String::new();
        self.write_to(&mut out);
        other.write_to(&mut out);
        Value::str(out)
    }

    /// Append this value's `Display` rendering to `out` without a
    /// temporary: a string is `push_str`ed, a number formatted in place.
    /// Concatenation renders every part of a row into one buffer with it.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Value::Str(s) => out.push_str(s),
            // Writing to a `String` cannot fail.
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Double(_) => 1, // numerics compare against each other
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Double(b)) => cmp_int_double(*a, *b),
            (Value::Double(a), Value::Int(b)) => cmp_int_double(*b, *a).reverse(),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            // Hash the canonical integer form when the double is integral
            // so Int(2) and Double(2.0) (which compare equal) also hash
            // identically.
            Value::Double(v) => match integral(*v) {
                Some(i) => {
                    1u8.hash(state);
                    i.hash(state);
                }
                None => {
                    2u8.hash(state);
                    v.to_bits().hash(state);
                }
            },
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Compare an `Int` with a `Double` exactly, as [`Value`]'s order does: by
/// their values, not by the double nearest the integer, so that `==` is
/// transitive past 2^53.  Where `i as f64` is exact (|i| ≤ 2^53) this is
/// `(i as f64).total_cmp(&d)`, so the double's side keeps `total_cmp`'s
/// order: a NaN below every integer when its sign is negative and above
/// when positive, and `-0.0` just below `0`.
#[inline]
pub fn cmp_int_double(i: i64, d: f64) -> Ordering {
    // 2^63, the first double past `i64::MAX`.
    const END: f64 = 9_223_372_036_854_775_808.0;
    if i.unsigned_abs() <= 1 << 53 {
        return (i as f64).total_cmp(&d);
    }
    if d.is_nan() {
        return if d.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if d >= END {
        Ordering::Less
    } else if d < -END {
        Ordering::Greater
    } else {
        // A double past 2^53 is integral and `i` is past it, so truncating
        // `d` (exact in `-2^63..2^63`) decides.
        i.cmp(&(d as i64))
    }
}

/// The integer a double stands for where both numeric types must agree —
/// hashing ([`Hash`] for [`Value`]) and ring keys: the double's value if
/// it is finite, integral and within `i64`'s range (`2^63`, just past it,
/// saturates to `i64::MAX`, with which it hashes and routes, though it
/// compares above it: sharing a hash needs no equality).
pub fn integral(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.is_finite() && v >= i64::MIN as f64 && v <= i64::MAX as f64)
        .then_some(v as i64)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_and_equal_double_compare_and_hash_alike() {
        let a = Value::Int(42);
        let b = Value::Double(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("abc") < Value::str("abd"));
        assert!(Value::Double(1.5) < Value::Int(2));
    }

    #[test]
    fn serialized_size_counts_string_payload() {
        assert_eq!(Value::Null.serialized_size(), 1);
        assert_eq!(Value::Int(7).serialized_size(), 9);
        assert_eq!(Value::str("hello").serialized_size(), 1 + 4 + 5);
    }

    #[test]
    fn encode_is_prefix_free_per_value() {
        let mut a = Vec::new();
        Value::str("ab").encode_to(&mut a);
        let mut b = Vec::new();
        Value::str("a").encode_to(&mut b);
        Value::str("b").encode_to(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn arithmetic_and_concat() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Double(1.5)), Value::Double(3.0));
        assert_eq!(Value::Int(7).sub(&Value::Int(2)), Value::Int(5));
        assert_eq!(Value::str("a").concat(&Value::Int(1)), Value::str("a1"));
        // NULL behaves as the identity for add (SQL aggregates skip NULLs).
        assert_eq!(Value::Null.add(&Value::Int(3)), Value::Int(3));
    }

    #[test]
    fn as_views() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::str("x").as_int(), None);
    }

    /// Numbers at the edges of exactness: around ±2^53, where `i64` stops
    /// being exact in a double, and ±2^63, where it ends; NaNs of both
    /// signs, both zeros, infinities, fractions and integral doubles.
    fn edge_values() -> Vec<Value> {
        let p53 = 1i64 << 53;
        let mut ints = vec![0, 1, -1, 2, i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1];
        for base in [p53, -p53, 1 << 62, -(1 << 62)] {
            ints.extend([base - 2, base - 1, base, base + 1, base + 2]);
        }
        let p53 = p53 as f64;
        let p63 = 9_223_372_036_854_775_808.0;
        let mut doubles = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            p63,
            -p63,
            2.0 * p63,
            -2.0 * p63,
            4_611_686_018_427_387_904.0,
            -4_611_686_018_427_387_904.0,
        ];
        for base in [p53, -p53] {
            doubles.extend([base - 2.0, base - 1.0, base, base + 2.0, base + 4.0]);
        }
        let mut values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
        values.extend(doubles.into_iter().map(Value::Double));
        values.extend([Value::Null, Value::str("x")]);
        values
    }

    #[test]
    fn int_and_double_compare_exactly_and_consistently() {
        let values = edge_values();
        for a in &values {
            for b in &values {
                let order = a.cmp(b);
                assert_eq!(a == b, order == Ordering::Equal, "{a:?} == {b:?}");
                assert_eq!(b.cmp(a), order.reverse(), "{a:?} against {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} and {b:?} hash alike");
                }
                // Where the integer is a double exactly, the old rule.
                if let (Value::Int(i), Value::Double(d)) = (a, b) {
                    if i.unsigned_abs() <= 1 << 53 {
                        assert_eq!(order, (*i as f64).total_cmp(d), "{i} against {d}");
                    }
                }
                for c in &values {
                    if a == b && b == c {
                        assert_eq!(a, c, "{a:?} == {b:?} == {c:?}");
                    }
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        // A sort orders every pair, whatever order it starts from.
        for start in [values.clone(), values.iter().rev().cloned().collect()] {
            let mut sorted = start;
            sorted.sort();
            for (i, a) in sorted.iter().enumerate() {
                assert!(sorted[i..].iter().all(|b| a <= b), "{a:?} sorted too late");
            }
        }
        // 2^53 + 1 is no double: it is not the double nearest it.
        let (big, near) = (
            Value::Int((1 << 53) + 1),
            Value::Double((1u64 << 53) as f64),
        );
        assert!(big != near && big > near);
        assert!(Value::Int(i64::MAX) < Value::Double(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Double(-9_223_372_036_854_775_808.0)
        );
    }
}
