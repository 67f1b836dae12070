//! `Value` and `Tuple` behave as their `String`- and `Vec`-backed
//! ancestors did.
//!
//! The payload of `Value::Str` became an `Arc<str>` and a `Tuple`'s row an
//! `Arc<[Value]>`; nothing a reader can observe may have moved with them:
//! the order (strings by bytes, numbers across `Int` and `Double`), the
//! hash (`Int(2)` and `Double(2.0)` alike), the wire encoding and its size
//! (every simulated traffic figure is a sum of these, and SHA-1 routing
//! hashes the encoding, integral doubles keyed as the `Int` they equal)
//! and the rendering.  `Reference` is the old representation with the
//! old implementations, kept here as the oracle.

use orchestra_common::tuple::hash_values;
use orchestra_common::{rng, Key160, Tuple, Value};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// `Value` as it was: an owned `String` payload.
#[derive(Clone, Debug)]
enum Reference {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
}

impl Reference {
    fn of(v: &Value) -> Reference {
        match v {
            Value::Null => Reference::Null,
            Value::Int(x) => Reference::Int(*x),
            Value::Double(x) => Reference::Double(*x),
            Value::Str(s) => Reference::Str(s.to_string()),
        }
    }

    fn serialized_size(&self) -> usize {
        match self {
            Reference::Null => 1,
            Reference::Int(_) | Reference::Double(_) => 1 + 8,
            Reference::Str(s) => 1 + 4 + s.len(),
        }
    }

    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Reference::Null => out.push(0),
            Reference::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Reference::Double(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Reference::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// The encoding ring keys hash: the wire encoding, but a double that
    /// the hash above files under an integer is encoded as that `Int`.
    fn key_encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Reference::Double(v)
                if v.fract() == 0.0
                    && v.is_finite()
                    && *v >= i64::MIN as f64
                    && *v <= i64::MAX as f64 =>
            {
                Reference::Int(*v as i64).encode_to(out)
            }
            other => other.encode_to(out),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Reference::Null => 0,
            Reference::Int(_) | Reference::Double(_) => 1,
            Reference::Str(_) => 2,
        }
    }
}

impl PartialEq for Reference {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Reference {}

impl Ord for Reference {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Reference::Null, Reference::Null) => Ordering::Equal,
            (Reference::Int(a), Reference::Int(b)) => a.cmp(b),
            (Reference::Str(a), Reference::Str(b)) => a.cmp(b),
            (Reference::Double(a), Reference::Double(b)) => a.total_cmp(b),
            (Reference::Int(a), Reference::Double(b)) => (*a as f64).total_cmp(b),
            (Reference::Double(a), Reference::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialOrd for Reference {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Reference {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Reference::Null => 0u8.hash(state),
            Reference::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Reference::Double(v) => {
                if v.fract() == 0.0
                    && v.is_finite()
                    && *v >= i64::MIN as f64
                    && *v <= i64::MAX as f64
                {
                    1u8.hash(state);
                    (*v as i64).hash(state);
                } else {
                    2u8.hash(state);
                    v.to_bits().hash(state);
                }
            }
            Reference::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Reference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reference::Null => write!(f, "NULL"),
            Reference::Int(v) => write!(f, "{v}"),
            Reference::Double(v) => write!(f, "{v:.4}"),
            Reference::Str(s) => write!(f, "{s}"),
        }
    }
}

/// `Tuple` as it was: a `Vec` of values with everything derived.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ReferenceTuple {
    values: Vec<Reference>,
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// 1,000 seeded values: every variant, small domains so that equal
/// values, equal-across-type numbers and strings that are prefixes of one
/// another all occur many times, plus the awkward numbers.
fn seeded_values() -> Vec<Value> {
    let mut r = rng::seeded(0x5eed_2300);
    let mut values = vec![
        Value::Null,
        Value::str(""),
        Value::str("a"),
        Value::str("ab"),
        Value::str("b"),
        Value::str("é"),
        Value::str("\u{10348}z"),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(2),
        Value::Double(2.0),
        Value::Double(-0.0),
        Value::Double(0.0),
        Value::Double(f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(f64::NEG_INFINITY),
        Value::Double(9.3e18),
        Value::Double(1e300),
        Value::Double(0.00004),
    ];
    while values.len() < 1_000 {
        values.push(match r.random_range(0..10u32) {
            0 => Value::Null,
            1..=3 => Value::Int(r.random_range(0..40u64) as i64 - 20),
            4 => Value::Int(r.next_u64() as i64),
            5 => Value::Double(r.random_range(0..40u64) as f64 - 20.0),
            6 => Value::Double(r.random_range(0..4_000u64) as f64 / 100.0 - 20.0),
            7 => Value::str(rng::alphanumeric(&mut r, 25)),
            _ => {
                let len = r.random_range(0..4usize);
                Value::str(rng::word(&mut r, len, len))
            }
        });
    }
    values
}

#[test]
fn values_order_hash_encode_and_render_as_the_string_backed_ones_did() {
    let values = seeded_values();
    let references: Vec<Reference> = values.iter().map(Reference::of).collect();
    for (v, r) in values.iter().zip(&references) {
        assert_eq!(hash_of(v), hash_of(r), "hash of {v:?}");
        assert_eq!(v.serialized_size(), r.serialized_size(), "size of {v:?}");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        v.encode_to(&mut got);
        r.encode_to(&mut want);
        assert_eq!(got, want, "encoding of {v:?}");
        assert_eq!(got.len(), v.serialized_size());
        assert_eq!(v.to_string(), r.to_string(), "rendering of {v:?}");
        // Rendering into a buffer — what concatenation does — is the
        // same bytes, appended.
        let mut out = String::from("|");
        v.write_to(&mut out);
        assert_eq!(out, format!("|{r}"));
        v.write_to(&mut out);
        assert_eq!(out, format!("|{r}{r}"));
    }
    // All million ordered pairs.
    let mut equal_across_types = 0;
    for (a, ra) in values.iter().zip(&references) {
        for (b, rb) in values.iter().zip(&references) {
            assert_eq!(a.cmp(b), ra.cmp(rb), "{a:?} against {b:?}");
            assert_eq!(a == b, ra == rb);
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{a:?} equals {b:?}");
                if matches!((a, b), (Value::Int(_), Value::Double(_))) {
                    equal_across_types += 1;
                }
            }
        }
    }
    assert!(equal_across_types > 100, "Int(2) == Double(2.0) was tried");
    // A sort is the same permutation.
    let mut sorted = values.clone();
    sorted.sort();
    let mut sorted_references = references.clone();
    sorted_references.sort();
    let rendered: Vec<String> = sorted.iter().map(Value::to_string).collect();
    let wanted: Vec<String> = sorted_references.iter().map(Reference::to_string).collect();
    assert_eq!(rendered, wanted);
}

#[test]
fn tuples_compare_hash_and_route_as_the_vec_backed_ones_did() {
    let values = seeded_values();
    let mut r = rng::seeded(0x5eed_2301);
    // Rows of 0–4 values drawn from a small part of the domain, so that
    // equal rows and rows that are prefixes of one another occur.
    let rows: Vec<Vec<Value>> = (0..1_000)
        .map(|_| {
            let arity = r.random_range(0..5usize);
            (0..arity)
                .map(|_| values[r.random_range(0..60usize)].clone())
                .collect()
        })
        .collect();
    let tuples: Vec<Tuple> = rows.iter().cloned().map(Tuple::new).collect();
    let references: Vec<ReferenceTuple> = rows
        .iter()
        .map(|row| ReferenceTuple {
            values: row.iter().map(Reference::of).collect(),
        })
        .collect();
    for ((t, rt), row) in tuples.iter().zip(&references).zip(&rows) {
        assert_eq!(hash_of(t), hash_of(rt), "hash of {t}");
        // A row collected straight into its shared slice is the row.
        assert_eq!(&row.iter().cloned().collect::<Tuple>(), t);
        assert_eq!(t.values(), &row[..]);
        // Wire size and encoding: the column count, then each value's.
        let mut want = (rt.values.len() as u16).to_be_bytes().to_vec();
        rt.values.iter().for_each(|v| v.encode_to(&mut want));
        let mut got = Vec::new();
        t.encode_to(&mut got);
        assert_eq!(got, want, "encoding of {t}");
        assert_eq!(t.serialized_size(), want.len());
        // SHA-1 routing hashes the values' key encodings, no count: the
        // wire encoding but for integral doubles, which key as the `Int`
        // they equal.
        let mut key = Vec::new();
        rt.values.iter().for_each(|v| v.key_encode_to(&mut key));
        assert_eq!(hash_values(t.values()), Key160::hash(&key), "{t}");
    }
    let mut equal = 0;
    for (a, ra) in tuples.iter().zip(&references) {
        for (b, rb) in tuples.iter().zip(&references) {
            assert_eq!(a.cmp(b), ra.cmp(rb), "{a} against {b}");
            assert_eq!(a == b, ra == rb);
            if a == b {
                // Equal rows route to one node.
                assert_eq!(
                    hash_values(a.values()),
                    hash_values(b.values()),
                    "{a} equals {b}"
                );
            }
            equal += usize::from(a == b);
        }
    }
    assert!(equal > tuples.len(), "some distinct rows were equal");
}
