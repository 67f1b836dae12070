//! Tuples, tuple identifiers, and epochs.
//!
//! Section IV of the paper requires that "each tuple must be uniquely
//! identifiable using a tuple identifier that includes its version", that
//! the tuple's hash key be derivable from (a subset of) the attributes in
//! its ID, and that versions be tracked by a logical timestamp — the
//! *epoch* — that "advances after each batch of updates is published by a
//! peer".  This module provides:
//!
//! * [`Epoch`] — the logical publication timestamp,
//! * [`TupleId`] — `(key attribute values, epoch of last modification)`,
//!   e.g. `⟨f, 1⟩` in the paper's running example, and
//! * [`Tuple`] — a row of [`Value`]s carried through storage and the query
//!   engine, with serialized-size accounting and key/hash extraction.

use crate::key::Key160;
use crate::sha1::Sha1;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A logical timestamp that advances each time a participant publishes a
/// batch of updates (paper Section IV).  Epoch 0 is the first publication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch following this one.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// The epoch preceding this one, or `None` at epoch 0.
    pub fn prev(self) -> Option<Epoch> {
        self.0.checked_sub(1).map(Epoch)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The unique identifier of a tuple version: the tuple's key attribute
/// values plus the epoch in which that version was created.
///
/// The key is shared by pointer (`Arc<[Value]>`), like a [`Tuple`]'s row:
/// `clone` bumps one reference count.  An ID is copied wherever a version
/// is listed — every later version of its index page, every epoch delta,
/// every replica — and all of those hold the one key allocation made when
/// the version was published.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Values of the partitioning-key attributes.
    pub key: Arc<[Value]>,
    /// Epoch in which this version of the tuple was last modified.
    pub epoch: Epoch,
}

impl TupleId {
    /// Build a tuple ID from key values (a `Vec`, a slice to copy, or a
    /// shared key) and an epoch.
    pub fn new(key: impl Into<Arc<[Value]>>, epoch: Epoch) -> Self {
        TupleId {
            key: key.into(),
            epoch,
        }
    }

    /// The ring position of this tuple, derived — as the paper requires —
    /// from the key attributes only, so that every version of the same
    /// logical tuple hashes to the same place and can be found from its ID.
    pub fn hash_key(&self) -> Key160 {
        hash_values(self.key.iter())
    }

    /// Wire size of the ID (used when index pages list tuple IDs).
    pub fn serialized_size(&self) -> usize {
        8 + self.key.iter().map(Value::serialized_size).sum::<usize>()
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ",{}⟩", self.epoch.0)
    }
}

/// One entry of an index page: the ID of a tuple version together with
/// the ring position of its key and the version's slot.
///
/// The position is a pure function of `id.key`, but computing it costs a
/// SHA-1, and the read path needs it for every listed tuple (range
/// filter, data-node lookup).  It is therefore computed **once**, when
/// the version is published — publication hashes the key anyway to pick
/// the partition — and then travels with the ID: into every later
/// version of the page, into epoch deltas, to every replica.  Readers
/// never hash.
///
/// The slot is the number publication gave the version within its
/// relation: the storage layer keeps the version's body in the run of the
/// relation's log that numbered it, and a node holds the version when its
/// bit for that number is set.  One ID has one slot, so two entries with the
/// same ID are equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageEntry {
    /// The tuple version listed.
    pub id: TupleId,
    /// `id.hash_key()`, cached.
    pub position: Key160,
    /// The version's number among its relation's tuple versions.
    pub slot: u32,
}

impl PageEntry {
    /// List `id`, stored at `slot`, at the ring position the caller
    /// already computed for its key.
    pub fn new(id: TupleId, position: Key160, slot: u32) -> PageEntry {
        debug_assert_eq!(position, id.hash_key(), "cached position of {id}");
        PageEntry { id, position, slot }
    }

    /// List `id`, stored at `slot`, hashing its key to find the position.
    /// For callers that have no position at hand (tests, tools);
    /// publication and page versioning use [`PageEntry::new`] and carry
    /// positions forward.
    pub fn hashed(id: TupleId, slot: u32) -> PageEntry {
        let position = id.hash_key();
        PageEntry { id, position, slot }
    }
}

/// Hash a sequence of values onto the key ring.  This is the hash used for
/// data partitioning, for rehash (exchange) routing, and for locating
/// tuples by key: the SHA-1 of the values' wire encodings, one after the
/// other, where a double equal to an integer is encoded as that `Int`
/// (`Value::encode_key_with`), so that values which compare equal share
/// a ring position.
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Key160 {
    let mut hasher = Sha1::new();
    for v in values {
        v.encode_key_with(|bytes| hasher.update(bytes));
    }
    Key160::from_words(hasher.finish_words())
}

/// A relational tuple: an ordered row of values.
///
/// Tuples are deliberately plain data — provenance tags, phases and other
/// execution metadata are carried alongside tuples by the engine rather
/// than inside them, so the storage layer stores exactly the user data.
///
/// A tuple is immutable and its row is shared by pointer
/// (`Arc<[Value]>`): `clone` bumps one reference count and allocates
/// nothing, so the row built when an answer leaves its batch is the row
/// the report, the result cache and every cache hit hand out.  (The one
/// place that wants a copy with bytes of its own — publication into the
/// store — builds it explicitly.)
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from a row of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `i`.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The leading `key_len` values, i.e. the partitioning key.
    pub fn key(&self, key_len: usize) -> &[Value] {
        &self.values[..key_len]
    }

    /// Ring position of the tuple given its key length.
    pub fn hash_key(&self, key_len: usize) -> Key160 {
        hash_values(self.key(key_len))
    }

    /// Ring position computed over an arbitrary subset of columns; used by
    /// the rehash operator, which partitions "by hashing on some subset of
    /// the tuples' attributes".
    pub fn hash_columns(&self, columns: &[usize]) -> Key160 {
        hash_values(columns.iter().map(|c| &self.values[*c]))
    }

    /// Tuple ID for this tuple at `epoch`, with the first `key_len`
    /// columns as the key.
    pub fn id(&self, key_len: usize, epoch: Epoch) -> TupleId {
        TupleId::new(self.key(key_len), epoch)
    }

    /// Project the tuple onto the given column indices.
    pub fn project(&self, columns: &[usize]) -> Tuple {
        columns.iter().map(|c| self.values[*c].clone()).collect()
    }

    /// Concatenate two tuples (used by joins to form output rows).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values.iter().chain(&*other.values).cloned().collect()
    }

    /// Wire size of the tuple in the engine's batch format: a 2-byte
    /// column count plus each value's encoding.  This is what the
    /// network-traffic figures count.
    pub fn serialized_size(&self) -> usize {
        2 + self
            .values
            .iter()
            .map(Value::serialized_size)
            .sum::<usize>()
    }

    /// Append the wire encoding of the tuple to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.values.len() as u16).to_be_bytes());
        for v in self.values.iter() {
            v.encode_to(out);
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Collect a row straight into its shared slice: an iterator of known
/// length (a mapped range or slice — the way a row leaves a batch) fills
/// the `Arc<[Value]>` in one allocation, with no `Vec` in between.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn epoch_advances_and_rewinds() {
        let e = Epoch(3);
        assert_eq!(e.next(), Epoch(4));
        assert_eq!(e.prev(), Some(Epoch(2)));
        assert_eq!(Epoch(0).prev(), None);
        assert!(Epoch(1) < Epoch(2));
    }

    #[test]
    fn tuple_id_hash_depends_only_on_key() {
        let id_v1 = TupleId::new(vec![Value::str("f")], Epoch(0));
        let id_v2 = TupleId::new(vec![Value::str("f")], Epoch(1));
        // Different versions of the same logical tuple live at the same
        // ring position, as required for lookup-by-ID.
        assert_eq!(id_v1.hash_key(), id_v2.hash_key());
        assert_ne!(id_v1, id_v2);
    }

    #[test]
    fn tuple_hash_matches_id_hash() {
        let tup = t(vec![Value::str("f"), Value::str("a")]);
        let id = tup.id(1, Epoch(1));
        assert_eq!(tup.hash_key(1), id.hash_key());
    }

    #[test]
    fn projection_and_concat() {
        let a = t(vec![Value::Int(1), Value::str("x"), Value::Int(3)]);
        let b = t(vec![Value::str("y")]);
        assert_eq!(a.project(&[2, 0]).values(), &[Value::Int(3), Value::Int(1)]);
        assert_eq!(a.concat(&b).arity(), 4);
        assert_eq!(a.concat(&b).value(3), &Value::str("y"));
    }

    #[test]
    fn hash_columns_matches_projection_hash() {
        let a = t(vec![Value::Int(1), Value::str("x"), Value::Int(3)]);
        assert_eq!(a.hash_columns(&[1]), hash_values(&[Value::str("x")]));
        assert_ne!(a.hash_columns(&[0]), a.hash_columns(&[2]));
    }

    #[test]
    fn serialized_size_is_consistent_with_encoding() {
        let a = t(vec![Value::Int(1), Value::str("hello"), Value::Null]);
        let mut buf = Vec::new();
        a.encode_to(&mut buf);
        assert_eq!(buf.len(), a.serialized_size());
    }

    #[test]
    fn display_renders_values() {
        let a = t(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(format!("{a}"), "(1, x)");
        let id = TupleId::new(vec![Value::str("f")], Epoch(1));
        assert_eq!(format!("{id}"), "⟨f,1⟩");
    }
}
