//! Publication batches.
//!
//! In a CDSS "users first make updates only to their local storage, and
//! they occasionally publish a log of these updates (which are primarily
//! insertions of new data items)" (Section I).  An [`UpdateBatch`] is that
//! published log: per-relation lists of [`Update`]s contributed by one
//! participant, which the storage layer applies atomically as one new
//! epoch.

use orchestra_common::{Tuple, Value};
use std::collections::BTreeMap;

/// A single change to a relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert a brand-new tuple (the dominant case in the paper's
    /// workloads).
    Insert(Tuple),
    /// Replace the current version of the tuple with this key by a new
    /// value (the key columns must be unchanged).
    Modify(Tuple),
    /// Remove the tuple with the given key values from the current
    /// version (it remains in all earlier versions).
    Delete(Vec<Value>),
}

impl Update {
    /// The key values affected by this update, given the relation's key
    /// length.
    pub fn key(&self, key_len: usize) -> &[Value] {
        match self {
            Update::Insert(t) | Update::Modify(t) => t.key(key_len),
            Update::Delete(k) => &k[..key_len.min(k.len())],
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(_))
    }
}

/// One participant's published log of updates, grouped by relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    updates: BTreeMap<String, Vec<Update>>,
}

impl UpdateBatch {
    /// An empty batch from an anonymous publisher.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Add an insertion of `tuple` into `relation`.
    pub fn insert(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.updates
            .entry(relation.into())
            .or_default()
            .push(Update::Insert(tuple));
        self
    }

    /// Add a modification of the tuple sharing `tuple`'s key in `relation`.
    pub fn modify(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.updates
            .entry(relation.into())
            .or_default()
            .push(Update::Modify(tuple));
        self
    }

    /// Add a deletion of the tuple with key `key` from `relation`.
    pub fn delete(&mut self, relation: impl Into<String>, key: Vec<Value>) -> &mut Self {
        self.updates
            .entry(relation.into())
            .or_default()
            .push(Update::Delete(key));
        self
    }

    /// Bulk-insert many tuples into `relation`.
    pub fn insert_all(
        &mut self,
        relation: impl Into<String>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> &mut Self {
        let entry = self.updates.entry(relation.into()).or_default();
        entry.extend(tuples.into_iter().map(Update::Insert));
        self
    }

    /// The relations touched by this batch.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.updates.keys().map(String::as_str)
    }

    /// The updates for `relation` (empty slice if untouched).
    pub fn updates_for(&self, relation: &str) -> &[Update] {
        self.updates.get(relation).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of updates across all relations.
    pub fn len(&self) -> usize {
        self.updates.values().map(Vec::len).sum()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_groups_by_relation() {
        let mut b = UpdateBatch::new();
        b.insert("R", Tuple::new(vec![Value::Int(1), Value::str("a")]))
            .insert("R", Tuple::new(vec![Value::Int(2), Value::str("b")]))
            .modify("S", Tuple::new(vec![Value::Int(9), Value::str("z")]))
            .delete("R", vec![Value::Int(1)]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.relations().collect::<Vec<_>>(), vec!["R", "S"]);
        assert_eq!(b.updates_for("R").len(), 3);
        assert_eq!(b.updates_for("S").len(), 1);
        assert_eq!(b.updates_for("T").len(), 0);
        assert!(!b.is_empty());
    }

    #[test]
    fn update_key_extraction() {
        let ins = Update::Insert(Tuple::new(vec![Value::Int(5), Value::str("x")]));
        let del = Update::Delete(vec![Value::Int(7)]);
        assert_eq!(ins.key(1), &[Value::Int(5)]);
        assert_eq!(del.key(1), &[Value::Int(7)]);
        assert!(ins.is_insert());
        assert!(!del.is_insert());
    }

    #[test]
    fn insert_all_bulk_loads() {
        let mut b = UpdateBatch::new();
        b.insert_all(
            "R",
            (0..100).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])),
        );
        assert_eq!(b.len(), 100);
        assert!(b.updates_for("R").iter().all(Update::is_insert));
    }
}
