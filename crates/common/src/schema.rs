//! Relation schemas.
//!
//! The storage layer partitions each relation "along a set of key
//! attributes (as with a clustered index)" and derives every tuple's hash
//! key from (a subset of) its key attributes (paper Section IV).  A
//! [`Schema`] therefore records the column names, their types, and which
//! leading columns form the partitioning key; a [`Relation`] couples a
//! name with its schema and, for small relations such as TPC-H `nation`
//! and `region`, a flag saying the relation is replicated at every node
//! rather than partitioned.

use std::fmt;
use std::sync::Arc;

/// Column data types understood by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer (also used for dates as day numbers).
    Int,
    /// Double-precision float.
    Double,
    /// Variable-length string.
    Str,
}

/// The schema of a relation: named, typed columns plus the number of
/// leading columns that form the partitioning key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
    key_len: usize,
}

impl Schema {
    /// Build a schema.  `key_len` leading columns form the partitioning
    /// key; it must be at least 1 and at most the number of columns.
    pub fn new(columns: Vec<(String, ColumnType)>, key_len: usize) -> Self {
        assert!(!columns.is_empty(), "schema must have at least one column");
        assert!(
            key_len >= 1 && key_len <= columns.len(),
            "key length {key_len} out of range for {} columns",
            columns.len()
        );
        Schema { columns, key_len }
    }

    /// Convenience constructor from `(name, type)` pairs with a 1-column key.
    pub fn keyed_on_first(columns: Vec<(&str, ColumnType)>) -> Self {
        Schema::new(
            columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
            1,
        )
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of leading key columns.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Column names in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Type of column `i`.
    pub fn column_type(&self, i: usize) -> ColumnType {
        self.columns[i].1
    }
}

/// A named relation together with its schema and placement policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    name: String,
    schema: Arc<Schema>,
    /// Small relations (TPC-H `nation`, `region`) are replicated at every
    /// node instead of hash-partitioned, exactly as in the paper's setup.
    replicated: bool,
}

impl Relation {
    /// A hash-partitioned relation (the default placement).
    pub fn partitioned(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema: Arc::new(schema),
            replicated: false,
        }
    }

    /// A relation replicated in full at every node.
    pub fn replicated(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema: Arc::new(schema),
            replicated: true,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Is this relation replicated at every node?
    pub fn is_replicated(&self) -> bool {
        self.replicated
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, name) in self.schema.column_names().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::keyed_on_first(vec![
            ("x", ColumnType::Int),
            ("y", ColumnType::Str),
            ("z", ColumnType::Double),
        ])
    }

    #[test]
    fn basic_accessors() {
        let s = sample();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.key_len(), 1);
        assert_eq!(s.column_names().collect::<Vec<_>>(), ["x", "y", "z"]);
        assert_eq!(s.column_type(2), ColumnType::Double);
    }

    #[test]
    #[should_panic(expected = "key length")]
    fn zero_key_len_rejected() {
        Schema::new(vec![("x".into(), ColumnType::Int)], 0);
    }

    #[test]
    fn relation_placement_flags() {
        let part = Relation::partitioned("R", sample());
        let repl = Relation::replicated("Nation", sample());
        assert!(!part.is_replicated());
        assert!(repl.is_replicated());
        assert_eq!(part.name(), "R");
        assert_eq!(format!("{part}"), "R(x, y, z)");
    }
}
