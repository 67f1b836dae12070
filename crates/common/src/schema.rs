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

use crate::value::Value;
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

impl ColumnType {
    /// Does `value` inhabit this type (NULL inhabits every type)?
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Double, Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
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

    /// Name of column `i`.
    pub fn column_name(&self, i: usize) -> &str {
        &self.columns[i].0
    }

    /// Index of the column called `name`, if any.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Does a row of `values` satisfy this schema (arity and types)?
    pub fn admits_row(&self, values: &[Value]) -> bool {
        values.len() == self.arity()
            && values
                .iter()
                .zip(self.columns.iter())
                .all(|(v, (_, t))| t.admits(v))
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
        assert_eq!(s.column_name(1), "y");
        assert_eq!(s.column_type(2), ColumnType::Double);
        assert_eq!(s.column_index("z"), Some(2));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn row_admission_checks_arity_and_types() {
        let s = sample();
        assert!(s.admits_row(&[Value::Int(1), Value::str("a"), Value::Double(2.0)]));
        // Ints are admitted into Double columns (numeric widening).
        assert!(s.admits_row(&[Value::Int(1), Value::str("a"), Value::Int(2)]));
        assert!(s.admits_row(&[Value::Null, Value::Null, Value::Null]));
        assert!(!s.admits_row(&[Value::Int(1), Value::Int(2), Value::Double(2.0)]));
        assert!(!s.admits_row(&[Value::Int(1), Value::str("a")]));
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
