//! The statistics layer the cost model reads.
//!
//! The paper keeps per-relation statistics at the relation coordinators;
//! here [`Statistics::collect`] pulls them out of the storage layer — the
//! tuple counts via
//! [`orchestra_storage::DistributedStorage::relation_cardinality`]
//! (coordinator metadata), the schema shape from the catalog, and the
//! participant count from the routing table the initiator would snapshot
//! with the query.
//!
//! A collected snapshot is deliberately bare: fixed per-type column
//! widths, no distribution information.  The adaptive subsystem
//! ([`crate::adaptive::AdaptiveStats::overlay`]) enriches a snapshot with
//! per-column [`EquiDepthHistogram`]s, KMV distinct counts and observed
//! mean widths maintained from publication deltas; everything downstream
//! ([`TableStats::selectivity`], the cost model, the planner) consults
//! those when present and falls back to the textbook constants when not.

use crate::adaptive::histogram::EquiDepthHistogram;
use crate::cost::{NUMERIC_COLUMN_BYTES, TUPLE_OVERHEAD_BYTES};
use orchestra_common::{ColumnType, Epoch, Relation};
use orchestra_engine::{CmpOp, Predicate};
use orchestra_storage::DistributedStorage;
use std::collections::BTreeMap;

/// Estimated wire bytes of one value of each column type, unless an
/// observed mean width is available.  The static fallbacks mirror the
/// engine's batch encoding: a tag byte plus the payload, with strings
/// sized for the workloads' typical 25-character fields.
pub fn column_width_bytes(ty: ColumnType, observed: Option<f64>) -> f64 {
    if let Some(width) = observed {
        if width > 0.0 {
            return width;
        }
    }
    match ty {
        ColumnType::Int | ColumnType::Double => NUMERIC_COLUMN_BYTES,
        ColumnType::Str => 30.0,
    }
}

/// Statistics of one relation, snapshotted at an epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Relation name.
    pub name: String,
    /// Tuple count at the snapshot epoch (from coordinator metadata).
    pub cardinality: usize,
    /// Number of columns.
    pub arity: usize,
    /// Number of leading key (partitioning) columns.
    pub key_len: usize,
    /// Is the relation replicated in full at every node?
    pub replicated: bool,
    /// Estimated wire bytes per column value (catalog fallbacks, or
    /// observed means once the adaptive overlay has data).
    pub column_widths: Vec<f64>,
    /// Per-column value-distribution summaries (adaptive overlay only;
    /// `None` in a bare collected snapshot).
    pub histograms: Vec<Option<EquiDepthHistogram>>,
    /// Per-column distinct-count estimates (adaptive overlay only).
    pub distinct_counts: Vec<Option<f64>>,
}

impl TableStats {
    /// Derive the static half of the stats from a catalog entry.
    pub fn from_relation(relation: &Relation, cardinality: usize) -> TableStats {
        let schema = relation.schema();
        TableStats {
            name: relation.name().to_string(),
            cardinality,
            arity: schema.arity(),
            key_len: schema.key_len(),
            replicated: relation.is_replicated(),
            column_widths: (0..schema.arity())
                .map(|i| column_width_bytes(schema.column_type(i), None))
                .collect(),
            histograms: vec![None; schema.arity()],
            distinct_counts: vec![None; schema.arity()],
        }
    }

    /// Estimated wire bytes of one full row.
    pub fn row_bytes(&self) -> f64 {
        TUPLE_OVERHEAD_BYTES + self.column_widths.iter().sum::<f64>()
    }

    /// Estimated selectivity of `predicate` over this relation: the
    /// per-column histogram answers when it can, distinct counts size
    /// equality predicates when only they exist, and everything else
    /// falls back to the engine's textbook constants
    /// ([`Predicate::estimated_selectivity`]).  With no overlay attached
    /// this reproduces the fallback constants exactly, so bare snapshots
    /// compile byte-identical plans.
    pub fn selectivity(&self, predicate: Option<&Predicate>) -> f64 {
        match predicate {
            None => 1.0,
            Some(p) => self.predicate_fraction(p).clamp(0.0, 1.0),
        }
    }

    fn predicate_fraction(&self, predicate: &Predicate) -> f64 {
        let s = match predicate {
            Predicate::True => 1.0,
            Predicate::Compare { column, op, value } => self.compare_fraction(*column, *op, value),
            Predicate::Between { column, low, high } => self
                .histograms
                .get(*column)
                .and_then(Option::as_ref)
                .and_then(|h| h.between_fraction(low, high))
                .unwrap_or_else(|| predicate.estimated_selectivity()),
            Predicate::CompareColumns { .. } => predicate.estimated_selectivity(),
            Predicate::And(ps) => ps.iter().map(|p| self.predicate_fraction(p)).product(),
            Predicate::Or(ps) => {
                let none: f64 = ps
                    .iter()
                    .map(|p| 1.0 - self.predicate_fraction(p))
                    .product();
                1.0 - none
            }
            Predicate::Not(p) => 1.0 - self.predicate_fraction(p),
        };
        s.clamp(0.0, 1.0)
    }

    fn compare_fraction(&self, column: usize, op: CmpOp, value: &orchestra_common::Value) -> f64 {
        if let Some(Some(h)) = self.histograms.get(column) {
            if let Some(f) = h.fraction(op, value) {
                return f;
            }
        }
        // Equality against a known distinct count: 1/V under uniformity
        // (the histogram already handled skewed low-cardinality columns).
        if matches!(op, CmpOp::Eq | CmpOp::Ne) {
            if let Some(Some(d)) = self.distinct_counts.get(column) {
                if *d >= 1.0 {
                    let eq = (1.0 / d).min(1.0);
                    return if op == CmpOp::Eq { eq } else { 1.0 - eq };
                }
            }
        }
        Predicate::Compare {
            column,
            op,
            value: value.clone(),
        }
        .estimated_selectivity()
    }
}

/// The statistics snapshot a compilation runs against: one
/// [`TableStats`] per registered relation plus the participant count of
/// the routing snapshot the query would be disseminated with.
#[derive(Clone, Debug, PartialEq)]
pub struct Statistics {
    /// Participant count (the routing snapshot's node count).
    pub nodes: usize,
    tables: BTreeMap<String, TableStats>,
}

impl Statistics {
    /// Snapshot the statistics of every registered relation at `epoch`.
    pub fn collect(storage: &DistributedStorage, epoch: Epoch) -> Statistics {
        let tables = storage.relations().map(|relation| {
            let cardinality = storage.relation_cardinality(relation.name(), epoch);
            TableStats::from_relation(relation, cardinality)
        });
        Statistics::from_tables(storage.routing().node_count(), tables)
    }

    /// Build a statistics snapshot directly from table stats.
    pub fn from_tables(nodes: usize, tables: impl IntoIterator<Item = TableStats>) -> Statistics {
        let mut by_name = BTreeMap::new();
        for table in tables {
            by_name.insert(table.name.clone(), table);
        }
        Statistics {
            nodes,
            tables: by_name,
        }
    }

    /// A copy of the snapshot with one relation's cardinality replaced —
    /// the what-if form the maintenance cost model uses to cost a plan
    /// in which a single scan reads an epoch delta instead of the full
    /// relation.
    pub fn with_cardinality(&self, relation: &str, cardinality: usize) -> Statistics {
        let mut copy = self.clone();
        if let Some(table) = copy.tables.get_mut(relation) {
            table.cardinality = cardinality;
        }
        copy
    }

    /// The stats of one relation, if registered.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Mutable access to one relation's stats — the seam the adaptive
    /// overlay enriches a snapshot through.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut TableStats> {
        self.tables.get_mut(name)
    }

    /// All table stats, ordered by relation name (deterministic).
    pub fn tables(&self) -> impl Iterator<Item = &TableStats> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{ColumnType, Schema, Value};

    fn stats_of(relation: &Relation, cardinality: usize) -> TableStats {
        TableStats::from_relation(relation, cardinality)
    }

    #[test]
    fn table_stats_mirror_the_catalog_entry() {
        let rel = Relation::partitioned(
            "orders",
            Schema::keyed_on_first(vec![
                ("o_orderkey", ColumnType::Int),
                ("o_comment", ColumnType::Str),
            ]),
        );
        let t = stats_of(&rel, 500);
        assert_eq!(t.name, "orders");
        assert_eq!(t.cardinality, 500);
        assert_eq!(t.arity, 2);
        assert_eq!(t.key_len, 1);
        assert!(!t.replicated);
        assert_eq!(t.row_bytes(), 2.0 + 9.0 + 30.0);
        assert_eq!(t.histograms, vec![None, None]);
        assert_eq!(t.distinct_counts, vec![None, None]);
    }

    #[test]
    fn replicated_flag_carries_over() {
        let rel = Relation::replicated(
            "nation",
            Schema::keyed_on_first(vec![("id", ColumnType::Int)]),
        );
        assert!(stats_of(&rel, 25).replicated);
    }

    #[test]
    fn from_tables_orders_by_name() {
        let b = Relation::partitioned("b", Schema::keyed_on_first(vec![("k", ColumnType::Int)]));
        let a = Relation::partitioned("a", Schema::keyed_on_first(vec![("k", ColumnType::Int)]));
        let s = Statistics::from_tables(4, vec![stats_of(&b, 2), stats_of(&a, 1)]);
        let names: Vec<&str> = s.tables().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.table("b").unwrap().cardinality, 2);
        assert!(s.table("zzz").is_none());
    }

    #[test]
    fn observed_widths_override_the_catalog_fallback() {
        assert_eq!(column_width_bytes(ColumnType::Str, None), 30.0);
        assert_eq!(column_width_bytes(ColumnType::Str, Some(6.5)), 6.5);
        assert_eq!(column_width_bytes(ColumnType::Int, Some(0.0)), 9.0);
        assert_eq!(column_width_bytes(ColumnType::Int, None), 9.0);
    }

    #[test]
    fn bare_selectivity_reproduces_the_textbook_constants() {
        let rel = Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
        );
        let t = stats_of(&rel, 100);
        for p in [
            Predicate::cmp(1, CmpOp::Eq, 7i64),
            Predicate::cmp(1, CmpOp::Ne, 7i64),
            Predicate::cmp(1, CmpOp::Lt, 7i64),
            Predicate::Between {
                column: 1,
                low: Value::Int(0),
                high: Value::Int(9),
            },
            Predicate::And(vec![
                Predicate::cmp(0, CmpOp::Eq, 1i64),
                Predicate::cmp(1, CmpOp::Gt, 2i64),
            ]),
            Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Eq, 7i64))),
            Predicate::Or(vec![
                Predicate::cmp(0, CmpOp::Eq, 1i64),
                Predicate::cmp(1, CmpOp::Eq, 2i64),
            ]),
            Predicate::True,
        ] {
            assert_eq!(t.selectivity(Some(&p)), p.estimated_selectivity(), "{p:?}");
        }
        assert_eq!(t.selectivity(None), 1.0);
    }

    #[test]
    fn histogram_overrides_the_equality_guess() {
        let rel = Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![("k", ColumnType::Int), ("seg", ColumnType::Str)]),
        );
        let mut t = stats_of(&rel, 100);
        let mut h = EquiDepthHistogram::default();
        for i in 0..100 {
            let seg = if i % 5 == 0 { "BUILDING" } else { "OTHER" };
            h.update(&Value::str(seg), 1);
        }
        t.histograms[1] = Some(h);
        let eq = Predicate::cmp(1, CmpOp::Eq, Value::str("BUILDING"));
        assert!((t.selectivity(Some(&eq)) - 0.2).abs() < 1e-12);
        // Inside combinators too.
        let conj = Predicate::And(vec![eq, Predicate::cmp(0, CmpOp::Lt, 50i64)]);
        assert!((t.selectivity(Some(&conj)) - 0.2 * 0.33).abs() < 1e-12);
    }

    #[test]
    fn distinct_count_sizes_equality_when_no_histogram_answers() {
        let rel = Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
        );
        let mut t = stats_of(&rel, 1000);
        t.distinct_counts[1] = Some(50.0);
        let eq = Predicate::cmp(1, CmpOp::Eq, 7i64);
        assert!((t.selectivity(Some(&eq)) - 0.02).abs() < 1e-12);
        let ne = Predicate::cmp(1, CmpOp::Ne, 7i64);
        assert!((t.selectivity(Some(&ne)) - 0.98).abs() < 1e-12);
    }
}
