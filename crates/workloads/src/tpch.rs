//! Scaled-down TPC-H-style relations and the Q1/Q3/Q6 logical queries
//! (paper Section VI-C).
//!
//! [`TpchDataset`] generates deterministic `lineitem`, `orders` and
//! `customer` relations at a configurable scale.  Monetary amounts are
//! integer cents and discounts integer percentage points, so every
//! aggregate the queries compute is exact integer arithmetic — the
//! distributed answer and the single-node reference are comparable tuple
//! for tuple with no floating-point order sensitivity (`AVG` divides two
//! exact integers once, at finalisation).  Revenue terms therefore come
//! out in "cent-percent" units: `extendedprice * (100 - discount)` for
//! Q1/Q3 and `extendedprice * discount` for Q6.
//!
//! The three queries exercise the three query shapes of the paper's OLAP
//! evaluation; the optimizer places their exchanges and aggregations:
//!
//! * **Q1** — sargable scan, a computed discounted-price term, grouped
//!   aggregation;
//! * **Q3** — `customer ⋈ orders ⋈ lineitem` as two equi-joins, then
//!   grouped aggregation;
//! * **Q6** — sargable triple-predicate scan, a computed revenue term,
//!   one ungrouped sum.

use crate::Workload;
use orchestra_common::{rng, ColumnType, Relation, Schema, Tuple, Value};
use orchestra_engine::{AggFunc, CmpOp, Predicate};
use orchestra_optimizer::{col, LogicalExpr, LogicalQuery};
use orchestra_storage::UpdateBatch;

/// TPC-H market segments (`c_mktsegment`).
pub const MKT_SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];
const LINE_STATUSES: [&str; 2] = ["O", "F"];

/// Dates are day numbers in `[0, DATE_DAYS)`.
const DATE_DAYS: u64 = 2400;

/// Q1: `l_shipdate <= 2300` (the "shipped by the cutoff" predicate).
const Q1_SHIPDATE_CUTOFF: i64 = 2300;
/// Q3: customers in this segment, orders before / lineitems shipped
/// after the pivot date.
const Q3_SEGMENT: &str = "BUILDING";
const Q3_PIVOT_DATE: i64 = 1200;
/// Q6: shipdate window, discount window, quantity bound.
const Q6_DATE_LO: i64 = 300;
const Q6_DATE_HI: i64 = 1100;
const Q6_DISCOUNT_LO: i64 = 2;
const Q6_DISCOUNT_HI: i64 = 6;
const Q6_QUANTITY_LT: i64 = 30;

/// Deterministic, scaled-down TPC-H-style data: `customer(c_custkey,
/// c_mktsegment)`, `orders(o_orderkey, o_custkey, o_orderdate,
/// o_shippriority)` and `lineitem(l_id, l_orderkey, l_quantity,
/// l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
/// l_shipdate)`.  The same `(seed, cardinalities)` always yields the
/// same rows.
#[derive(Clone, Copy, Debug)]
pub struct TpchDataset {
    /// Seed of the deterministic generators.
    pub seed: u64,
    /// Number of `customer` rows.
    pub customers: usize,
    /// Number of `orders` rows.
    pub orders: usize,
    /// Number of `lineitem` rows.
    pub lineitems: usize,
}

impl TpchDataset {
    /// A dataset scaled from its `lineitem` cardinality with the usual
    /// relative sizes (4 lineitems per order, 10 per customer).
    pub fn scaled(seed: u64, lineitems: usize) -> TpchDataset {
        TpchDataset {
            seed,
            customers: (lineitems / 10).max(1),
            orders: (lineitems / 4).max(1),
            lineitems,
        }
    }

    /// The three relation schemas, ready to register.
    pub fn relations() -> Vec<Relation> {
        vec![
            Relation::partitioned(
                "customer",
                Schema::keyed_on_first(vec![
                    ("c_custkey", ColumnType::Int),
                    ("c_mktsegment", ColumnType::Str),
                ]),
            ),
            Relation::partitioned(
                "orders",
                Schema::keyed_on_first(vec![
                    ("o_orderkey", ColumnType::Int),
                    ("o_custkey", ColumnType::Int),
                    ("o_orderdate", ColumnType::Int),
                    ("o_shippriority", ColumnType::Int),
                ]),
            ),
            Relation::partitioned(
                "lineitem",
                Schema::keyed_on_first(vec![
                    ("l_id", ColumnType::Int),
                    ("l_orderkey", ColumnType::Int),
                    ("l_quantity", ColumnType::Int),
                    ("l_extendedprice", ColumnType::Int),
                    ("l_discount", ColumnType::Int),
                    ("l_tax", ColumnType::Int),
                    ("l_returnflag", ColumnType::Str),
                    ("l_linestatus", ColumnType::Str),
                    ("l_shipdate", ColumnType::Int),
                ]),
            ),
        ]
    }

    /// The generated `customer` rows.
    pub fn customer_rows(&self) -> Vec<Tuple> {
        let mut r = rng::seeded_stream(self.seed, "customer");
        (0..self.customers)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(MKT_SEGMENTS[r.random_range(0..MKT_SEGMENTS.len())]),
                ])
            })
            .collect()
    }

    /// The generated `orders` rows.
    pub fn order_rows(&self) -> Vec<Tuple> {
        let mut r = rng::seeded_stream(self.seed, "orders");
        (0..self.orders)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Int(r.random_range(0..self.customers as u64) as i64),
                    Value::Int(r.random_range(0..DATE_DAYS) as i64),
                    Value::Int(0),
                ])
            })
            .collect()
    }

    /// The generated `lineitem` rows.
    pub fn lineitem_rows(&self) -> Vec<Tuple> {
        let mut r = rng::seeded_stream(self.seed, "lineitem");
        (0..self.lineitems)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Int(r.random_range(0..self.orders as u64) as i64),
                    Value::Int(r.random_range(1..=50u64) as i64),
                    Value::Int(r.random_range(1_000..=100_000u64) as i64),
                    Value::Int(r.random_range(0..=10u64) as i64),
                    Value::Int(r.random_range(0..=8u64) as i64),
                    Value::str(RETURN_FLAGS[r.random_range(0..RETURN_FLAGS.len())]),
                    Value::str(LINE_STATUSES[r.random_range(0..LINE_STATUSES.len())]),
                    Value::Int(r.random_range(0..DATE_DAYS) as i64),
                ])
            })
            .collect()
    }

    /// All rows as one publishable batch.
    pub fn batch(&self) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch
            .insert_all("customer", self.customer_rows())
            .insert_all("orders", self.order_rows())
            .insert_all("lineitem", self.lineitem_rows());
        batch
    }

    // ------------------------------------------------------------------
    // Q1: pricing summary report
    // ------------------------------------------------------------------

    /// Q1 as a logical query: the shipdate conjunct, the select list of
    /// grouping attributes plus the discounted-price term, and the five
    /// aggregates over it.
    pub fn q1_logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let l = q.relation("lineitem");
        q.filter(l, Predicate::cmp(8, CmpOp::Le, Q1_SHIPDATE_CUTOFF))
            .select(vec![
                LogicalExpr::col(l, 6),
                LogicalExpr::col(l, 7),
                LogicalExpr::col(l, 2),
                LogicalExpr::col(l, 3),
                LogicalExpr::Mul(
                    Box::new(LogicalExpr::col(l, 3)),
                    Box::new(LogicalExpr::Sub(
                        Box::new(LogicalExpr::lit(100i64)),
                        Box::new(LogicalExpr::col(l, 4)),
                    )),
                ),
            ])
            .aggregate(
                vec![0, 1],
                vec![
                    (AggFunc::Sum, 2),
                    (AggFunc::Sum, 3),
                    (AggFunc::Sum, 4),
                    (AggFunc::Avg, 2),
                    (AggFunc::Count, 2),
                ],
            );
        q
    }

    // ------------------------------------------------------------------
    // Q3: shipping priority
    // ------------------------------------------------------------------

    /// Q3 as a logical query: the segment/date conjuncts, the
    /// `customer ⋈ orders ⋈ lineitem` equi-join graph, and revenue
    /// aggregation grouped on `(o_orderkey, o_orderdate,
    /// o_shippriority)`.
    pub fn q3_logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let c = q.relation("customer");
        let o = q.relation("orders");
        let l = q.relation("lineitem");
        q.filter(c, Predicate::cmp(1, CmpOp::Eq, Q3_SEGMENT))
            .filter(o, Predicate::cmp(2, CmpOp::Lt, Q3_PIVOT_DATE))
            .filter(l, Predicate::cmp(8, CmpOp::Gt, Q3_PIVOT_DATE))
            .join(col(c, 0), col(o, 1))
            .join(col(o, 0), col(l, 1))
            .select(vec![
                LogicalExpr::col(o, 0),
                LogicalExpr::col(o, 2),
                LogicalExpr::col(o, 3),
                LogicalExpr::Mul(
                    Box::new(LogicalExpr::col(l, 3)),
                    Box::new(LogicalExpr::Sub(
                        Box::new(LogicalExpr::lit(100i64)),
                        Box::new(LogicalExpr::col(l, 4)),
                    )),
                ),
            ])
            .aggregate(vec![0, 1, 2], vec![(AggFunc::Sum, 3)]);
        q
    }

    // ------------------------------------------------------------------
    // Q6: forecasting revenue change
    // ------------------------------------------------------------------

    /// Q6 as a logical query: the three sargable conjuncts and the
    /// ungrouped revenue sum.
    pub fn q6_logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let l = q.relation("lineitem");
        q.filter(l, q6_predicate())
            .select(vec![LogicalExpr::Mul(
                Box::new(LogicalExpr::col(l, 3)),
                Box::new(LogicalExpr::col(l, 4)),
            )])
            .aggregate(vec![], vec![(AggFunc::Sum, 0)]);
        q
    }
}

/// Q6's three sargable conjuncts over `lineitem`: the shipdate and
/// discount windows and the quantity bound.
fn q6_predicate() -> Predicate {
    Predicate::And(vec![
        Predicate::Between {
            column: 8,
            low: Value::Int(Q6_DATE_LO),
            high: Value::Int(Q6_DATE_HI),
        },
        Predicate::Between {
            column: 4,
            low: Value::Int(Q6_DISCOUNT_LO),
            high: Value::Int(Q6_DISCOUNT_HI),
        },
        Predicate::cmp(2, CmpOp::Lt, Q6_QUANTITY_LT),
    ])
}

/// The TPC-H-style queries of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TpchQuery {
    /// Pricing summary report (two-phase aggregation).
    Q1,
    /// Shipping priority (two pipelined joins + aggregation).
    Q3,
    /// Forecasting revenue change (single-shot aggregation).
    Q6,
}

impl TpchQuery {
    /// Short lowercase name (`"q1"`, `"q3"`, `"q6"`).
    pub fn name(&self) -> &'static str {
        match self {
            TpchQuery::Q1 => "q1",
            TpchQuery::Q3 => "q3",
            TpchQuery::Q6 => "q6",
        }
    }
}

/// One TPC-H query over one dataset, as a [`Workload`] catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct TpchWorkload {
    /// The data to query.
    pub dataset: TpchDataset,
    /// The query to run.
    pub query: TpchQuery,
}

impl TpchWorkload {
    /// A query over a dataset scaled from its lineitem cardinality.
    pub fn scaled(query: TpchQuery, seed: u64, lineitems: usize) -> TpchWorkload {
        TpchWorkload {
            dataset: TpchDataset::scaled(seed, lineitems),
            query,
        }
    }
}

impl Workload for TpchWorkload {
    fn name(&self) -> String {
        format!("tpch-{}", self.query.name())
    }

    fn relations(&self) -> Vec<Relation> {
        TpchDataset::relations()
    }

    fn batch(&self) -> UpdateBatch {
        self.dataset.batch()
    }

    fn logical(&self) -> LogicalQuery {
        match self.query {
            TpchQuery::Q1 => self.dataset.q1_logical(),
            TpchQuery::Q3 => self.dataset.q3_logical(),
            TpchQuery::Q6 => self.dataset.q6_logical(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compiled_plan, deploy};
    use orchestra_common::NodeId;
    use orchestra_engine::{EngineConfig, QueryExecutor};

    #[test]
    fn dataset_generation_is_deterministic_and_shaped() {
        let d = TpchDataset::scaled(42, 200);
        assert_eq!(d.lineitem_rows(), d.lineitem_rows());
        assert_eq!(d.customer_rows().len(), 20);
        assert_eq!(d.order_rows().len(), 50);
        assert_eq!(d.lineitem_rows().len(), 200);
        for li in d.lineitem_rows() {
            assert_eq!(li.arity(), 9);
            let qty = li.value(2).as_int().unwrap();
            assert!((1..=50).contains(&qty));
            let discount = li.value(4).as_int().unwrap();
            assert!((0..=10).contains(&discount));
        }
    }

    #[test]
    fn q1_distributed_answer_matches_reference() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 7, 300);
        let (storage, epoch) = deploy(&w, 6).unwrap();
        let plan = compiled_plan(&w, &storage, epoch).unwrap();
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap();
        let expected = w.reference();
        assert_eq!(expected.len(), 6, "3 flags × 2 statuses");
        assert_eq!(report.rows, expected);
    }

    #[test]
    fn q6_predicates_select_a_nonempty_strict_subset() {
        let reference = TpchWorkload::scaled(TpchQuery::Q6, 7, 400).reference();
        assert_eq!(reference.len(), 1);
        assert!(reference[0].value(0).as_int().unwrap() > 0);
    }
}
