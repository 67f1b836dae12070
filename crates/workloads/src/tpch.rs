//! Scaled-down TPC-H-style relations and the Q1/Q3/Q6 physical plans
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
//! The three queries exercise the three plan shapes of the paper's OLAP
//! evaluation:
//!
//! * **Q1** — sargable scan, compute-function, distributed two-phase
//!   aggregation (`Partial` per node, `Final` at the initiator);
//! * **Q3** — two pipelined hash joins over rehashed inputs, then
//!   two-phase aggregation;
//! * **Q6** — sargable scan, compute-function, single-shot aggregation
//!   at the initiator.

use crate::Workload;
use orchestra_common::{rng, ColumnType, Relation, Schema, Tuple, Value};
use orchestra_engine::{AggFunc, AggMode, CmpOp, PhysicalPlan, PlanBuilder, Predicate, ScalarExpr};
use orchestra_optimizer::{col, LogicalExpr, LogicalQuery};
use orchestra_storage::UpdateBatch;
use std::collections::{BTreeMap, HashMap, HashSet};

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
        for row in self.customer_rows() {
            batch.insert("customer", row);
        }
        for row in self.order_rows() {
            batch.insert("orders", row);
        }
        for row in self.lineitem_rows() {
            batch.insert("lineitem", row);
        }
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

    /// Hand-built Q1 plan (the optimizer oracle): scan with the sargable
    /// shipdate predicate, compute the discounted-price term, then
    /// distributed two-phase aggregation grouped on
    /// `(l_returnflag, l_linestatus)`.
    pub fn q1_plan(&self) -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b.scan(
            "lineitem",
            9,
            Some(Predicate::cmp(8, CmpOp::Le, Q1_SHIPDATE_CUTOFF)),
        );
        let terms = b.compute(
            scan,
            vec![
                ScalarExpr::col(6),
                ScalarExpr::col(7),
                ScalarExpr::col(2),
                ScalarExpr::col(3),
                ScalarExpr::Mul(
                    Box::new(ScalarExpr::col(3)),
                    Box::new(ScalarExpr::Sub(
                        Box::new(ScalarExpr::lit(100i64)),
                        Box::new(ScalarExpr::col(4)),
                    )),
                ),
            ],
        );
        let agg = b.two_phase_aggregate(
            terms,
            vec![0, 1],
            vec![
                (AggFunc::Sum, 2),
                (AggFunc::Sum, 3),
                (AggFunc::Sum, 4),
                (AggFunc::Avg, 2),
                (AggFunc::Count, 2),
            ],
        );
        b.output(agg)
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

    /// Hand-built Q3 plan (the optimizer oracle): `customer ⋈ orders ⋈
    /// lineitem` as two pipelined hash joins over rehashed inputs, then
    /// two-phase aggregation grouped on `(o_orderkey, o_orderdate,
    /// o_shippriority)`.
    pub fn q3_plan(&self) -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let customer = b.scan(
            "customer",
            2,
            Some(Predicate::cmp(1, CmpOp::Eq, Q3_SEGMENT)),
        );
        let orders = b.scan(
            "orders",
            4,
            Some(Predicate::cmp(2, CmpOp::Lt, Q3_PIVOT_DATE)),
        );
        let customer_re = b.rehash(customer, vec![0]);
        let orders_re = b.rehash(orders, vec![1]);
        // (c_custkey, c_mktsegment, o_orderkey, o_custkey, o_orderdate,
        //  o_shippriority)
        let cust_orders = b.hash_join(customer_re, orders_re, vec![0], vec![1]);
        let lineitem = b.scan(
            "lineitem",
            9,
            Some(Predicate::cmp(8, CmpOp::Gt, Q3_PIVOT_DATE)),
        );
        let cust_orders_re = b.rehash(cust_orders, vec![2]);
        let lineitem_re = b.rehash(lineitem, vec![1]);
        let joined = b.hash_join(cust_orders_re, lineitem_re, vec![2], vec![1]);
        let terms = b.compute(
            joined,
            vec![
                ScalarExpr::col(2),
                ScalarExpr::col(4),
                ScalarExpr::col(5),
                ScalarExpr::Mul(
                    Box::new(ScalarExpr::col(9)),
                    Box::new(ScalarExpr::Sub(
                        Box::new(ScalarExpr::lit(100i64)),
                        Box::new(ScalarExpr::col(10)),
                    )),
                ),
            ],
        );
        let agg = b.two_phase_aggregate(terms, vec![0, 1, 2], vec![(AggFunc::Sum, 3)]);
        b.output(agg)
    }

    // ------------------------------------------------------------------
    // Q6: forecasting revenue change
    // ------------------------------------------------------------------

    /// Q6 as a logical query: the three sargable conjuncts and the
    /// ungrouped revenue sum.
    pub fn q6_logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let l = q.relation("lineitem");
        q.filter(
            l,
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
            ]),
        )
        .select(vec![LogicalExpr::Mul(
            Box::new(LogicalExpr::col(l, 3)),
            Box::new(LogicalExpr::col(l, 4)),
        )])
        .aggregate(vec![], vec![(AggFunc::Sum, 0)]);
        q
    }

    /// Hand-built Q6 plan (the optimizer oracle): sargable
    /// triple-predicate scan, compute the revenue term, ship to the
    /// initiator, single-shot ungrouped aggregation there.
    pub fn q6_plan(&self) -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b.scan(
            "lineitem",
            9,
            Some(Predicate::And(vec![
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
            ])),
        );
        let term = b.compute(
            scan,
            vec![ScalarExpr::Mul(
                Box::new(ScalarExpr::col(3)),
                Box::new(ScalarExpr::col(4)),
            )],
        );
        let ship = b.ship(term);
        let agg = b.aggregate(ship, vec![], vec![(AggFunc::Sum, 0)], AggMode::Single);
        b.output(agg)
    }

    /// Q6 single-node reference answer over the generated data.
    pub fn q6_reference(&self) -> Vec<Tuple> {
        q6_reference_from(&self.lineitem_rows())
    }
}

/// Q1 reference over an arbitrary `lineitem` row set — multi-epoch
/// streams call this with the evolved rows of each epoch.
pub fn q1_reference_from(lineitems: &[Tuple]) -> Vec<Tuple> {
    // (sum_qty, sum_base, sum_disc_price, count) per (flag, status).
    let mut groups: BTreeMap<(String, String), (i64, i64, i64, i64)> = BTreeMap::new();
    for li in lineitems {
        if li.value(8).as_int().unwrap() > Q1_SHIPDATE_CUTOFF {
            continue;
        }
        let key = (
            li.value(6).as_str().unwrap().to_string(),
            li.value(7).as_str().unwrap().to_string(),
        );
        let qty = li.value(2).as_int().unwrap();
        let price = li.value(3).as_int().unwrap();
        let discount = li.value(4).as_int().unwrap();
        let e = groups.entry(key).or_default();
        e.0 += qty;
        e.1 += price;
        e.2 += price * (100 - discount);
        e.3 += 1;
    }
    let mut rows: Vec<Tuple> = groups
        .into_iter()
        .map(|((flag, status), (qty, base, disc, count))| {
            Tuple::new(vec![
                Value::str(flag),
                Value::str(status),
                Value::Int(qty),
                Value::Int(base),
                Value::Int(disc),
                Value::Double(qty as f64 / count as f64),
                Value::Int(count),
            ])
        })
        .collect();
    rows.sort();
    rows
}

/// Q3 reference over arbitrary `customer`/`orders`/`lineitem` row sets.
pub fn q3_reference_from(customers: &[Tuple], orders: &[Tuple], lineitems: &[Tuple]) -> Vec<Tuple> {
    let building: HashSet<i64> = customers
        .iter()
        .filter(|c| c.value(1).as_str() == Some(Q3_SEGMENT))
        .map(|c| c.value(0).as_int().unwrap())
        .collect();
    // orderkey -> (orderdate, shippriority) for qualifying orders.
    let qualifying: HashMap<i64, (i64, i64)> = orders
        .iter()
        .filter(|o| {
            o.value(2).as_int().unwrap() < Q3_PIVOT_DATE
                && building.contains(&o.value(1).as_int().unwrap())
        })
        .map(|o| {
            (
                o.value(0).as_int().unwrap(),
                (o.value(2).as_int().unwrap(), o.value(3).as_int().unwrap()),
            )
        })
        .collect();
    let mut revenue: BTreeMap<(i64, i64, i64), i64> = BTreeMap::new();
    for li in lineitems {
        if li.value(8).as_int().unwrap() <= Q3_PIVOT_DATE {
            continue;
        }
        let orderkey = li.value(1).as_int().unwrap();
        let Some((orderdate, priority)) = qualifying.get(&orderkey) else {
            continue;
        };
        let price = li.value(3).as_int().unwrap();
        let discount = li.value(4).as_int().unwrap();
        *revenue
            .entry((orderkey, *orderdate, *priority))
            .or_default() += price * (100 - discount);
    }
    let mut rows: Vec<Tuple> = revenue
        .into_iter()
        .map(|((orderkey, orderdate, priority), rev)| {
            Tuple::new(vec![
                Value::Int(orderkey),
                Value::Int(orderdate),
                Value::Int(priority),
                Value::Int(rev),
            ])
        })
        .collect();
    rows.sort();
    rows
}

/// Q6 reference over an arbitrary `lineitem` row set.
pub fn q6_reference_from(lineitems: &[Tuple]) -> Vec<Tuple> {
    let mut revenue = 0i64;
    let mut matched = false;
    for li in lineitems {
        let shipdate = li.value(8).as_int().unwrap();
        let discount = li.value(4).as_int().unwrap();
        let quantity = li.value(2).as_int().unwrap();
        if (Q6_DATE_LO..=Q6_DATE_HI).contains(&shipdate)
            && (Q6_DISCOUNT_LO..=Q6_DISCOUNT_HI).contains(&discount)
            && quantity < Q6_QUANTITY_LT
        {
            revenue += li.value(3).as_int().unwrap() * discount;
            matched = true;
        }
    }
    if matched {
        vec![Tuple::new(vec![Value::Int(revenue)])]
    } else {
        // No qualifying row: the engine's aggregate holds no group and
        // emits nothing.
        Vec::new()
    }
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

    fn reference_plan(&self) -> PhysicalPlan {
        match self.query {
            TpchQuery::Q1 => self.dataset.q1_plan(),
            TpchQuery::Q3 => self.dataset.q3_plan(),
            TpchQuery::Q6 => self.dataset.q6_plan(),
        }
    }

    fn reference_for(&self, tables: &crate::TableSet) -> Vec<Tuple> {
        let rows = |name: &str| tables.get(name).map(Vec::as_slice).unwrap_or(&[]);
        match self.query {
            TpchQuery::Q1 => q1_reference_from(rows("lineitem")),
            TpchQuery::Q3 => q3_reference_from(rows("customer"), rows("orders"), rows("lineitem")),
            TpchQuery::Q6 => q6_reference_from(rows("lineitem")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;
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
    fn plans_have_the_expected_shapes() {
        let d = TpchDataset::scaled(1, 40);
        assert_eq!(d.q1_plan().rehash_count(), 0);
        assert_eq!(d.q3_plan().rehash_count(), 4);
        assert_eq!(d.q6_plan().rehash_count(), 0);
        assert_eq!(d.q3_plan().scans().len(), 3);
        assert!(d.q6_plan().render().contains("Aggregate"));
    }

    #[test]
    fn q1_distributed_answer_matches_reference() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 7, 300);
        let (storage, epoch) = deploy(&w, 6).unwrap();
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&w.reference_plan(), epoch, NodeId(0))
            .unwrap();
        let expected = w.reference();
        assert_eq!(expected.len(), 6, "3 flags × 2 statuses");
        assert_eq!(report.rows, expected);
    }

    #[test]
    fn q6_predicates_select_a_nonempty_strict_subset() {
        let d = TpchDataset::scaled(7, 400);
        let reference = d.q6_reference();
        assert_eq!(reference.len(), 1);
        assert!(reference[0].value(0).as_int().unwrap() > 0);
    }
}
