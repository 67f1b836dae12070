//! Seeded random queries against the single-node oracle.
//!
//! Each seed draws a query over the TPC-H relations (300 lineitems on 4
//! nodes) with the in-tree RNG:
//! * a join shape, `{L}`, `{O,L}`, `{C,O}` or `{C,O,L}`, each edge
//!   written in a random direction;
//! * 0–2 comparisons per slot, each against a constant taken from the
//!   data;
//! * 0–2 group columns and 1–3 aggregates over a column or
//!   `a * (100 - b)`, or else an aggregate-free select of 1–3 of those.
//!
//! The optimizer compiles it; the plan runs failure-free from an
//! initiator that rotates with the seed, then with a random
//! non-initiator victim killed at random instants under both recovery
//! strategies.  Every answer must equal [`evaluate`] over the generated
//! rows.  `cargo test` runs the first 32 seeds; the `#[ignore]`d sweep
//! runs 400, and CI runs it in release mode.

use orchestra_common::rng::{self, StdRng};
use orchestra_common::{ColumnType, NodeId, Relation};
use orchestra_engine::{
    AggFunc, CmpOp, EngineConfig, FailureSpec, Predicate, QueryExecutor, RecoveryStrategy,
};
use orchestra_optimizer::{col, compile, LogicalExpr, LogicalQuery, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::oracle::evaluate;
use orchestra_workloads::{
    deploy, tables_of, TableSet, TpchDataset, TpchQuery, TpchWorkload, Workload,
};

const ROWS: usize = 300;
const NODES: u16 = 4;
/// Failure instants per seed; each runs under both strategies.
const INSTANTS: usize = 12;
const BOTH: [RecoveryStrategy; 2] = [RecoveryStrategy::Restart, RecoveryStrategy::Incremental];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// The join shapes, as relation names in slot order.  Consecutive slots
/// join on the earlier one's key (column 0) and the later one's foreign
/// key (column 1): `c_custkey = o_custkey`, `o_orderkey = l_orderkey`.
const SHAPES: [&[&str]; 4] = [
    &["lineitem"],
    &["orders", "lineitem"],
    &["customer", "orders"],
    &["customer", "orders", "lineitem"],
];

fn pick<T: Copy>(r: &mut StdRng, items: &[T]) -> T {
    items[r.random_range(0..items.len())]
}

/// A column, or `a * (100 - b)` over two integer columns; `numeric`
/// asks for an integer-valued term.
fn term(r: &mut StdRng, columns: &[(usize, usize, bool)], numeric: bool) -> LogicalExpr {
    let ints: Vec<_> = columns.iter().filter(|c| c.2).copied().collect();
    if r.random_bool(0.3) {
        let (a, b) = (pick(r, &ints), pick(r, &ints));
        return LogicalExpr::Mul(
            Box::new(LogicalExpr::col(a.0, a.1)),
            Box::new(LogicalExpr::Sub(
                Box::new(LogicalExpr::lit(100i64)),
                Box::new(LogicalExpr::col(b.0, b.1)),
            )),
        );
    }
    let (slot, column, _) = pick(r, if numeric { &ints } else { columns });
    LogicalExpr::col(slot, column)
}

/// The query seed `seed` draws over `tables`.
fn draw(seed: u64, tables: &TableSet) -> LogicalQuery {
    let mut r = rng::seeded_stream(seed, "random-query");
    let schemas = TpchDataset::relations();
    let shape = pick(&mut r, &SHAPES);
    let mut q = LogicalQuery::new();
    // (slot, column, is an integer) of every column the shape reads.
    let mut columns = Vec::new();
    for (slot, name) in shape.iter().enumerate() {
        q.relation(*name);
        if slot > 0 {
            let (key, foreign) = (col(slot - 1, 0), col(slot, 1));
            if r.random_bool(0.5) {
                q.join(key, foreign);
            } else {
                q.join(foreign, key);
            }
        }
        let schema = schemas
            .iter()
            .find(|s| s.name() == *name)
            .map(Relation::schema)
            .unwrap();
        for c in 0..schema.arity() {
            columns.push((slot, c, schema.column_type(c) == ColumnType::Int));
        }
        let rows = &tables[*name];
        for _ in 0..r.random_range(0..=2usize) {
            let c = r.random_range(0..schema.arity());
            let constant = rows[r.random_range(0..rows.len())].value(c).clone();
            q.filter(slot, Predicate::cmp(c, pick(&mut r, &OPS), constant));
        }
    }
    if r.random_bool(0.75) {
        let groups = r.random_range(0..=2usize);
        let mut select: Vec<LogicalExpr> =
            (0..groups).map(|_| term(&mut r, &columns, false)).collect();
        let mut aggs = Vec::new();
        for _ in 0..r.random_range(1..=3usize) {
            let func = pick(&mut r, &FUNCS);
            let numeric = matches!(func, AggFunc::Sum | AggFunc::Avg);
            aggs.push((func, select.len()));
            select.push(term(&mut r, &columns, numeric));
        }
        q.select(select).aggregate((0..groups).collect(), aggs);
    } else {
        let width = r.random_range(1..=3usize);
        q.select((0..width).map(|_| term(&mut r, &columns, false)).collect());
    }
    q
}

/// Run seeds `seeds` and panic, listing every mismatch, if any answer
/// differs from the oracle's.
fn sweep(seeds: std::ops::Range<u64>) {
    let data = TpchWorkload::scaled(TpchQuery::Q1, 42, ROWS);
    let tables = tables_of(&data.batch());
    let (storage, epoch) = deploy(&data, NODES).unwrap();
    let stats = Statistics::collect(&storage, epoch);
    let (mut runs, mut nonempty, mut unrecovered) = (0, 0, 0);
    let mut mismatches = Vec::new();
    for seed in seeds {
        let query = draw(seed, &tables);
        let expected = evaluate(&query, &tables).unwrap();
        nonempty += usize::from(!expected.is_empty());
        let case = format!("seed {seed}: {query:?}");
        let plan = match compile(&query, &stats) {
            Ok(plan) => plan,
            Err(err) => {
                mismatches.push(format!("{case}: does not compile: {err}"));
                continue;
            }
        };
        let mut r = rng::seeded_stream(seed, "random-query-failures");
        let initiator = NodeId(seed as u16 % NODES);
        runs += 1;
        let baseline = match QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, initiator)
        {
            Ok(report) if report.rows == expected => report,
            Ok(report) => {
                mismatches.push(format!(
                    "{case}: failure-free from {initiator}: {} rows",
                    report.rows.len()
                ));
                continue;
            }
            Err(err) => {
                mismatches.push(format!("{case}: failure-free from {initiator}: {err}"));
                continue;
            }
        };
        for _ in 0..INSTANTS {
            let victim = NodeId((initiator.0 + r.random_range(1..NODES)) % NODES);
            let at = SimTime::from_micros(r.random_range(0..=baseline.running_time.as_micros()));
            for strategy in BOTH {
                let config = EngineConfig {
                    strategy,
                    ..EngineConfig::default()
                };
                let run = format!(
                    "{case}: {victim} killed at {} µs under {strategy:?}",
                    at.as_micros()
                );
                runs += 1;
                match QueryExecutor::new(&storage, config).execute_with_failure(
                    &plan,
                    epoch,
                    initiator,
                    FailureSpec::at_time(victim, at),
                ) {
                    Ok(report) if report.rows != expected => {
                        mismatches.push(format!("{run}: {} rows", report.rows.len()))
                    }
                    Ok(report) => unrecovered += usize::from(!report.recovered),
                    Err(err) => mismatches.push(format!("{run}: {err}")),
                }
            }
        }
    }
    for line in &mismatches {
        eprintln!("MISMATCH {line}");
    }
    eprintln!(
        "{runs} runs, {nonempty} non-empty answers, \
         {unrecovered} failure runs without a recovery round"
    );
    assert!(
        mismatches.is_empty(),
        "{} of {runs} runs differ from the oracle",
        mismatches.len()
    );
}

#[test]
fn thirty_two_random_queries_match_the_oracle() {
    sweep(0..32);
}

#[test]
#[ignore = "400 seeds, about 10,000 runs; CI runs it in release mode"]
fn four_hundred_random_queries_match_the_oracle() {
    sweep(0..400);
}
