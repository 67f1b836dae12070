//! The single-node reference interpreter: the answer a
//! [`LogicalQuery`] gives over a [`TableSet`], computed on one node.
//!
//! The paper's reliability claim (Section V-D) is that every distributed
//! answer, with or without a failure, equals what one node computes over
//! the same data.  [`evaluate`] is that node, for every catalogue
//! workload, every epoch of an [`crate::EpochStream`] and any query the
//! optimizer accepts.  It shares no code with the engine's operators,
//! accumulators or batch evaluators, the planner or storage: it reads
//! rows with [`orchestra_engine::Predicate::eval`] and computes with `Value`
//! arithmetic.
//!
//! The query runs in four steps:
//! * each relation slot is filtered with its conjuncts;
//! * the slots are hash-joined in slot order on the join graph's edges
//!   (a slot with no edge to an earlier slot is a cross product);
//! * the select list is evaluated over each joined row;
//! * the rows are grouped and the aggregates folded with the engine's
//!   semantics: SUM, AVG, MIN and MAX skip NULLs, COUNT counts rows, AVG
//!   is a `Double`, and an ungrouped aggregate over no rows gives no row.
//!
//! The answer is sorted like [`orchestra_engine::QueryReport::rows`].

use crate::TableSet;
use orchestra_common::{OrchestraError, Result, Tuple, Value};
use orchestra_engine::AggFunc;
use orchestra_optimizer::logical::predicate_columns;
use orchestra_optimizer::{col, ColRef, LogicalExpr, LogicalQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The answer `query` gives over `tables`, sorted.  A relation `tables`
/// does not name has no rows.  A slot, column or select position that
/// the query names but the data lacks is an `Execution` error.
pub fn evaluate(query: &LogicalQuery, tables: &TableSet) -> Result<Vec<Tuple>> {
    let widest = widest_columns(query)?;
    // Every combination of stored rows joined so far, one row per slot,
    // laid end to end; before the first slot there is one empty one.
    let (mut joined, mut count): (Vec<&Tuple>, usize) = (Vec::new(), 1);
    for (slot, name) in query.relations.iter().enumerate() {
        // (earlier slot's column, this slot's column) of every edge
        // between this slot and an earlier one.
        let edges: Vec<(ColRef, usize)> = query
            .joins
            .iter()
            .flat_map(|e| [(e.left, e.right), (e.right, e.left)])
            .filter(|(earlier, this)| this.relation == slot && earlier.relation < slot)
            .map(|(earlier, this)| (earlier, this.column))
            .collect();
        // The combinations by their ends of those edges, probed with
        // each row of this slot that passes its conjuncts.
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for i in 0..count {
            let combo = &joined[i * slot..(i + 1) * slot];
            let key = edges
                .iter()
                .map(|(c, _)| combo[c.relation].value(c.column).clone());
            index.entry(key.collect()).or_default().push(i);
        }
        let (mut next, mut key) = (Vec::new(), Vec::new());
        count = 0;
        for row in tables.get(name).into_iter().flatten() {
            if let Some(c) = widest[slot].filter(|&c| c >= row.arity()) {
                return Err(OrchestraError::Execution(format!(
                    "the query reads column {c} of {name}, past the end of a row"
                )));
            }
            let kept = query
                .predicates
                .iter()
                .all(|(s, p)| *s != slot || p.eval(row));
            if !kept {
                continue;
            }
            key.clear();
            key.extend(edges.iter().map(|&(_, c)| row.value(c).clone()));
            for &i in index.get(&key).into_iter().flatten() {
                next.extend_from_slice(&joined[i * slot..(i + 1) * slot]);
                next.push(row);
                count += 1;
            }
        }
        joined = next;
    }
    let slots = query.relations.len();
    let combos = (0..count).map(|i| &joined[i * slots..(i + 1) * slots]);
    let mut answer: Vec<Tuple> = match &query.aggregation {
        None => combos
            .map(|combo| match whole_row(&query.select, combo) {
                Some(row) => row.clone(),
                None => query.select.iter().map(|e| eval(e, combo)).collect(),
            })
            .collect(),
        Some(agg) => {
            // Each group's running `(value, count)` per aggregate.
            let mut groups: BTreeMap<Vec<Value>, Vec<(Value, i64)>> = BTreeMap::new();
            let mut row = Vec::new();
            for combo in combos {
                row.clear();
                row.extend(query.select.iter().map(|e| eval(e, combo)));
                let key = agg.group_by.iter().map(|&p| row[p].clone()).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| vec![(Value::Null, 0); agg.aggs.len()]);
                for (&(func, p), state) in agg.aggs.iter().zip(states) {
                    fold(func, state, &row[p]);
                }
            }
            let finish_group = |(mut key, states): (Vec<Value>, Vec<(Value, i64)>)| {
                key.extend(agg.aggs.iter().zip(states).map(|(&(f, _), s)| finish(f, s)));
                Tuple::new(key)
            };
            groups.into_iter().map(finish_group).collect()
        }
    };
    answer.sort();
    Ok(answer)
}

/// The widest column the query reads of each slot, after checking that
/// every slot and select position it names exists and that every join
/// edge connects two slots.
fn widest_columns(query: &LogicalQuery) -> Result<Vec<Option<usize>>> {
    let mut read = query.select_columns();
    read.extend(query.joins.iter().flat_map(|e| [e.left, e.right]));
    for (slot, p) in &query.predicates {
        let mut columns = BTreeSet::new();
        predicate_columns(p, &mut columns);
        read.extend(columns.into_iter().map(|c| col(*slot, c)));
    }
    let mut positions = query
        .aggregation
        .iter()
        .flat_map(|a| a.group_by.iter().chain(a.aggs.iter().map(|(_, p)| p)));
    let self_edge = query
        .joins
        .iter()
        .any(|e| e.left.relation == e.right.relation);
    let what = if let Some(c) = read.iter().find(|c| c.relation >= query.relations.len()) {
        format!("the query has no relation slot {}", c.relation)
    } else if self_edge {
        "a join edge must connect two distinct relation slots".into()
    } else if let Some(p) = positions.find(|&&p| p >= query.select.len()) {
        format!("the select list has no position {p}")
    } else {
        // `read` is ordered by slot, then column.
        let mut widest = vec![None; query.relations.len()];
        for c in read {
            widest[c.relation] = Some(c.column);
        }
        return Ok(widest);
    };
    Err(OrchestraError::Execution(what))
}

/// `expr` over one joined row, one stored row per slot.
fn eval(expr: &LogicalExpr, combo: &[&Tuple]) -> Value {
    match expr {
        LogicalExpr::Column(c) => combo[c.relation].value(c.column).clone(),
        LogicalExpr::Literal(v) => v.clone(),
        LogicalExpr::Add(a, b) => eval(a, combo).add(&eval(b, combo)),
        LogicalExpr::Sub(a, b) => eval(a, combo).sub(&eval(b, combo)),
        LogicalExpr::Mul(a, b) => eval(a, combo).mul(&eval(b, combo)),
        LogicalExpr::Concat(parts) => Value::str(parts.iter().fold(String::new(), |mut out, p| {
            eval(p, combo).write_to(&mut out);
            out
        })),
    }
}

/// The stored row of `combo` that is the whole select list — one slot's
/// columns in order — if there is one.  The answer shares it.
fn whole_row<'a>(select: &[LogicalExpr], combo: &[&'a Tuple]) -> Option<&'a Tuple> {
    let LogicalExpr::Column(first) = select.first()? else {
        return None;
    };
    let row = combo[first.relation];
    let mut columns = select.iter().enumerate();
    let whole = row.arity() == select.len()
        && columns.all(|(i, e)| *e == LogicalExpr::col(first.relation, i));
    whole.then_some(row)
}

/// Fold `v` into one aggregate's running `(value, count)`: COUNT counts
/// rows, the others skip NULLs; SUM and AVG add, MIN and MAX keep the
/// first of equal extremes.
fn fold(func: AggFunc, (acc, n): &mut (Value, i64), v: &Value) {
    match func {
        AggFunc::Count => *n += 1,
        _ if v.is_null() => {}
        AggFunc::Min if acc.is_null() || v < acc => *acc = v.clone(),
        AggFunc::Max if acc.is_null() || v > acc => *acc = v.clone(),
        AggFunc::Sum | AggFunc::Avg => (*acc, *n) = (acc.add(v), *n + 1),
        AggFunc::Min | AggFunc::Max => {}
    }
}

/// One aggregate's value from its running `(value, count)`.
fn finish(func: AggFunc, (acc, n): (Value, i64)) -> Value {
    match func {
        AggFunc::Count => Value::Int(n),
        AggFunc::Avg if n == 0 => Value::Null,
        AggFunc::Avg => Value::Double(acc.as_f64().unwrap_or(0.0) / n as f64),
        _ => acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_engine::{CmpOp, Predicate};

    fn row(values: &[Value]) -> Tuple {
        Tuple::new(values.to_vec())
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    /// `parent(id, name)`, `child(id, parent, amount)` with NULL amounts
    /// and an orphan, `tag(child, label)`.
    fn tables() -> TableSet {
        let null = Value::Null;
        TableSet::from([
            (
                "parent".to_string(),
                vec![
                    row(&[int(1), s("ann")]),
                    row(&[int(2), s("bob")]),
                    row(&[int(3), s("cy")]),
                ],
            ),
            (
                "child".to_string(),
                vec![
                    row(&[int(10), int(1), int(5)]),
                    row(&[int(11), int(1), null.clone()]),
                    row(&[int(12), int(2), int(4)]),
                    row(&[int(13), int(2), int(7)]),
                    row(&[int(14), int(9), int(1)]),
                    row(&[int(15), int(3), null]),
                ],
            ),
            (
                "tag".to_string(),
                vec![
                    row(&[int(10), s("x")]),
                    row(&[int(12), s("y")]),
                    row(&[int(14), s("z")]),
                ],
            ),
        ])
    }

    fn answer(q: &LogicalQuery) -> Vec<Tuple> {
        evaluate(q, &tables()).unwrap()
    }

    #[test]
    fn a_join_edge_may_be_written_in_either_direction() {
        let expected = vec![
            row(&[s("ann"), int(10)]),
            row(&[s("ann"), int(11)]),
            row(&[s("bob"), int(12)]),
            row(&[s("bob"), int(13)]),
            row(&[s("cy"), int(15)]),
        ];
        for parent_first in [true, false] {
            let mut q = LogicalQuery::new();
            let p = q.relation("parent");
            let c = q.relation("child");
            if parent_first {
                q.join(col(p, 0), col(c, 1));
            } else {
                q.join(col(c, 1), col(p, 0));
            }
            q.select(vec![LogicalExpr::col(p, 1), LogicalExpr::col(c, 0)]);
            assert_eq!(answer(&q), expected, "parent first: {parent_first}");
        }
    }

    #[test]
    fn a_slot_order_need_not_be_a_join_order() {
        // `tag` shares no edge with `parent`; `child` connects both.
        let mut q = LogicalQuery::new();
        let p = q.relation("parent");
        let t = q.relation("tag");
        let c = q.relation("child");
        q.join(col(p, 0), col(c, 1))
            .join(col(c, 0), col(t, 0))
            .select(vec![LogicalExpr::col(p, 1), LogicalExpr::col(t, 1)]);
        assert_eq!(
            answer(&q),
            vec![row(&[s("ann"), s("x")]), row(&[s("bob"), s("y")])]
        );
    }

    #[test]
    fn aggregates_skip_nulls_and_count_rows() {
        let mut q = LogicalQuery::new();
        let c = q.relation("child");
        q.select(vec![LogicalExpr::col(c, 1), LogicalExpr::col(c, 2)])
            .aggregate(
                vec![0],
                vec![
                    (AggFunc::Sum, 1),
                    (AggFunc::Avg, 1),
                    (AggFunc::Min, 1),
                    (AggFunc::Max, 1),
                    (AggFunc::Count, 1),
                ],
            );
        let null = Value::Null;
        let d = Value::Double;
        assert_eq!(
            answer(&q),
            vec![
                row(&[int(1), int(5), d(5.0), int(5), int(5), int(2)]),
                row(&[int(2), int(11), d(5.5), int(4), int(7), int(2)]),
                row(&[
                    int(3),
                    null.clone(),
                    null.clone(),
                    null.clone(),
                    null,
                    int(1)
                ]),
                row(&[int(9), int(1), d(1.0), int(1), int(1), int(1)]),
            ]
        );
    }

    #[test]
    fn the_average_of_integers_is_a_double() {
        let mut q = LogicalQuery::new();
        let c = q.relation("child");
        q.select(vec![LogicalExpr::col(c, 2)])
            .aggregate(vec![], vec![(AggFunc::Avg, 0)]);
        // (5 + 4 + 7 + 1) / 4; `Value` equality alone would accept Int(4).
        let avg = answer(&q)[0].value(0).clone();
        assert!(matches!(avg, Value::Double(v) if v == 4.25), "{avg:?}");
    }

    #[test]
    fn min_and_max_order_strings() {
        let mut q = LogicalQuery::new();
        let p = q.relation("parent");
        q.select(vec![LogicalExpr::col(p, 1)])
            .aggregate(vec![], vec![(AggFunc::Min, 0), (AggFunc::Max, 0)]);
        assert_eq!(answer(&q), vec![row(&[s("ann"), s("cy")])]);
    }

    #[test]
    fn an_ungrouped_aggregate_over_no_rows_gives_no_row() {
        let mut q = LogicalQuery::new();
        let p = q.relation("parent");
        q.filter(p, Predicate::cmp(0, CmpOp::Gt, 100i64))
            .select(vec![LogicalExpr::col(p, 0)])
            .aggregate(vec![], vec![(AggFunc::Count, 0)]);
        assert_eq!(answer(&q), Vec::<Tuple>::new());
        // A relation the tables do not name has no rows either.
        q.relations[p] = "absent".into();
        assert_eq!(answer(&q), Vec::<Tuple>::new());
    }

    #[test]
    fn an_answer_without_aggregates_keeps_duplicates_and_shares_whole_rows() {
        let mut q = LogicalQuery::new();
        let c = q.relation("child");
        q.filter(c, Predicate::cmp(1, CmpOp::Le, 2i64))
            .select(vec![LogicalExpr::col(c, 1)]);
        assert_eq!(
            answer(&q),
            vec![
                row(&[int(1)]),
                row(&[int(1)]),
                row(&[int(2)]),
                row(&[int(2)])
            ]
        );

        let tables = tables();
        let mut q = LogicalQuery::new();
        let p = q.relation("parent");
        q.select(vec![LogicalExpr::col(p, 0), LogicalExpr::col(p, 1)]);
        let copied = evaluate(&q, &tables).unwrap();
        assert_eq!(copied, tables["parent"]);
        assert!(std::ptr::eq(
            copied[0].values(),
            tables["parent"][0].values()
        ));
    }

    #[test]
    fn concat_renders_integers_and_strings() {
        let mut q = LogicalQuery::new();
        let p = q.relation("parent");
        q.filter(p, Predicate::cmp(0, CmpOp::Eq, 1i64))
            .select(vec![LogicalExpr::Concat(vec![
                LogicalExpr::col(p, 0),
                LogicalExpr::lit("-"),
                LogicalExpr::col(p, 1),
            ])]);
        assert_eq!(answer(&q), vec![row(&[s("1-ann")])]);
    }

    #[test]
    fn a_malformed_query_is_an_error_not_a_panic() {
        let base = || {
            let mut q = LogicalQuery::new();
            q.relation("parent");
            q.relation("child");
            q
        };
        let mut no_slot = base();
        no_slot.select(vec![LogicalExpr::col(2, 0)]);
        let mut no_column = base();
        no_column.filter(0, Predicate::cmp(5, CmpOp::Eq, 1i64));
        let mut no_join_column = base();
        no_join_column.join(col(0, 0), col(1, 3));
        let mut self_edge = base();
        self_edge.join(col(0, 0), col(0, 1));
        let mut no_position = base();
        no_position
            .select(vec![LogicalExpr::col(0, 0)])
            .aggregate(vec![], vec![(AggFunc::Sum, 1)]);
        for (what, q) in [
            ("slot", no_slot),
            ("predicate column", no_column),
            ("join column", no_join_column),
            ("self edge", self_edge),
            ("select position", no_position),
        ] {
            let err = evaluate(&q, &tables()).expect_err(what);
            assert_eq!(err.category(), "execution", "{what}: {err}");
        }
    }
}
