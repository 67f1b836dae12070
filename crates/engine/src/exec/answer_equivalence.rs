//! An answer stays a batch until the report; the per-`Value` compute and
//! the appended, `Tuple`-sorted answer it replaced are the reference.
//!
//! [`eval_column`] and [`reference_compute`] are the `Compute-function`
//! operator as it ran: each expression evaluated into a `Vec<Value>` and
//! interned back cell by cell against a clone of the input pool.
//! [`reference_answer`] is `Output` and the report as they ran: every
//! delivered batch appended into one, each row built as a `Tuple` and the
//! list sorted by `(Tuple, sign)`; [`reference_purge`] is recovery's output
//! purge over that one batch.  Over random batches — `Int`, `Double` (NaN,
//! ±0.0, integral values), `Str` and untyped columns mixing NULL, `Int`
//! and `Double`, a column typed differently from one batch to the next,
//! narrower batches, rows equal under `Ord` and negative signs — and
//! random expressions over columns and literals of every type:
//!
//! * [`compute`] must build what the reference built, from a batch it
//!   holds alone and from a shared one alike: column variants, cells,
//!   tags, and every computed cell equal to [`ScalarExpr::eval`] of its
//!   row;
//! * [`sorted_answer`] must return the reference's rows, `Debug`-equal
//!   (so variants and order match), before and after a purge, and
//!   [`purge_shared`], recovery's purge of the delivered batches, must
//!   drop as many rows as the reference did and leave a batch it shares
//!   with a sender's cache untouched.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

use super::report::sorted_answer;
use crate::expr::{compute, ScalarExpr};
use crate::ops::purge_shared;
use orchestra_common::rng::{seeded, StdRng};
use orchestra_common::{Column, ColumnData, ColumnarBatch, NodeId, NodeSet, Tuple, Value};
use std::rc::Rc;

/// `ScalarExpr::eval_column` as it ran: the expression's value in every
/// row of `batch`, a whole column of `Value`s at a time.
fn eval_column(e: &ScalarExpr, batch: &ColumnarBatch) -> Vec<Value> {
    match e {
        ScalarExpr::Column(i) => match batch.column(*i).data() {
            ColumnData::Int(v) => v.iter().map(|x| Value::Int(*x)).collect(),
            ColumnData::Double(v) => v.iter().map(|x| Value::Double(*x)).collect(),
            ColumnData::Str(ids) => ids
                .iter()
                .map(|id| Value::Str(batch.pool().get_shared(*id).clone()))
                .collect(),
            ColumnData::Values(v) => v.clone(),
        },
        ScalarExpr::Literal(v) => vec![v.clone(); batch.len()],
        ScalarExpr::Add(a, b) => binary_column(a, b, batch, Value::add),
        ScalarExpr::Sub(a, b) => binary_column(a, b, batch, Value::sub),
        ScalarExpr::Mul(a, b) => binary_column(a, b, batch, Value::mul),
        ScalarExpr::Concat(parts) => {
            let cols: Vec<Vec<Value>> = parts.iter().map(|p| eval_column(p, batch)).collect();
            let mut out = String::new();
            (0..batch.len())
                .map(|i| {
                    out.clear();
                    for c in &cols {
                        c[i].write_to(&mut out);
                    }
                    Value::str(out.as_str())
                })
                .collect()
        }
    }
}

/// Zip two evaluated argument columns through a binary value operation.
fn binary_column(
    a: &ScalarExpr,
    b: &ScalarExpr,
    batch: &ColumnarBatch,
    f: fn(&Value, &Value) -> Value,
) -> Vec<Value> {
    let left = eval_column(a, batch);
    let right = eval_column(b, batch);
    left.iter().zip(&right).map(|(x, y)| f(x, y)).collect()
}

/// The `Compute-function` operator as it ran: passthrough columns cloned
/// against a clone of the pool, computed ones interned cell by cell, tags
/// copied.
fn reference_compute(exprs: &[ScalarExpr], batch: &ColumnarBatch) -> ColumnarBatch {
    let mut pool = batch.pool().clone();
    let cols: Vec<Column> = exprs
        .iter()
        .map(|e| match e {
            ScalarExpr::Column(i) => batch.column(*i).clone(),
            _ => Column::from_values(eval_column(e, batch), &mut pool),
        })
        .collect();
    ColumnarBatch::from_parts(
        pool,
        cols,
        batch.sign_column().to_vec(),
        batch.provenance_column().to_vec(),
        batch.phase_column().to_vec(),
    )
}

/// `Output` and the report as they ran: the delivered batches appended
/// into one, a `Tuple` built per row, and the rows sorted.
fn reference_answer(batches: &[Rc<ColumnarBatch>]) -> Vec<(Tuple, i8)> {
    let mut out = ColumnarBatch::new(0);
    for batch in batches {
        out.append_batch(batch);
    }
    appended_answer(&out)
}

fn appended_answer(out: &ColumnarBatch) -> Vec<(Tuple, i8)> {
    let mut rows: Vec<(Tuple, i8)> = (0..out.len())
        .map(|i| (out.tuple_at(i), out.sign_at(i)))
        .collect();
    rows.sort();
    rows
}

/// Recovery's output purge as it ran, over the appended answer: the rows
/// it dropped and the answer left.
fn reference_purge(batches: &[Rc<ColumnarBatch>], failed: &NodeSet) -> (usize, Vec<(Tuple, i8)>) {
    let mut out = ColumnarBatch::new(0);
    for batch in batches {
        out.append_batch(batch);
    }
    let before = out.len();
    let keep: Vec<bool> = out
        .provenance_column()
        .iter()
        .map(|p| !p.intersects(failed))
        .collect();
    out.retain(&keep);
    (before - out.len(), appended_answer(&out))
}

/// The widest batch a case draws.
const WIDTH: usize = 4;

/// How a column's cells are drawn.
#[derive(Clone, Copy)]
enum Cells {
    Int,
    Double,
    Str,
    /// NULL, `Int` and `Double` in one column.
    Numbers,
    /// Anything.
    Any,
}

fn int(rng: &mut StdRng) -> Value {
    Value::Int(rng.random_range(0..7u64) as i64 - 3)
}

fn double(rng: &mut StdRng) -> Value {
    const EDGES: [f64; 5] = [f64::NAN, -0.0, 0.0, 2.0, -3.0];
    Value::Double(if rng.random_bool(0.4) {
        EDGES[rng.random_range(0..EDGES.len())]
    } else {
        (rng.random_range(0..13u64) as f64 - 6.0) / 4.0
    })
}

fn string(rng: &mut StdRng) -> Value {
    const WORDS: [&str; 4] = ["", "a", "bb", "a-1"];
    Value::str(WORDS[rng.random_range(0..WORDS.len())])
}

fn random_cell(rng: &mut StdRng, cells: Cells) -> Value {
    match cells {
        Cells::Int => int(rng),
        Cells::Double => double(rng),
        Cells::Str => string(rng),
        Cells::Numbers | Cells::Any => match rng.random_range(0..4u8) {
            0 => Value::Null,
            1 => int(rng),
            2 => double(rng),
            _ if matches!(cells, Cells::Any) => string(rng),
            _ => int(rng),
        },
    }
}

/// A batch of up to 12 rows, its columns' kinds drawn afresh — so a
/// column is typed differently from one batch to the next — and now and
/// then narrower than [`WIDTH`].
fn random_batch(rng: &mut StdRng) -> ColumnarBatch {
    const KINDS: [Cells; 5] = [
        Cells::Int,
        Cells::Double,
        Cells::Str,
        Cells::Numbers,
        Cells::Any,
    ];
    let arity = if rng.random_bool(0.2) {
        rng.random_range(1..WIDTH)
    } else {
        WIDTH
    };
    let kinds: Vec<Cells> = (0..arity)
        .map(|_| KINDS[rng.random_range(0..KINDS.len())])
        .collect();
    let mut batch = ColumnarBatch::new(arity);
    for _ in 0..rng.random_range(1..13usize) {
        let row: Vec<Value> = kinds.iter().map(|k| random_cell(rng, *k)).collect();
        let sign = if rng.random_bool(0.3) { -1 } else { 1 };
        let node = NodeSet::singleton(NodeId(rng.random_range(0..4u16)));
        batch.push_row(&row, sign, node, rng.random_range(0..2u32));
    }
    batch
}

fn random_literal(rng: &mut StdRng) -> Value {
    match rng.random_range(0..4u8) {
        0 => Value::Null,
        1 => int(rng),
        2 => double(rng),
        _ => string(rng),
    }
}

/// An expression over the first `arity` columns, at most `depth` deep.
fn random_expr(rng: &mut StdRng, arity: usize, depth: u32) -> ScalarExpr {
    let leaf = depth == 0 || rng.random_bool(0.3);
    let sub = |rng: &mut StdRng| Box::new(random_expr(rng, arity, depth.saturating_sub(1)));
    match rng.random_range(0..if leaf { 2u8 } else { 6 }) {
        0 => ScalarExpr::col(rng.random_range(0..arity)),
        1 => ScalarExpr::Literal(random_literal(rng)),
        2 => ScalarExpr::Add(sub(rng), sub(rng)),
        3 => ScalarExpr::Sub(sub(rng), sub(rng)),
        4 => ScalarExpr::Mul(sub(rng), sub(rng)),
        _ => ScalarExpr::Concat(
            (0..rng.random_range(1..4usize))
                .map(|_| random_expr(rng, arity, depth.saturating_sub(1)))
                .collect(),
        ),
    }
}

/// What a batch shows a reader: each column's variant and cells, and the
/// tags.
fn observable(batch: &ColumnarBatch) -> String {
    let columns: Vec<(&str, Vec<Value>)> = (0..batch.arity())
        .map(|c| {
            let variant = match batch.column(c).data() {
                ColumnData::Int(_) => "Int",
                ColumnData::Double(_) => "Double",
                ColumnData::Str(_) => "Str",
                ColumnData::Values(_) => "Values",
            };
            (
                variant,
                (0..batch.len()).map(|r| batch.value_at(r, c)).collect(),
            )
        })
        .collect();
    format!(
        "{columns:?} {:?} {:?} {:?}",
        batch.sign_column(),
        batch.provenance_column(),
        batch.phase_column()
    )
}

#[test]
fn an_answer_built_from_batches_equals_the_appended_tuple_sort() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0xa45e_3e71);
    let (mut typed, mut purged) = (0, 0);
    for case in 0..cases {
        let mut delivered: Vec<Rc<ColumnarBatch>> = Vec::new();
        for _ in 0..rng.random_range(1..7usize) {
            let batch = random_batch(&mut rng);
            let exprs: Vec<ScalarExpr> = (0..rng.random_range(1..5usize))
                .map(|_| random_expr(&mut rng, batch.arity(), 3))
                .collect();
            let what = format!("case {case}: {exprs:?} over {}", observable(&batch));

            let reference = reference_compute(&exprs, &batch);
            let alone = compute(&exprs, Rc::new(batch.clone()));
            let shared = Rc::new(batch.clone());
            let copied = compute(&exprs, Rc::clone(&shared));
            assert_eq!(observable(&alone), observable(&reference), "{what}");
            assert_eq!(observable(&copied), observable(&reference), "{what}");
            assert_eq!(observable(&shared), observable(&batch), "{what}");
            for (c, e) in exprs.iter().enumerate() {
                for row in 0..batch.len() {
                    let cell = alone.value_at(row, c);
                    let expected = e.eval(&batch.tuple_at(row));
                    assert_eq!(format!("{cell:?}"), format!("{expected:?}"), "{what}");
                }
                typed += usize::from(
                    matches!(
                        alone.column(c).data(),
                        ColumnData::Int(_) | ColumnData::Double(_)
                    ) && !matches!(e, ScalarExpr::Column(_)),
                );
            }
            delivered.push(Rc::new(batch));
            delivered.push(Rc::new(alone));
        }

        let what = format!("case {case}");
        let answer = sorted_answer(&delivered);
        let rows: Vec<&Tuple> = answer.iter().map(|(t, _)| t).collect();
        let expected = reference_answer(&delivered);
        let expected_rows: Vec<&Tuple> = expected.iter().map(|(t, _)| t).collect();
        assert_eq!(format!("{answer:?}"), format!("{expected:?}"), "{what}");
        assert_eq!(format!("{rows:?}"), format!("{expected_rows:?}"), "{what}");

        // Purge what one failed node tainted; every other batch is also
        // held by its sender's cache, which must not see the cut.
        let failed = NodeSet::singleton(NodeId(rng.random_range(0..4u16)));
        let (dropped, expected) = reference_purge(&delivered, &failed);
        let caches: Vec<Rc<ColumnarBatch>> = delivered.iter().step_by(2).cloned().collect();
        let before: Vec<String> = caches.iter().map(|b| observable(b)).collect();
        assert_eq!(purge_shared(&mut delivered, &failed), dropped, "{what}");
        let after: Vec<String> = caches.iter().map(|b| observable(b)).collect();
        assert_eq!(after, before, "{what}: a cache entry was cut");
        let answer = sorted_answer(&delivered);
        assert_eq!(
            format!("{answer:?}"),
            format!("{expected:?}"),
            "{what}: purged"
        );
        purged += dropped;
    }
    assert!(typed > 0, "no expression ran as a typed loop");
    assert!(purged > 0, "no purge dropped a row");
}
