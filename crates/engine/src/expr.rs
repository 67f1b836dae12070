//! Scalar expressions, predicates and aggregate functions.
//!
//! The paper's engine evaluates sargable predicates at the leaf scans,
//! arbitrary selections over intermediate results, scalar function
//! evaluation (arithmetic, string concatenation — the STBenchmark
//! `Concatenate` scenario), and the usual SQL aggregates.  All of those
//! are expressed over column *indices* of the operator's input, which is
//! how the physical plan refers to data (names are resolved by the
//! optimizer).
//!
//! Over a batch, predicates evaluate into a mask column by column
//! ([`Predicate::eval_mask`]), and [`compute`] — the `Compute-function`
//! operator — builds each output column whole, in the style of
//! MonetDB/X100's typed primitives: `+`, `-` and `*` over `Int` and
//! `Double` columns and literals are typed loops of
//! `orchestra_common`'s [`Arith`] — the arithmetic `Value::{add, sub,
//! mul}` call, so their promotion is `Value`'s by construction — and a
//! concatenation renders each row into one buffer and interns it into
//! the output pool by content.  An operand that is NULL, a string or an
//! untyped column falls back to [`ScalarExpr::eval`]'s per-`Value`
//! semantics, a row at a time.  A predicate compares typed cells by the
//! one typed order, [`ColumnData::cmp_value`] and
//! [`ColumnData::cmp_cells`], a column at a time.

use orchestra_common::{
    Arith, Column, ColumnData, ColumnarBatch, Numbers, StringPool, Tuple, Value,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::rc::Rc;

/// Comparison operators usable in predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two values (using the total order on
    /// [`Value`]).
    pub fn eval(&self, left: &Value, right: &Value) -> bool {
        self.eval_ord(left.cmp(right))
    }

    /// Apply the comparison to an ordering (the column-wise paths compare
    /// typed cells directly and feed the ordering here).
    fn eval_ord(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A boolean predicate over a tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true (useful as a neutral element).
    True,
    /// Compare column `column` against a constant.
    Compare {
        /// Input column index.
        column: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Compare two columns of the same tuple.
    CompareColumns {
        /// Left column index.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right column index.
        right: usize,
    },
    /// `column BETWEEN low AND high` (inclusive).
    Between {
        /// Input column index.
        column: usize,
        /// Lower bound (inclusive).
        low: Value,
        /// Upper bound (inclusive).
        high: Value,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
    /// Disjunction of predicates.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column op value`.
    pub fn cmp(column: usize, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column,
            op,
            value: value.into(),
        }
    }

    /// Evaluate the predicate against a tuple.  A column past the
    /// tuple's end reads as NULL, the value that pads a short row in a
    /// batch.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        let cell = |c: usize| tuple.values().get(c).unwrap_or(&Value::Null);
        match self {
            Predicate::True => true,
            Predicate::Compare { column, op, value } => op.eval(cell(*column), value),
            Predicate::CompareColumns { left, op, right } => op.eval(cell(*left), cell(*right)),
            Predicate::Between { column, low, high } => {
                let v = cell(*column);
                v >= low && v <= high
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval(tuple)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(tuple)),
            Predicate::Not(p) => !p.eval(tuple),
        }
    }

    /// The columns the predicate reads, ascending, and the same predicate
    /// over just those: column `columns[i]` read as column `i`.  A scan
    /// evaluates it over a batch of those columns alone.
    pub(crate) fn narrowed(&self) -> (Vec<usize>, Predicate) {
        let mut columns = Vec::new();
        self.read_columns(&mut columns);
        columns.sort_unstable();
        columns.dedup();
        // Every column read is listed, so the search finds it.
        let narrowed = self.remapped(&|c| columns.binary_search(&c).unwrap_or_else(|at| at));
        (columns, narrowed)
    }

    /// Push every column the predicate reads onto `out`.
    fn read_columns(&self, out: &mut Vec<usize>) {
        match self {
            Predicate::True => {}
            Predicate::Compare { column, .. } | Predicate::Between { column, .. } => {
                out.push(*column)
            }
            Predicate::CompareColumns { left, right, .. } => out.extend([*left, *right]),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| p.read_columns(out)),
            Predicate::Not(p) => p.read_columns(out),
        }
    }

    /// The predicate with column `c` read as column `to(c)`.
    fn remapped(&self, to: &impl Fn(usize) -> usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::Compare { column, op, value } => Predicate::Compare {
                column: to(*column),
                op: *op,
                value: value.clone(),
            },
            Predicate::CompareColumns { left, op, right } => Predicate::CompareColumns {
                left: to(*left),
                op: *op,
                right: to(*right),
            },
            Predicate::Between { column, low, high } => Predicate::Between {
                column: to(*column),
                low: low.clone(),
                high: high.clone(),
            },
            Predicate::And(ps) => Predicate::And(ps.iter().map(|p| p.remapped(to)).collect()),
            Predicate::Or(ps) => Predicate::Or(ps.iter().map(|p| p.remapped(to)).collect()),
            Predicate::Not(p) => Predicate::Not(Box::new(p.remapped(to))),
        }
    }

    /// Estimated selectivity used by the optimizer's cost model when no
    /// better statistics exist (textbook defaults).
    ///
    /// The result is always a probability: every combinator clamps into
    /// `[0.0, 1.0]`, so floating-point drift in deeply nested `And`/`Or`/
    /// `Not` trees can never escape the unit interval.
    pub fn estimated_selectivity(&self) -> f64 {
        let s = match self {
            Predicate::True => 1.0,
            Predicate::Compare { op, .. } | Predicate::CompareColumns { op, .. } => match op {
                CmpOp::Eq => 0.1,
                CmpOp::Ne => 0.9,
                _ => 0.33,
            },
            Predicate::Between { .. } => 0.25,
            Predicate::And(ps) => ps
                .iter()
                .map(Predicate::estimated_selectivity)
                .product::<f64>(),
            Predicate::Or(ps) => {
                let none: f64 = ps.iter().map(|p| 1.0 - p.estimated_selectivity()).product();
                1.0 - none
            }
            Predicate::Not(p) => 1.0 - p.estimated_selectivity(),
        };
        s.clamp(0.0, 1.0)
    }

    /// Evaluate the predicate over every row of a columnar batch at once,
    /// overwriting `mask` with one boolean per row.  Typed columns are
    /// compared cell-by-cell without materializing [`Value`]s; the result
    /// is exactly `batch.tuple_at(i)` fed through [`Predicate::eval`].
    pub fn eval_mask(&self, batch: &ColumnarBatch, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(batch.len(), true);
        self.and_into(batch, mask);
    }

    /// AND this predicate's per-row result into `mask` (rows already
    /// false are skipped).
    fn and_into(&self, batch: &ColumnarBatch, mask: &mut [bool]) {
        match self {
            Predicate::True => {}
            Predicate::Compare { column, op, value } => {
                compare_const(batch, *column, *op, value, mask);
            }
            Predicate::Between { column, low, high } => {
                compare_const(batch, *column, CmpOp::Ge, low, mask);
                compare_const(batch, *column, CmpOp::Le, high, mask);
            }
            Predicate::CompareColumns { left, op, right } => {
                compare_columns(batch, *left, *op, *right, mask);
            }
            Predicate::And(ps) => {
                for p in ps {
                    p.and_into(batch, mask);
                }
            }
            Predicate::Or(ps) => {
                let mut any = vec![false; mask.len()];
                let mut scratch = vec![true; mask.len()];
                for p in ps {
                    scratch.fill(true);
                    p.and_into(batch, &mut scratch);
                    for (a, s) in any.iter_mut().zip(&scratch) {
                        *a |= *s;
                    }
                }
                for (m, a) in mask.iter_mut().zip(&any) {
                    *m &= *a;
                }
            }
            Predicate::Not(p) => {
                let mut scratch = vec![true; mask.len()];
                p.and_into(batch, &mut scratch);
                for (m, s) in mask.iter_mut().zip(&scratch) {
                    *m &= !*s;
                }
            }
        }
    }
}

/// Column-vs-constant comparison, AND-ed into `mask`.  A cell past the
/// batch's last column is NULL.
fn compare_const(
    batch: &ColumnarBatch,
    column: usize,
    op: CmpOp,
    value: &Value,
    mask: &mut [bool],
) {
    match batch.columns().get(column) {
        // One closure per operator, so that no row asks which operator it
        // is: that keeps the typed loop free of branches.
        Some(cells) => {
            let (d, p, rows) = (cells.data(), batch.pool(), 0..mask.len());
            match op {
                CmpOp::Eq => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_eq()),
                CmpOp::Ne => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_ne()),
                CmpOp::Lt => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_lt()),
                CmpOp::Le => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_le()),
                CmpOp::Gt => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_gt()),
                CmpOp::Ge => d.cmp_value(p, rows, value, |r, o| mask[r] &= o.is_ge()),
            }
        }
        None if !op.eval(&Value::Null, value) => mask.fill(false),
        None => {}
    }
}

/// Column-vs-column comparison, AND-ed into `mask`.  A cell past the
/// batch's last column is NULL.
fn compare_columns(batch: &ColumnarBatch, left: usize, op: CmpOp, right: usize, mask: &mut [bool]) {
    let (pool, rows) = (batch.pool(), 0..mask.len());
    let mut and = |row, ord| mask[row] &= op.eval_ord(ord);
    match (batch.columns().get(left), batch.columns().get(right)) {
        (Some(a), Some(b)) => a
            .data()
            .cmp_cells(pool, rows.clone(), b.data(), pool, rows, and),
        (Some(a), None) => a.data().cmp_value(pool, rows, &Value::Null, and),
        (None, Some(b)) => b
            .data()
            .cmp_value(pool, rows, &Value::Null, |row, ord| and(row, ord.reverse())),
        (None, None) => rows.for_each(|row| and(row, Ordering::Equal)),
    }
}

/// A scalar expression producing one output value per input tuple — the
/// engine's `Compute-function` operator evaluates a list of these.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Pass through input column `usize`.
    Column(usize),
    /// A literal constant.
    Literal(Value),
    /// Addition of two expressions.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Subtraction.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
    /// String concatenation of any number of expressions.
    Concat(Vec<ScalarExpr>),
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Column(i)
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Value {
        self.eval_row(&|i| tuple.value(i).clone())
    }

    /// Evaluate one row whose cells `cell` reads by column index: the
    /// per-[`Value`] semantics — `Value::{add, sub, mul}` and `Display`
    /// rendering for concatenation — that every batch path equals.
    fn eval_row(&self, cell: &impl Fn(usize) -> Value) -> Value {
        match self {
            ScalarExpr::Column(i) => cell(*i),
            ScalarExpr::Literal(v) => v.clone(),
            ScalarExpr::Add(a, b) => a.eval_row(cell).add(&b.eval_row(cell)),
            ScalarExpr::Sub(a, b) => a.eval_row(cell).sub(&b.eval_row(cell)),
            ScalarExpr::Mul(a, b) => a.eval_row(cell).mul(&b.eval_row(cell)),
            ScalarExpr::Concat(parts) => {
                let mut out = String::new();
                for p in parts {
                    p.eval_row(cell).write_to(&mut out);
                }
                Value::str(out)
            }
        }
    }

    /// The expression over every row of `columns` as typed numbers, when
    /// it is arithmetic over `Int` and `Double` columns and literals only;
    /// `None` when any operand is NULL, a string or an untyped column.
    fn numbers<'b>(&self, columns: &'b [Column]) -> Option<Numbers<'b>> {
        let (op, a, b) = match self {
            ScalarExpr::Column(i) => return Numbers::of(columns[*i].data()),
            ScalarExpr::Literal(v) => return Numbers::of_value(v),
            ScalarExpr::Concat(_) => return None,
            ScalarExpr::Add(a, b) => (Arith::Add, a, b),
            ScalarExpr::Sub(a, b) => (Arith::Sub, a, b),
            ScalarExpr::Mul(a, b) => (Arith::Mul, a, b),
        };
        Some(op.numbers(a.numbers(columns)?, b.numbers(columns)?))
    }

    /// The expression's column over the `rows` rows of `columns`, whose
    /// strings are ids into `pool`; strings it computes are interned into
    /// `pool` too.  Arithmetic over typed numbers runs as typed loops,
    /// concatenation renders each row into one buffer and interns it by
    /// content, and anything else — a NULL, string or untyped operand —
    /// is evaluated a row at a time through [`Value`].
    fn eval_into(&self, columns: &[Column], pool: &mut StringPool, rows: usize) -> Column {
        if let Some(numbers) = self.numbers(columns) {
            return Column::from_data(numbers.into_data(rows));
        }
        match self {
            ScalarExpr::Concat(parts) => {
                let mut rendered = Vec::new();
                Part::flatten(parts, columns, pool, rows, &mut rendered);
                let mut out = String::new();
                let ids = (0..rows)
                    .map(|row| {
                        out.clear();
                        for part in &rendered {
                            part.write(row, pool, &mut out);
                        }
                        pool.intern_str(&out)
                    })
                    .collect();
                Column::from_data(ColumnData::Str(ids))
            }
            _ => {
                let values = (0..rows)
                    .map(|row| self.eval_row(&|i| columns[i].value_at(row, pool)))
                    .collect();
                Column::from_values(values, pool)
            }
        }
    }
}

/// The `Compute-function` operator over a whole batch: one output column
/// per expression, in order, with the input's tags.  A batch the operator
/// holds alone is taken apart, and its pool, tags and passed-through
/// columns move into the output (a column passed through twice is cloned
/// for all but its last use); a shared batch — a delivered one is also
/// its sender's cache entry — is copied from.  Only the computed columns
/// are built.
pub fn compute(exprs: &[ScalarExpr], batch: Rc<ColumnarBatch>) -> ColumnarBatch {
    match Rc::try_unwrap(batch) {
        Ok(batch) => {
            let (mut pool, mut columns, signs, provenance, phases) = batch.into_parts();
            let rows = signs.len();
            let mut out: Vec<Option<Column>> = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(_) => None,
                    _ => Some(e.eval_into(&columns, &mut pool, rows)),
                })
                .collect();
            // Every computed column is built: the inputs can move now.
            for (j, e) in exprs.iter().enumerate() {
                if let ScalarExpr::Column(i) = e {
                    out[j] = Some(if exprs[j + 1..].contains(e) {
                        columns[*i].clone()
                    } else {
                        std::mem::take(&mut columns[*i])
                    });
                }
            }
            ColumnarBatch::from_parts(
                pool,
                out.into_iter().flatten().collect(),
                signs,
                provenance,
                phases,
            )
        }
        Err(shared) => {
            let mut pool = shared.pool().clone();
            let columns = shared.columns();
            let out = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(i) => columns[*i].clone(),
                    _ => e.eval_into(columns, &mut pool, shared.len()),
                })
                .collect();
            ColumnarBatch::from_parts(
                pool,
                out,
                shared.sign_column().to_vec(),
                shared.provenance_column().to_vec(),
                shared.phase_column().to_vec(),
            )
        }
    }
}

/// One part of a concatenation, ready to render row by row.
enum Part<'b> {
    /// A literal, the same in every row.
    Const(&'b Value),
    /// A column's cells, strings by id into the pool: an input column's,
    /// or an arithmetic part's, computed whole.
    Cells(Cow<'b, ColumnData>),
}

impl<'b> Part<'b> {
    /// The parts of `parts` in rendering order, a nested concatenation's
    /// spliced in (its string is its parts' renderings, one after the
    /// other).
    fn flatten(
        parts: &'b [ScalarExpr],
        columns: &'b [Column],
        pool: &mut StringPool,
        rows: usize,
        out: &mut Vec<Part<'b>>,
    ) {
        for p in parts {
            let part = match p {
                ScalarExpr::Literal(v) => Part::Const(v),
                ScalarExpr::Column(i) => Part::Cells(Cow::Borrowed(columns[*i].data())),
                ScalarExpr::Concat(nested) => {
                    Part::flatten(nested, columns, pool, rows, out);
                    continue;
                }
                _ => Part::Cells(Cow::Owned(p.eval_into(columns, pool, rows).into_data())),
            };
            out.push(part);
        }
    }

    /// Append row `row`'s rendering to `out`.
    fn write(&self, row: usize, pool: &StringPool, out: &mut String) {
        match self {
            Part::Const(v) => v.write_to(out),
            Part::Cells(cells) => match &**cells {
                ColumnData::Int(v) => Value::Int(v[row]).write_to(out),
                ColumnData::Double(v) => Value::Double(v[row]).write_to(out),
                ColumnData::Str(ids) => out.push_str(pool.get(ids[row])),
                ColumnData::Values(v) => v[row].write_to(out),
            },
        }
    }
}

/// SQL aggregate functions supported by the aggregation operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` (the input column is ignored).
    Count,
    /// `SUM(column)`.
    Sum,
    /// `MIN(column)`.
    Min,
    /// `MAX(column)`.
    Max,
    /// `AVG(column)` — carried as (sum, count) in partial aggregates.
    Avg,
}

impl AggFunc {
    /// Number of state columns this aggregate occupies in a *partial*
    /// aggregate's output (AVG needs sum and count).
    pub fn partial_width(&self) -> usize {
        match self {
            AggFunc::Avg => 2,
            _ => 1,
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
    fn typed_int_and_double_comparisons_follow_value_order() {
        let (ints, doubles) = crate::ops::tests::edge_numbers();
        let rows: Vec<Tuple> = (ints.iter())
            .flat_map(|&i| {
                doubles
                    .iter()
                    .map(move |&d| t(vec![Value::Int(i), Value::Double(d)]))
            })
            .collect();
        let batch = ColumnarBatch::from_tuples(2, &rows, 1, orchestra_common::NodeSet::empty(), 0);
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(1).data(), ColumnData::Double(_)));
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let constants =
            (ints.iter().map(|&i| Value::Int(i))).chain(doubles.iter().map(|&d| Value::Double(d)));
        let mut predicates = Vec::new();
        for op in ops {
            predicates.push(Predicate::CompareColumns {
                left: 0,
                op,
                right: 1,
            });
            predicates.push(Predicate::CompareColumns {
                left: 1,
                op,
                right: 0,
            });
            for c in constants.clone() {
                predicates.push(Predicate::cmp(0, op, c.clone()));
                predicates.push(Predicate::cmp(1, op, c));
            }
        }
        let mut mask = Vec::new();
        for predicate in &predicates {
            predicate.eval_mask(&batch, &mut mask);
            for (row, kept) in rows.iter().zip(&mask) {
                assert_eq!(*kept, predicate.eval(row), "{predicate:?} on {row:?}");
            }
        }
    }

    #[test]
    fn comparisons_follow_value_order() {
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.eval(&Value::Double(2.0), &Value::Int(2)));
        assert!(CmpOp::Ne.eval(&Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn predicate_evaluation() {
        let row = t(vec![Value::Int(5), Value::str("abc"), Value::Double(1.5)]);
        assert!(Predicate::cmp(0, CmpOp::Gt, 3i64).eval(&row));
        assert!(!Predicate::cmp(0, CmpOp::Gt, 7i64).eval(&row));
        assert!(Predicate::Between {
            column: 2,
            low: Value::Double(1.0),
            high: Value::Double(2.0)
        }
        .eval(&row));
        assert!(Predicate::And(vec![
            Predicate::cmp(0, CmpOp::Eq, 5i64),
            Predicate::cmp(1, CmpOp::Eq, "abc"),
        ])
        .eval(&row));
        assert!(Predicate::Or(vec![
            Predicate::cmp(0, CmpOp::Eq, 99i64),
            Predicate::cmp(1, CmpOp::Eq, "abc"),
        ])
        .eval(&row));
        assert!(Predicate::Not(Box::new(Predicate::cmp(0, CmpOp::Eq, 99i64))).eval(&row));
        assert!(Predicate::CompareColumns {
            left: 0,
            op: CmpOp::Gt,
            right: 2
        }
        .eval(&row));
        assert!(Predicate::True.eval(&row));
    }

    #[test]
    fn selectivity_estimates_are_probabilities() {
        let preds = [
            Predicate::True,
            Predicate::cmp(0, CmpOp::Eq, 1i64),
            Predicate::cmp(0, CmpOp::Lt, 1i64),
            Predicate::And(vec![
                Predicate::cmp(0, CmpOp::Eq, 1i64),
                Predicate::cmp(1, CmpOp::Lt, 2i64),
            ]),
            Predicate::Or(vec![
                Predicate::cmp(0, CmpOp::Eq, 1i64),
                Predicate::cmp(1, CmpOp::Lt, 2i64),
            ]),
            Predicate::Not(Box::new(Predicate::cmp(0, CmpOp::Eq, 1i64))),
        ];
        for p in preds {
            let s = p.estimated_selectivity();
            assert!((0.0..=1.0).contains(&s), "{s} out of range for {p:?}");
        }
    }

    #[test]
    fn deeply_nested_selectivity_stays_in_the_unit_interval() {
        // Regression: build pathological nestings of And/Or/Not and verify
        // the estimate never drifts outside [0, 1] at any depth.
        let mut p = Predicate::cmp(0, CmpOp::Eq, 1i64);
        for depth in 0..96 {
            p = match depth % 3 {
                0 => Predicate::And(vec![p, Predicate::cmp(1, CmpOp::Ne, 2i64)]),
                1 => Predicate::Or(vec![p, Predicate::Not(Box::new(Predicate::True))]),
                _ => Predicate::Not(Box::new(p)),
            };
            let s = p.estimated_selectivity();
            assert!(
                (0.0..=1.0).contains(&s),
                "selectivity {s} escaped [0, 1] at depth {depth}"
            );
        }
        // Wide conjunctions and disjunctions of extreme children saturate
        // at the interval's endpoints instead of drifting past them.
        let wide_and = Predicate::And(vec![Predicate::cmp(0, CmpOp::Eq, 1i64); 400]);
        assert_eq!(wide_and.estimated_selectivity(), 0.0);
        let wide_or = Predicate::Or(vec![Predicate::cmp(0, CmpOp::Lt, 1i64); 400]);
        assert_eq!(wide_or.estimated_selectivity(), 1.0);
    }

    #[test]
    fn scalar_expressions_evaluate() {
        let row = t(vec![Value::Int(10), Value::Double(0.1), Value::str("id")]);
        // extendedprice * (1 - discount)
        let expr = ScalarExpr::Mul(
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::Sub(
                Box::new(ScalarExpr::lit(1.0)),
                Box::new(ScalarExpr::col(1)),
            )),
        );
        assert_eq!(expr.eval(&row), Value::Double(9.0));
        let concat = ScalarExpr::Concat(vec![
            ScalarExpr::col(2),
            ScalarExpr::lit("-"),
            ScalarExpr::col(0),
        ]);
        assert_eq!(concat.eval(&row), Value::str("id-10"));
    }

    #[test]
    fn agg_partial_widths() {
        assert_eq!(AggFunc::Avg.partial_width(), 2);
        assert_eq!(AggFunc::Sum.partial_width(), 1);
        assert_eq!(AggFunc::Count.partial_width(), 1);
    }

    #[test]
    fn mask_and_column_evaluation_match_row_evaluation() {
        use orchestra_common::{ColumnarBatch, NodeSet};
        // Typed columns (int, double, str) plus a demoted mixed column,
        // exercising every fast path against the row-at-a-time oracle.
        let rows = vec![
            t(vec![
                Value::Int(1),
                Value::Double(0.5),
                Value::str("a"),
                Value::Int(7),
            ]),
            t(vec![
                Value::Int(2),
                Value::Double(1.5),
                Value::str("b"),
                Value::str("x"),
            ]),
            t(vec![
                Value::Int(3),
                Value::Double(2.5),
                Value::str("a"),
                Value::Null,
            ]),
            t(vec![
                Value::Int(4),
                Value::Double(3.5),
                Value::str("c"),
                Value::Double(2.0),
            ]),
        ];
        let batch = ColumnarBatch::from_tuples(4, &rows, 1, NodeSet::default(), 0);
        let preds = [
            Predicate::cmp(0, CmpOp::Ge, 2i64),
            Predicate::cmp(0, CmpOp::Lt, 2.5f64),
            Predicate::cmp(1, CmpOp::Gt, 1i64),
            Predicate::cmp(2, CmpOp::Eq, "a"),
            Predicate::cmp(2, CmpOp::Gt, 1i64), // rank-uniform: Str > numeric
            Predicate::cmp(2, CmpOp::Le, 1.5f64),
            Predicate::cmp(2, CmpOp::Ne, Value::Null), // ... and Str > NULL
            Predicate::cmp(0, CmpOp::Lt, "a"),         // numeric < Str, numeric > NULL
            Predicate::cmp(1, CmpOp::Gt, Value::Null),
            Predicate::cmp(1, CmpOp::Eq, ""),
            Predicate::cmp(3, CmpOp::Eq, "x"), // demoted column, generic path
            Predicate::Between {
                column: 1,
                low: Value::Double(1.0),
                high: Value::Double(3.0),
            },
            Predicate::CompareColumns {
                left: 0,
                op: CmpOp::Lt,
                right: 1,
            },
            Predicate::CompareColumns {
                left: 2,
                op: CmpOp::Eq,
                right: 2,
            },
            Predicate::CompareColumns {
                left: 0,
                op: CmpOp::Gt,
                right: 3,
            },
            // Past the rows' end, where every cell reads as NULL.
            Predicate::cmp(5, CmpOp::Eq, Value::Null),
            Predicate::cmp(5, CmpOp::Lt, 1i64),
            Predicate::Between {
                column: 6,
                low: Value::Null,
                high: Value::Int(0),
            },
            Predicate::CompareColumns {
                left: 0,
                op: CmpOp::Gt,
                right: 5,
            },
            Predicate::CompareColumns {
                left: 5,
                op: CmpOp::Eq,
                right: 6,
            },
            Predicate::And(vec![
                Predicate::cmp(0, CmpOp::Gt, 1i64),
                Predicate::Or(vec![
                    Predicate::cmp(2, CmpOp::Eq, "a"),
                    Predicate::Not(Box::new(Predicate::cmp(1, CmpOp::Lt, 3.0f64))),
                ]),
            ]),
        ];
        let mut mask = Vec::new();
        for p in &preds {
            p.eval_mask(&batch, &mut mask);
            let oracle: Vec<bool> = rows.iter().map(|r| p.eval(r)).collect();
            assert_eq!(mask, oracle, "mask diverged for {p:?}");
        }
        let exprs = [
            ScalarExpr::col(2),
            ScalarExpr::Mul(
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::Sub(
                    Box::new(ScalarExpr::lit(1.0)),
                    Box::new(ScalarExpr::col(1)),
                )),
            ),
            ScalarExpr::Concat(vec![
                ScalarExpr::col(2),
                ScalarExpr::lit("-"),
                ScalarExpr::col(3),
            ]),
        ];
        let computed = compute(&exprs, std::rc::Rc::new(batch));
        for (c, e) in exprs.iter().enumerate() {
            let col: Vec<Value> = (0..rows.len()).map(|r| computed.value_at(r, c)).collect();
            let oracle: Vec<Value> = rows.iter().map(|r| e.eval(r)).collect();
            assert_eq!(col, oracle, "column diverged for {e:?}");
        }
    }
}
