//! A publication's tuple versions, stored as columns.
//!
//! Every publication of a relation stores the tuple versions it creates as
//! one immutable [`TupleRun`]: one typed column per attribute (`Int`,
//! `Double` or `Str`, with the `Values` fallback for a mixed or
//! NULL-bearing one, as a [`ColumnData`]) over one list of distinct
//! strings, which a `Str` cell names by id.  This is the layout the
//! engine's batches have ([`ColumnarBatch`]), so a scan is a gather —
//! [`gather`] appends the rows it read to a batch a column at a time and
//! interns each distinct string once — not a transpose of one row at a
//! time.  Ragged rows are padded with NULLs in the columns, and each row's
//! published arity is kept beside them, so a row reads back exactly as it
//! was published ([`StoredRow::tuple`]).
//!
//! **The store owns its bytes.**  A run's strings are copies of the
//! publisher's, made once per distinct string per run, and shared by every
//! cell, batch and row that reads them afterwards.  Sharing the
//! publisher's own strings would leave the store pointing into the
//! publisher's heap in generation order; while stored bodies were rows,
//! the host benchmark's `adhoc_read` paid for that with more than twice
//! the scan emission time.  A run's rows are in the order publication
//! made them — partition by partition and, within one, in batch order —
//! and a run maps each of its slots to its row.

use orchestra_common::{
    Column, ColumnData, ColumnarBatch, NodeSet, PoolMemo, StringPool, Tuple, Value,
};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The tuple versions one publication of a relation created, column-wise.
#[derive(Debug)]
pub struct TupleRun {
    /// One column per attribute of the widest row, rows in publication
    /// order; a cell past a row's arity is NULL.
    columns: Vec<ColumnData>,
    /// The strings the `Str` columns' ids name, each copied once from the
    /// publisher's.  A run never interns again, so it keeps no index of
    /// them by content.
    strings: Vec<Arc<str>>,
    /// Each row's published arity.
    arity: Vec<u32>,
    /// Per slot of the run, counted from its first, the row holding its
    /// body.
    row_of: Vec<u32>,
}

impl TupleRun {
    /// Store `bodies`, in publication order, as a run whose slot `k` (from
    /// its first) holds row `row_of[k]`.
    pub(crate) fn new(bodies: &[&[Value]], row_of: Vec<u32>) -> TupleRun {
        let width = bodies.iter().map(|b| b.len()).max().unwrap_or(0);
        let mut pool = StringPool::new();
        // Room for a distinct string a row, as a key or a comment column
        // has: the pool is dropped once its strings are copied.
        pool.reserve(bodies.len());
        let mut columns: Vec<ColumnData> = (0..width)
            .map(|c| {
                let cells = bodies
                    .iter()
                    .map(|b| b.get(c).cloned().unwrap_or(Value::Null));
                Column::from_values(cells.collect(), &mut pool).into_data()
            })
            .collect();
        // The pool holds each distinct string of the typed columns once:
        // copy those.  An untyped column keeps its strings in its cells,
        // which take the same copies.
        let strings: Vec<Arc<str>> = (pool.into_strings().iter())
            .map(|s| Arc::from(&**s))
            .collect();
        let mut copies: HashSet<Arc<str>> = HashSet::new();
        for column in &mut columns {
            let ColumnData::Values(cells) = column else {
                continue;
            };
            for cell in cells {
                if let Value::Str(s) = cell {
                    if copies.is_empty() {
                        copies.extend(strings.iter().cloned());
                    }
                    let copy = match copies.get(&**s) {
                        Some(copy) => Arc::clone(copy),
                        None => {
                            let copy: Arc<str> = Arc::from(&**s);
                            copies.insert(Arc::clone(&copy));
                            copy
                        }
                    };
                    *cell = Value::Str(copy);
                }
            }
        }
        TupleRun {
            columns,
            strings,
            // A row's arity is its length, which fits in a `u32`.
            arity: bodies.iter().map(|b| b.len() as u32).collect(),
            row_of,
        }
    }

    /// The row of the run's slot `offset` (counted from its first slot).
    pub(crate) fn row_of(&self, offset: u32) -> Option<u32> {
        self.row_of.get(offset as usize).copied()
    }

    /// The cell at (`row`, `col`).
    fn value(&self, col: usize, row: usize) -> Value {
        match &self.columns[col] {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&self.strings[v[row] as usize])),
            ColumnData::Values(v) => v[row].clone(),
        }
    }

    /// The serialized size of the cell at (`row`, `col`).
    fn cell_size(&self, col: usize, row: usize) -> usize {
        match &self.columns[col] {
            ColumnData::Int(_) | ColumnData::Double(_) => 9,
            ColumnData::Str(v) => 5 + self.strings[v[row] as usize].len(),
            ColumnData::Values(v) => v[row].serialized_size(),
        }
    }
}

/// One stored tuple version: a row of a [`TupleRun`], borrowed.
///
/// Two are equal when they name the same row of the same run — the same
/// stored version, not merely equal values.
#[derive(Clone, Copy)]
pub struct StoredRow<'a> {
    run: &'a TupleRun,
    row: u32,
}

impl<'a> StoredRow<'a> {
    pub(crate) fn new(run: &'a TupleRun, row: u32) -> StoredRow<'a> {
        StoredRow { run, row }
    }

    /// The version's published arity.
    pub fn arity(&self) -> usize {
        self.run.arity[self.row as usize] as usize
    }

    /// The version as a row, built on demand: its published cells, each
    /// string the run's own allocation.
    pub fn tuple(&self) -> Tuple {
        let row = self.row as usize;
        (0..self.arity()).map(|c| self.run.value(c, row)).collect()
    }

    /// What [`Tuple::serialized_size`] gives for [`Self::tuple`].
    pub fn serialized_size(&self) -> usize {
        let row = self.row as usize;
        2 + (0..self.arity())
            .map(|c| self.run.cell_size(c, row))
            .sum::<usize>()
    }
}

impl PartialEq for StoredRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.run, other.run) && self.row == other.row
    }
}

impl Eq for StoredRow<'_> {}

impl Hash for StoredRow<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.run, state);
        self.row.hash(state);
    }
}

impl fmt::Debug for StoredRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:p}[{}]", self.tuple(), self.run, self.row)
    }
}

/// A batch of `rows`, in order, each tagged with its sign, `provenance`
/// and `phase`: column `i` holds the rows' cells of column `cols[i]`, or
/// NULLs past a run's width.  Rows read one after another from the same
/// run are appended column by column in one step, and each run's strings
/// are interned into the batch once, whatever number of stretches read
/// them.  The batch is what pushing each row's cells in turn would build
/// ([`ColumnarBatch::gather_cells`]).
pub fn gather<'r>(
    rows: impl IntoIterator<Item = (StoredRow<'r>, i8)>,
    cols: &[usize],
    provenance: NodeSet,
    phase: u32,
) -> ColumnarBatch {
    let rows = rows.into_iter();
    let mut batch = ColumnarBatch::new(cols.len());
    let mut signs = Vec::with_capacity(rows.size_hint().0);
    // One translation memo per run read; few runs, so a list.
    let mut memos: Vec<(&TupleRun, PoolMemo)> = Vec::new();
    let mut flush = |batch: &mut ColumnarBatch, run: &'r TupleRun, stretch: &[u32]| {
        let at = match memos.iter().rposition(|(r, _)| std::ptr::eq(*r, run)) {
            Some(at) => at,
            None => {
                memos.push((run, PoolMemo::new()));
                memos.len() - 1
            }
        };
        batch.gather_cells(&run.columns, &run.strings, cols, stretch, &mut memos[at].1);
    };
    let mut stretch: Vec<u32> = Vec::with_capacity(rows.size_hint().0);
    let mut current: Option<&TupleRun> = None;
    for (row, sign) in rows {
        if let Some(run) = current.filter(|run| !std::ptr::eq(*run, row.run)) {
            flush(&mut batch, run, &stretch);
            stretch.clear();
        }
        current = Some(row.run);
        stretch.push(row.row);
        signs.push(sign);
    }
    if let Some(run) = current {
        flush(&mut batch, run, &stretch);
    }
    batch.push_tag_rows(&signs, provenance, phase);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_reads_back_what_was_published() {
        let rows = [
            vec![Value::Int(1), Value::str("a"), Value::Double(0.5)],
            vec![Value::Int(2)],
            vec![Value::Null, Value::str("a"), Value::Int(3)],
            vec![Value::Double(2.0), Value::str("b")],
        ];
        let bodies: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let run = TupleRun::new(&bodies, vec![3, 1, 0, 2]);
        assert_eq!((run.arity.len(), run.columns.len()), (4, 3));
        // One copy of "a", made by the store, shared by both cells (of a
        // column the short row's NULL left untyped).
        let a = |row: u32| match StoredRow::new(&run, row).tuple().value(1) {
            Value::Str(s) => Arc::clone(s),
            other => panic!("{other} is not a string"),
        };
        assert!(Arc::ptr_eq(&a(0), &a(2)));
        for (row, published) in rows.iter().enumerate() {
            let stored = StoredRow::new(&run, row as u32);
            let tuple = Tuple::new(published.clone());
            assert_eq!(stored.tuple(), tuple);
            assert_eq!(stored.arity(), published.len());
            assert_eq!(stored.serialized_size(), tuple.serialized_size());
            for (cell, theirs) in stored.tuple().values().iter().zip(published) {
                if let (Value::Str(a), Value::Str(b)) = (cell, theirs) {
                    assert!(!Arc::ptr_eq(a, b), "the store copies strings");
                }
            }
        }
        assert_eq!(run.row_of(0), Some(3));
        assert_eq!(run.row_of(4), None);
        assert_eq!(StoredRow::new(&run, 1), StoredRow::new(&run, 1));
        assert_ne!(StoredRow::new(&run, 1), StoredRow::new(&run, 2));
    }

    #[test]
    fn a_gather_is_the_row_loop() {
        let first = [
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3)],
        ];
        let second = [vec![Value::str("y"), Value::str("x"), Value::Int(9)]];
        fn bodies(rows: &[Vec<Value>]) -> Vec<&[Value]> {
            rows.iter().map(Vec::as_slice).collect()
        }
        let a = TupleRun::new(&bodies(&first), vec![0, 1, 2]);
        let b = TupleRun::new(&bodies(&second), vec![0]);
        let read = [(&a, 0, 1), (&a, 2, -1), (&b, 0, 1), (&a, 1, 1), (&a, 0, -1)];
        let rows = read.map(|(run, row, sign)| (StoredRow::new(run, row), sign));
        let provenance = NodeSet::default();
        for cols in [vec![0, 1, 2], vec![1], vec![2, 0], vec![]] {
            let got = gather(rows, &cols, provenance, 4);
            let mut want = ColumnarBatch::new(cols.len());
            for (row, sign) in rows {
                let tuple = row.tuple();
                let cells: Vec<Value> = (cols.iter())
                    .map(|c| tuple.values().get(*c).cloned().unwrap_or(Value::Null))
                    .collect();
                want.push_row_owned(cells, sign, provenance, 4);
            }
            assert_eq!(got.len(), want.len());
            for r in 0..got.len() {
                assert_eq!(got.tuple_at(r), want.tuple_at(r), "{cols:?} row {r}");
                assert_eq!(got.sign_at(r), want.sign_at(r));
                assert_eq!(got.phase_at(r), 4);
            }
            for c in 0..cols.len() {
                assert_eq!(
                    std::mem::discriminant(got.column(c).data()),
                    std::mem::discriminant(want.column(c).data()),
                    "{cols:?} column {c}"
                );
            }
            // Each distinct string once.
            assert_eq!(got.pool().len(), want.pool().len(), "{cols:?}");
        }
    }
}
