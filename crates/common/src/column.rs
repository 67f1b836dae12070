//! Columnar tuple batches with interned strings.
//!
//! The engine's data path moves tuples in blocks; storing a block as one
//! vector per *column* instead of one [`Tuple`] per row keeps values of
//! the same type contiguous, stores every repeated string exactly once
//! (an interned-string pool, compared by id), and computes the per-column
//! distinct-value dictionaries — which the wire-size encoder needs — in
//! one cached pass on first demand, so the many intermediate batches that
//! never reach the wire pay nothing for them.
//!
//! A [`ColumnarBatch`] holds:
//!
//! * one [`Column`] per attribute, type-specialised as `Int`/`Double`/
//!   `Str` vectors with a lossless [`Value`] fallback for mixed or
//!   NULL-bearing columns (a column is *demoted* the moment a value of a
//!   different type arrives, so `Int(2)` round-trips as `Int(2)` and
//!   never silently widens to `Double`);
//! * a [`StringPool`]: `Str` columns store `u32` ids into the pool, so a
//!   string that appears in a thousand rows is stored once and equality
//!   is an integer compare;
//! * parallel *tag columns* — sign, provenance node-set and phase — the
//!   execution metadata the engine's recovery machinery carries per row.
//!
//! **Strings are shared by pointer — between pools and with the row
//! form.**  A pool keeps its strings as `Arc<str>`, the payload of a
//! [`Value::Str`].  A string is allocated once, where it is generated or
//! computed; interning it ([`StringPool::intern_shared`] — what
//! [`ColumnarBatch::push_row`] and every other way into a batch call)
//! shares that allocation, and so does every batch it is copied into
//! afterwards — an exchange buffer, the recovery cache, the wire payload,
//! a join's build side, the answer ([`PoolMemo::translate`],
//! [`ColumnarBatch::append_rows`], [`ColumnarBatch::append_row_interned`]).
//! Reading a cell back ([`ColumnarBatch::value_at`],
//! [`ColumnarBatch::tuple_at`]) hands the same allocation out again: a
//! scan copies no string out of the store, and an answer row costs one
//! allocation — its `Arc<[Value]>`.  Cloning a pool, as
//! [`ColumnarBatch::project`] does, copies no bytes either.
//!
//! **Rows move between batches a column at a time.**
//! [`ColumnarBatch::append_rows`] appends a selection of another batch's
//! rows — one `extend` per column while the types agree, one pool
//! translation per distinct string.  Its contract is the row loop it
//! replaces: the result is what [`ColumnarBatch::append_row_interned`] of
//! each selected row in turn builds, widening, NULL padding, the variant
//! an empty column takes from its first cell and demotion mid-run
//! included.  [`ColumnarBatch::append_batch`] is the same over every row.
//!
//! Conversion to and from row form ([`ColumnarBatch::push_row`],
//! [`ColumnarBatch::tuple_at`]) is lossless: the row seams that remain
//! in the engine (operator unit tests, the report boundary, the
//! materialized-view fold) reconstruct exactly the values that went in.
//!
//! **One order and one arithmetic over typed cells.**  Every typed path
//! of the engine — a select's mask, join and group key equality, the
//! report's sort, a compute's `+ - *` and SUM's fold — reads cells as the
//! [`Value`]s they hold without building them, and takes the answer
//! `Value` would give from here, where each rule is written once.
//! [`ColumnData::cmp_value`] and [`ColumnData::cmp_cells`] compare cells
//! with a value or with another column's cells (another pool's strings
//! too) in [`Value::cmp`]'s order: one `match` over the pair of types,
//! each arm one typed loop over the rows the caller hands in.
//! [`Arith::apply`] combines two numbers as [`Value::add`],
//! [`Value::sub`] and [`Value::mul`] do — they call it: `Int` with `Int`
//! by `i64`'s operator, any other pair by `f64`'s on the operands `as
//! f64` — and [`Arith::numbers`] calls it for every row of a typed loop
//! over [`Numbers`], a column or a literal.  A scalar comparison is the
//! one-row case ([`ColumnData::cmp_value_at`],
//! [`ColumnData::cmp_cell_at`]), so a change to either rule is a change
//! to one function: [`Value::cmp`] (with [`cmp_int_double`]) for the
//! order, [`Arith::apply`] for the arithmetic.

use crate::key::Key160;
use crate::node::NodeSet;
use crate::sha1::{digest_one_block, Sha1, ONE_BLOCK_MAX};
use crate::tuple::Tuple;
use crate::value::{cmp_int_double, integral, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Add, Mul, Range, Sub};
use std::sync::Arc;

/// An interned-string pool: every distinct string is stored once and
/// addressed by a dense `u32` id, so two cells are equal iff their ids
/// are equal.  The bytes live behind an [`Arc`], shared by the id table,
/// the content index, every other pool the string has been copied into
/// and every [`Value::Str`] it came from or was read back as
/// ([`StringPool::intern_shared`], [`StringPool::get_shared`]): cloning
/// a pool, moving a string from one batch to the next, or turning a cell
/// back into a row value bumps a reference count.  A pool allocates a
/// string only when a computed one new to it is interned by content
/// ([`StringPool::intern_str`]).
#[derive(Clone, Debug, Default)]
pub struct StringPool {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32, BuildHasherDefault<WordHasher>>,
}

/// The hash of the maps keyed by data — a pool's content index and the
/// engine's key-hash indexes: a word at a time, multiplied in (the
/// rotate-xor-multiply of rustc's `FxHasher`).  Their keys are data, not
/// an adversary's, and one of them is looked up per string of every scan;
/// nothing a reader sees depends on the hash (pool ids are handed out in
/// interning order, and the indexes are only looked up and filtered).
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl StringPool {
    /// An empty pool.
    pub fn new() -> StringPool {
        StringPool::default()
    }

    /// Intern `s` — the payload of a [`Value::Str`] or another pool's
    /// entry — returning its id (the existing id if its content is
    /// already present).  When it is new to this pool the allocation is
    /// shared, not copied.
    pub fn intern_shared(&mut self, s: &Arc<str>) -> u32 {
        match self.index.get(&**s) {
            Some(id) => *id,
            None => self.push_new(s),
        }
    }

    /// Intern the content of `s` — a string computed into a buffer —
    /// returning its id.  Only a string new to the pool is allocated, as
    /// the one `Arc<str>` every later reader shares.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        match self.index.get(s) {
            Some(id) => *id,
            None => self.push_new(&Arc::from(s)),
        }
    }

    /// Make room for `additional` more strings, so that interning them
    /// grows the pool at most once.
    pub fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.strings.reserve(additional);
    }

    /// Append `s`, which no string of the pool equals, without looking it
    /// up first.
    fn push_new(&mut self, s: &Arc<str>) -> u32 {
        let id = self.strings.len() as u32;
        self.index.insert(Arc::clone(s), id);
        self.strings.push(Arc::clone(s));
        id
    }

    /// The string behind `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// The shared allocation behind `id`, for [`Self::intern_shared`] and
    /// for reading a cell back as a [`Value::Str`].
    #[inline]
    pub fn get_shared(&self, id: u32) -> &Arc<str> {
        &self.strings[id as usize]
    }

    /// Every string, by id, without the content index: for a pool that is
    /// done interning and is only read from now on, by id.
    pub fn into_strings(self) -> Vec<Arc<str>> {
        self.strings
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Translation memo for copying rows between batches: maps string ids of
/// a *source* pool to ids in a *destination* pool, so appending many rows
/// from the same source batch interns each distinct string once instead
/// of hashing its bytes per row, and shares its allocation with the
/// destination pool instead of copying it.
///
/// A source's strings are distinct — they are a pool's — so while the
/// destination holds only what this memo put there, a string new to the
/// memo is new to the destination too, and is appended without a lookup.
#[derive(Debug, Default)]
pub struct PoolMemo {
    map: Vec<Option<u32>>,
    /// How many strings this memo has appended to the destination.
    appended: usize,
}

impl PoolMemo {
    /// A fresh memo (valid for one (source pool, destination pool) pair).
    pub fn new() -> PoolMemo {
        PoolMemo::default()
    }

    /// Translate `id` from the source pool's strings `src` into `dst`,
    /// caching the answer.
    pub fn translate(&mut self, src: &[Arc<str>], dst: &mut StringPool, id: u32) -> u32 {
        let i = id as usize;
        if i >= self.map.len() {
            self.map.resize(src.len().max(i + 1), None);
        }
        if let Some(mapped) = self.map[i] {
            return mapped;
        }
        let mapped = if dst.len() == self.appended {
            self.appended += 1;
            dst.push_new(&src[i])
        } else {
            dst.intern_shared(&src[i])
        };
        self.map[i] = Some(mapped);
        mapped
    }
}

/// The type-specialised cell storage of one column.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// All cells are `Value::Int`.
    Int(Vec<i64>),
    /// All cells are `Value::Double`.
    Double(Vec<f64>),
    /// All cells are `Value::Str`, stored as ids into the batch's pool.
    Str(Vec<u32>),
    /// Mixed-type or NULL-bearing column: the lossless row-value fallback.
    Values(Vec<Value>),
}

impl ColumnData {
    /// Materialize the cell at `row` as a [`Value`], its string one of
    /// `strings` (a pool's, by id).
    fn value_at(&self, row: usize, strings: &[Arc<str>]) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&strings[v[row] as usize])),
            ColumnData::Values(v) => v[row].clone(),
        }
    }

    /// [`Value::cmp`] of the cell at each row of `rows` against `value`,
    /// handed to `f` with the row, in order; `pool` holds the column's
    /// strings.  One typed loop per pair of types, and no cell built.
    #[inline]
    pub fn cmp_value(
        &self,
        pool: &StringPool,
        rows: Range<usize>,
        value: &Value,
        mut f: impl FnMut(usize, Ordering),
    ) {
        let at = rows.start;
        match (self, value) {
            (ColumnData::Int(v), Value::Int(c)) => each(at, &v[rows], f, |x| x.cmp(c)),
            (ColumnData::Int(v), Value::Double(c)) => {
                each(at, &v[rows], f, |x| cmp_int_double(*x, *c))
            }
            (ColumnData::Double(v), Value::Int(c)) => {
                each(at, &v[rows], f, |x| cmp_int_double(*c, *x).reverse())
            }
            (ColumnData::Double(v), Value::Double(c)) => each(at, &v[rows], f, |x| x.total_cmp(c)),
            (ColumnData::Str(v), Value::Str(c)) => {
                each(at, &v[rows], f, |id| cmp_strings(pool.get_shared(*id), c))
            }
            (ColumnData::Values(v), c) => each(at, &v[rows], f, |x| x.cmp(c)),
            // A typed column against a value of another type: the types'
            // ranks decide, for every row alike.  A number is above NULL
            // and below a string; no string is built to ask.
            (ColumnData::Int(_) | ColumnData::Double(_), c) => {
                let ord = Value::Int(0).cmp(c);
                rows.for_each(|r| f(r, ord))
            }
            (ColumnData::Str(_), _) => rows.for_each(|r| f(r, Ordering::Greater)),
        }
    }

    /// [`Value::cmp`] of the cell at each row `x` of `rows` in this column
    /// against the cell at the row as far into `other_rows` in `other`,
    /// handed to `f` with `x`, in order; `pool` and `other_pool` hold the
    /// two columns' strings (one pool, or two).  One typed loop per pair
    /// of types, and no cell built but where two typed columns differ in
    /// type.
    #[inline]
    pub fn cmp_cells(
        &self,
        pool: &StringPool,
        rows: Range<usize>,
        other: &ColumnData,
        other_pool: &StringPool,
        other_rows: Range<usize>,
        f: impl FnMut(usize, Ordering),
    ) {
        let pairs = rows.zip(other_rows);
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => each_pair(pairs, f, |x, y| a[x].cmp(&b[y])),
            (ColumnData::Int(a), ColumnData::Double(b)) => {
                each_pair(pairs, f, |x, y| cmp_int_double(a[x], b[y]))
            }
            (ColumnData::Double(a), ColumnData::Int(b)) => {
                each_pair(pairs, f, |x, y| cmp_int_double(b[y], a[x]).reverse())
            }
            (ColumnData::Double(a), ColumnData::Double(b)) => {
                each_pair(pairs, f, |x, y| a[x].total_cmp(&b[y]))
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => each_pair(pairs, f, |x, y| {
                cmp_strings(pool.get_shared(a[x]), other_pool.get_shared(b[y]))
            }),
            (_, ColumnData::Values(b)) => {
                each_pair(pairs, f, |x, y| self.cmp_value_at(pool, x, &b[y]))
            }
            _ => each_pair(pairs, f, |x, y| {
                self.cmp_value_at(pool, x, &other.value_at(y, &other_pool.strings))
            }),
        }
    }

    /// [`Self::cmp_value`] of the one cell at `row`.
    #[inline]
    pub fn cmp_value_at(&self, pool: &StringPool, row: usize, value: &Value) -> Ordering {
        let mut ord = Ordering::Equal;
        self.cmp_value(pool, row..row + 1, value, |_, o| ord = o);
        ord
    }

    /// [`Self::cmp_cells`] of the one pair of cells at `x` and `y`.
    #[inline]
    pub fn cmp_cell_at(
        &self,
        pool: &StringPool,
        x: usize,
        other: &ColumnData,
        other_pool: &StringPool,
        y: usize,
    ) -> Ordering {
        let mut ord = Ordering::Equal;
        self.cmp_cells(pool, x..x + 1, other, other_pool, y..y + 1, |_, o| ord = o);
        ord
    }
}

/// Two strings in [`Value`]'s order.  One allocation is one string: two
/// equal ids of one pool, or a string two pools or a pool and a value
/// share, are equal without reading it.
#[inline(always)]
fn cmp_strings(s: &Arc<str>, t: &Arc<str>) -> Ordering {
    if Arc::ptr_eq(s, t) {
        Ordering::Equal
    } else {
        s.cmp(t)
    }
}

/// Hand `f` the ordering `ord` gives each of `cells`, with its row, the
/// first row being `at`: the loop of every typed comparison.
///
/// One counter indexes both the cells and the rows, so that a caller
/// indexing a slice of its own by the row it is handed (a select's mask,
/// as long as the cells) keeps no bounds check in the loop: an iterator
/// beside a counter made a select's mask loop about twice as slow.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn each<T>(
    at: usize,
    cells: &[T],
    mut f: impl FnMut(usize, Ordering),
    ord: impl Fn(&T) -> Ordering,
) {
    for i in 0..cells.len() {
        f(at + i, ord(&cells[i]));
    }
}

/// Hand `f` each pair of rows of `pairs` with the ordering `ord` gives
/// it: the loop of a comparison of two columns.
#[inline(always)]
fn each_pair(
    pairs: impl Iterator<Item = (usize, usize)>,
    mut f: impl FnMut(usize, Ordering),
    ord: impl Fn(usize, usize) -> Ordering,
) {
    pairs.for_each(|(x, y)| f(x, ord(x, y)));
}

/// `+`, `-` or `*` over numbers: what [`Value::add`], [`Value::sub`] and
/// [`Value::mul`] compute, and every typed arithmetic loop with them.
#[derive(Clone, Copy, Debug)]
pub enum Arith {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl Arith {
    /// `a op b` — the typing rule of [`Value`]'s arithmetic, the one place
    /// it is written: `Int` with `Int` by `i64`'s own operator, any other
    /// pair by `f64`'s over the operands `as f64`.
    #[inline(always)]
    pub fn apply(self, a: Number, b: Number) -> Number {
        match (a, b) {
            (Number::Int(x), Number::Int(y)) => Number::Int(self.on(x, y)),
            _ => Number::Double(self.on(a.as_f64(), b.as_f64())),
        }
    }

    /// The operator itself, over two numbers of one type.
    #[inline(always)]
    fn on<T: Add<Output = T> + Sub<Output = T> + Mul<Output = T>>(self, x: T, y: T) -> T {
        match self {
            Arith::Add => x + y,
            Arith::Sub => x - y,
            Arith::Mul => x * y,
        }
    }

    /// `a op b`, row by row, each row by the rule of [`Self::apply`] in a
    /// typed loop.
    #[inline]
    pub fn numbers<'a>(self, a: Numbers<'a>, b: Numbers<'a>) -> Numbers<'a> {
        // A loop per operator, so that no row asks which operator it is.
        match self {
            Arith::Add => lanes(a, b, |x, y| Arith::Add.apply(x, y)),
            Arith::Sub => lanes(a, b, |x, y| Arith::Sub.apply(x, y)),
            Arith::Mul => lanes(a, b, |x, y| Arith::Mul.apply(x, y)),
        }
    }

    /// `a op b` for two values: two numbers by the rule of
    /// [`Self::apply`].  A NULL addend yields the other operand (SQL
    /// aggregates skip NULLs); any other NULL or string operand yields
    /// NULL.
    #[inline]
    pub(crate) fn values(self, a: &Value, b: &Value) -> Value {
        match (Number::of(a), Number::of(b)) {
            (Some(x), Some(y)) => self.apply(x, y).into(),
            _ => match (self, a, b) {
                (Arith::Add, Value::Null, v) | (Arith::Add, v, Value::Null) => v.clone(),
                _ => Value::Null,
            },
        }
    }
}

/// A number of one of [`Value`]'s two numeric types: what [`Arith`]
/// combines.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// An `Int`.
    Int(i64),
    /// A `Double`.
    Double(f64),
}

impl Number {
    /// `value` as a number; `None` for NULL or a string.
    #[inline(always)]
    pub fn of(value: &Value) -> Option<Number> {
        match value {
            Value::Int(x) => Some(Number::Int(*x)),
            Value::Double(x) => Some(Number::Double(*x)),
            Value::Null | Value::Str(_) => None,
        }
    }

    #[inline(always)]
    fn as_f64(self) -> f64 {
        match self {
            Number::Int(x) => x as f64,
            Number::Double(x) => x,
        }
    }

    /// An `Int`'s value (a double's, truncated, where the rule made none).
    #[inline(always)]
    fn as_i64(self) -> i64 {
        match self {
            Number::Int(x) => x,
            Number::Double(x) => x as i64,
        }
    }
}

impl From<Number> for Value {
    #[inline(always)]
    fn from(x: Number) -> Value {
        match x {
            Number::Int(v) => Value::Int(v),
            Number::Double(v) => Value::Double(v),
        }
    }
}

impl From<i64> for Number {
    #[inline(always)]
    fn from(x: i64) -> Number {
        Number::Int(x)
    }
}

impl From<f64> for Number {
    #[inline(always)]
    fn from(x: f64) -> Number {
        Number::Double(x)
    }
}

/// [`Arith::numbers`] for one operator, `apply`.
#[inline(always)]
fn lanes<'a>(
    a: Numbers<'a>,
    b: Numbers<'a>,
    apply: impl Fn(Number, Number) -> Number + Copy,
) -> Numbers<'a> {
    match (a, b) {
        (Numbers::Int(x), Numbers::Int(y)) => zip_numbers(x, y, apply),
        (Numbers::Int(x), Numbers::Double(y)) => zip_numbers(x, y, apply),
        (Numbers::Double(x), Numbers::Int(y)) => zip_numbers(x, y, apply),
        (Numbers::Double(x), Numbers::Double(y)) => zip_numbers(x, y, apply),
    }
}

/// Two lanes combined row by row by `apply`, an operator's
/// [`Arith::apply`]: the result is typed as the rule types operands of
/// these two types, which it shows for a pair of zeros.
#[inline(always)]
fn zip_numbers<'a, A, B>(
    a: Lane<'_, A>,
    b: Lane<'_, B>,
    apply: impl Fn(Number, Number) -> Number + Copy,
) -> Numbers<'a>
where
    A: Copy + Default + Into<Number>,
    B: Copy + Default + Into<Number>,
{
    match apply(A::default().into(), B::default().into()) {
        Number::Int(_) => Numbers::Int(zip(a, b, |x, y| apply(x.into(), y.into()).as_i64())),
        Number::Double(_) => Numbers::Double(zip(a, b, |x, y| apply(x.into(), y.into()).as_f64())),
    }
}

/// One typed loop over two lanes.
#[inline(always)]
fn zip<'a, A: Copy, B: Copy, R: Clone>(
    a: Lane<'_, A>,
    b: Lane<'_, B>,
    f: impl Fn(A, B) -> R,
) -> Lane<'a, R> {
    let each = |cells: Vec<R>| Lane::Each(Cow::Owned(cells));
    match (a, b) {
        (Lane::All(x), Lane::All(y)) => Lane::All(f(x, y)),
        (Lane::Each(xs), Lane::All(y)) => each(xs.iter().map(|x| f(*x, y)).collect()),
        (Lane::All(x), Lane::Each(ys)) => each(ys.iter().map(|y| f(x, *y)).collect()),
        (Lane::Each(xs), Lane::Each(ys)) => {
            each(xs.iter().zip(ys.iter()).map(|(x, y)| f(*x, *y)).collect())
        }
    }
}

/// One operand of a typed arithmetic loop: a cell per row, or one value
/// for every row (a literal).
#[derive(Clone, Debug)]
pub enum Lane<'a, T: Clone> {
    /// One cell per row.
    Each(Cow<'a, [T]>),
    /// The same value in every row.
    All(T),
}

impl<T: Copy> Lane<'_, T> {
    /// The value in row `row`.
    #[inline(always)]
    fn at(&self, row: usize) -> T {
        match self {
            Lane::Each(cells) => cells[row],
            Lane::All(v) => *v,
        }
    }
}

/// Numbers of one of [`Value`]'s two numeric types, by row: an operand
/// or a result of [`Arith`].
#[derive(Clone, Debug)]
pub enum Numbers<'a> {
    /// `Int` cells.
    Int(Lane<'a, i64>),
    /// `Double` cells.
    Double(Lane<'a, f64>),
}

impl<'a> Numbers<'a> {
    /// The cells of a typed number column; `None` for a string or untyped
    /// one.
    pub fn of(data: &'a ColumnData) -> Option<Numbers<'a>> {
        match data {
            ColumnData::Int(v) => Some(Numbers::Int(Lane::Each(Cow::Borrowed(v)))),
            ColumnData::Double(v) => Some(Numbers::Double(Lane::Each(Cow::Borrowed(v)))),
            ColumnData::Str(_) | ColumnData::Values(_) => None,
        }
    }

    /// A number, the same in every row; `None` for NULL or a string.
    #[inline]
    pub fn of_value(value: &Value) -> Option<Numbers<'a>> {
        match value {
            Value::Int(x) => Some(Numbers::Int(Lane::All(*x))),
            Value::Double(x) => Some(Numbers::Double(Lane::All(*x))),
            Value::Null | Value::Str(_) => None,
        }
    }

    /// The cells of `rows` rows.
    pub fn into_data(self, rows: usize) -> ColumnData {
        fn cells<T: Clone>(lane: Lane<'_, T>, rows: usize) -> Vec<T> {
            match lane {
                Lane::Each(cells) => cells.into_owned(),
                Lane::All(v) => vec![v; rows],
            }
        }
        match self {
            Numbers::Int(lane) => ColumnData::Int(cells(lane, rows)),
            Numbers::Double(lane) => ColumnData::Double(cells(lane, rows)),
        }
    }
}

/// Per-column dictionary accounting, computed lazily: total plain bytes,
/// distinct-cell count, and the bytes of one copy of each distinct value.
/// Within a typed column the typed equality coincides with [`Value`]
/// equality (strings by id via the pool, doubles by IEEE bits —
/// `total_cmp` equality); the `Values` fallback uses `Value`'s own
/// `Hash`/`Eq`, which treats `Int(2)` and `Double(2.0)` as one distinct
/// value exactly like the row-path dictionary encoder did.
#[derive(Clone, Copy, Debug, Default)]
struct Accounting {
    distinct: usize,
    plain_bytes: usize,
    dict_bytes: usize,
}

/// One column of a batch: typed cells plus lazily computed dictionary
/// accounting.  Most batches are intermediate — built by a scan or an
/// operator and consumed by the next operator without ever being sized
/// for the wire — so the accounting is not maintained per push; it is
/// computed on first demand (the flush boundary) and cached until the
/// column next mutates.
#[derive(Clone, Debug)]
pub struct Column {
    data: ColumnData,
    acct: RefCell<Option<Accounting>>,
}

impl Default for Column {
    /// An empty column, its type not yet fixed.
    fn default() -> Column {
        Column::new()
    }
}

impl Column {
    fn new() -> Column {
        // Until the first cell arrives the variant is undetermined; an
        // empty `Values` column promotes cheaply on first push.
        Column {
            data: ColumnData::Values(Vec::new()),
            acct: RefCell::new(None),
        }
    }

    fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Values(v) => v.len(),
        }
    }

    /// Drop the cached accounting after a mutation.
    fn invalidate(&mut self) {
        *self.acct.get_mut() = None;
    }

    /// Push a cell, demoting the column if the value's type no longer
    /// matches the storage variant.
    fn push(&mut self, v: Value, pool: &mut StringPool) {
        if self.len() == 0 {
            // First cell fixes the variant.
            match &v {
                Value::Int(_) => {
                    self.data = ColumnData::Int(Vec::new());
                }
                Value::Double(_) => {
                    self.data = ColumnData::Double(Vec::new());
                }
                Value::Str(_) => {
                    self.data = ColumnData::Str(Vec::new());
                }
                Value::Null => {}
            }
        }
        let len = self.len();
        match (&mut self.data, v) {
            (ColumnData::Int(cells), Value::Int(x)) => cells.push(x),
            (ColumnData::Double(cells), Value::Double(x)) => cells.push(x),
            (ColumnData::Str(cells), Value::Str(s)) => cells.push(pool.intern_shared(&s)),
            (ColumnData::Values(cells), v) => cells.push(v),
            (typed, v) => {
                // A cell the typed variant cannot hold demotes the column
                // to the `Values` fallback.
                let mut values: Vec<Value> = (0..len)
                    .map(|row| typed.value_at(row, &pool.strings))
                    .collect();
                values.push(v);
                *typed = ColumnData::Values(values);
            }
        }
        self.invalidate();
    }

    /// [`Column::push`] for a borrowed cell: numbers are copied and a
    /// string is interned by pointer, so no cell allocates.
    fn push_ref(&mut self, v: &Value, pool: &mut StringPool) {
        if self.len() == 0 {
            // The first cell fixes the variant: `push` decides.
            return self.push(v.clone(), pool);
        }
        match (&mut self.data, v) {
            (ColumnData::Int(cells), Value::Int(x)) => cells.push(*x),
            (ColumnData::Double(cells), Value::Double(x)) => cells.push(*x),
            (ColumnData::Str(cells), Value::Str(s)) => cells.push(pool.intern_shared(s)),
            // Mixed types and NULLs: demotion or the `Values` fallback.
            _ => return self.push(v.clone(), pool),
        }
        self.invalidate();
    }

    /// Append the cells of `src` at `rows`, in that order — the cells that
    /// [`Column::push`] of each in turn would leave, whatever the two
    /// columns' variants; `src_strings` are the strings `src`'s ids name.
    /// While both hold the same type a run of cells is one `extend`; a
    /// cell that does not fit (a NULL, another type) goes through `push`,
    /// and the variants are looked at again.
    fn append_cells(
        &mut self,
        src: &ColumnData,
        selection: &Selection<'_>,
        src_strings: &[Arc<str>],
        pool: &mut StringPool,
        memo: &mut PoolMemo,
    ) {
        let rows = selection.rows;
        if self.len() == 0 && !rows.is_empty() {
            // The first cell fixes the variant, and a typed source tells
            // its type without materializing it (a string would be copied).
            match src {
                ColumnData::Int(_) => self.data = ColumnData::Int(Vec::new()),
                ColumnData::Double(_) => self.data = ColumnData::Double(Vec::new()),
                ColumnData::Str(_) => self.data = ColumnData::Str(Vec::new()),
                ColumnData::Values(_) => {}
            }
        }
        let mut rest = rows;
        while let Some((first, tail)) = rest.split_first() {
            match (&mut self.data, src) {
                (ColumnData::Int(d), ColumnData::Int(s)) => {
                    selection.extend(d, s, rest);
                    break;
                }
                (ColumnData::Double(d), ColumnData::Double(s)) => {
                    selection.extend(d, s, rest);
                    break;
                }
                (ColumnData::Str(d), ColumnData::Str(s)) => {
                    d.extend(
                        rest.iter()
                            .map(|r| memo.translate(src_strings, pool, s[*r as usize])),
                    );
                    break;
                }
                _ => {
                    self.push(src.value_at(*first as usize, src_strings), pool);
                    rest = tail;
                }
            }
        }
        self.invalidate();
    }

    /// Materialize the cell at `row` as a [`Value`], its string one of
    /// `pool`'s (the pool of the batch the column belongs to).
    pub fn value_at(&self, row: usize, pool: &StringPool) -> Value {
        self.data.value_at(row, &pool.strings)
    }

    /// Serialized size of the cell at `row`.
    fn cell_size(&self, row: usize, pool: &StringPool) -> usize {
        match &self.data {
            ColumnData::Int(_) | ColumnData::Double(_) => 9,
            ColumnData::Str(v) => 5 + pool.get(v[row]).len(),
            ColumnData::Values(v) => v[row].serialized_size(),
        }
    }

    /// Hand the ring-key encoding of the cell at `row` to `sink` — the
    /// bytes `Value::encode_key_with` gives for the cell's value.
    fn encode_key_cell(&self, row: usize, pool: &StringPool, mut sink: impl FnMut(&[u8])) {
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]).encode_with(sink),
            ColumnData::Double(v) => Value::Double(v[row]).encode_key_with(sink),
            ColumnData::Str(v) => {
                let s = pool.get(v[row]);
                sink(&[3]);
                sink(&(s.len() as u32).to_be_bytes());
                sink(s.as_bytes());
            }
            ColumnData::Values(v) => v[row].encode_key_with(sink),
        }
    }

    fn retain(&mut self, mask: &[bool]) {
        match &mut self.data {
            ColumnData::Int(v) => retain_masked(v, mask),
            ColumnData::Double(v) => retain_masked(v, mask),
            ColumnData::Str(v) => retain_masked(v, mask),
            ColumnData::Values(v) => retain_masked(v, mask),
        }
        self.invalidate();
    }

    /// The cached accounting, computing it on first demand after a
    /// mutation.  Typed columns count their distinct cells without
    /// hashing a `Value`: numbers by their bit patterns
    /// ([`distinct_bits`]), strings by marking pool ids.
    fn acct(&self, pool: &StringPool) -> Accounting {
        if let Some(a) = *self.acct.borrow() {
            return a;
        }
        /// `cells` fixed-size numbers, `distinct` of them distinct.
        fn numbers(cells: usize, distinct: usize) -> Accounting {
            Accounting {
                distinct,
                plain_bytes: 9 * cells,
                dict_bytes: 9 * distinct,
            }
        }
        let a = match &self.data {
            ColumnData::Int(cells) => {
                numbers(cells.len(), distinct_bits(cells.iter().map(|v| *v as u64)))
            }
            ColumnData::Double(cells) => numbers(
                cells.len(),
                distinct_bits(cells.iter().map(|v| v.to_bits())),
            ),
            ColumnData::Str(cells) => {
                let mut a = Accounting::default();
                let mut seen = vec![false; pool.len()];
                for id in cells {
                    let size = 5 + pool.get(*id).len();
                    a.plain_bytes += size;
                    if !std::mem::replace(&mut seen[*id as usize], true) {
                        a.distinct += 1;
                        a.dict_bytes += size;
                    }
                }
                a
            }
            ColumnData::Values(cells) => {
                let mut a = Accounting::default();
                let mut seen = HashSet::with_capacity(cells.len());
                for v in cells {
                    let size = v.serialized_size();
                    a.plain_bytes += size;
                    if seen.insert(v) {
                        a.dict_bytes += size;
                    }
                }
                a.distinct = seen.len();
                a
            }
        };
        *self.acct.borrow_mut() = Some(a);
        a
    }

    /// Build a column from a run of cells, interning strings into `pool`.
    /// A column of one type is allocated once, at its final length.
    pub fn from_values(cells: Vec<Value>, pool: &mut StringPool) -> Column {
        let mut col = Column::new();
        let mut cells = cells.into_iter();
        if let Some(first) = cells.next() {
            col.push(first, pool);
            let rest = cells.len();
            match &mut col.data {
                ColumnData::Int(v) => v.reserve_exact(rest),
                ColumnData::Double(v) => v.reserve_exact(rest),
                ColumnData::Str(v) => v.reserve_exact(rest),
                ColumnData::Values(v) => v.reserve_exact(rest),
            }
        }
        for v in cells {
            col.push(v, pool);
        }
        col
    }

    /// A column of the cells `data` holds, built whole by a typed loop
    /// (its strings ids into the pool of the batch it joins).
    pub fn from_data(data: ColumnData) -> Column {
        Column {
            data,
            acct: RefCell::new(None),
        }
    }

    /// The typed cell storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The typed cell storage, for a column that is done growing and is
    /// never priced for the wire (a stored run's).
    pub fn into_data(self) -> ColumnData {
        self.data
    }

    /// Total serialized bytes of all cells (the plain encoding).
    pub fn plain_bytes(&self, pool: &StringPool) -> usize {
        self.acct(pool).plain_bytes
    }

    /// Serialized bytes of one copy of each distinct cell (the
    /// dictionary).
    pub fn dict_bytes(&self, pool: &StringPool) -> usize {
        self.acct(pool).dict_bytes
    }
}

/// A block of tuples stored column-wise, with interned strings and
/// parallel sign / provenance / phase tag columns.  See the module docs
/// for the layout.
#[derive(Clone, Debug, Default)]
pub struct ColumnarBatch {
    columns: Vec<Column>,
    pool: StringPool,
    signs: Vec<i8>,
    provenance: Vec<NodeSet>,
    phases: Vec<u32>,
}

impl ColumnarBatch {
    /// An empty batch of `arity` columns.
    pub fn new(arity: usize) -> ColumnarBatch {
        ColumnarBatch {
            columns: (0..arity).map(|_| Column::new()).collect(),
            pool: StringPool::new(),
            signs: Vec::new(),
            provenance: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Build a batch from plain tuples sharing one tag (the scan-emission
    /// seam: freshly scanned rows all carry the scanning node's tag).
    /// The tuples are borrowed — a scan columnarizes straight out of the
    /// store.  Rows shorter than `arity` are padded with NULLs.
    pub fn from_tuples<'a, I>(
        arity: usize,
        tuples: I,
        sign: i8,
        provenance: NodeSet,
        phase: u32,
    ) -> Self
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let mut batch = ColumnarBatch::new(arity);
        for t in tuples {
            batch.push_row_padded(t.values(), sign, provenance, phase);
        }
        batch
    }

    /// Assemble a batch from prebuilt columns whose string cells are ids
    /// into `pool`, plus parallel tag vectors.  This is how vectorized
    /// operators that mix passthrough and computed columns (e.g.
    /// compute-function) build their output: passthrough columns, the
    /// pool and the tags are moved out of an input the operator holds
    /// alone ([`Self::into_parts`]) or cloned from a shared one, and only
    /// the computed columns are built ([`Column::from_data`]).
    pub fn from_parts(
        pool: StringPool,
        columns: Vec<Column>,
        signs: Vec<i8>,
        provenance: Vec<NodeSet>,
        phases: Vec<u32>,
    ) -> ColumnarBatch {
        let rows = signs.len();
        assert_eq!(provenance.len(), rows, "tag column length mismatch");
        assert_eq!(phases.len(), rows, "tag column length mismatch");
        for col in &columns {
            assert_eq!(col.len(), rows, "column length mismatch");
        }
        ColumnarBatch {
            columns,
            pool,
            signs,
            provenance,
            phases,
        }
    }

    /// Take the batch apart into what [`Self::from_parts`] assembles:
    /// the pool, the columns and the sign, provenance and phase columns.
    /// An operator that holds a batch alone builds its output from these
    /// by moving them, not copying.
    pub fn into_parts(self) -> (StringPool, Vec<Column>, Vec<i8>, Vec<NodeSet>, Vec<u32>) {
        (
            self.pool,
            self.columns,
            self.signs,
            self.provenance,
            self.phases,
        )
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Widen the batch to `arity` columns, filling any new column with
    /// one NULL per existing row (how ragged rows are represented
    /// column-wise: a missing cell *is* a NULL and costs its real
    /// 1-byte serialized size).
    pub fn pad_to_arity(&mut self, arity: usize) {
        while self.columns.len() < arity {
            self.columns.push(Column {
                data: ColumnData::Values(vec![Value::Null; self.len()]),
                acct: RefCell::new(None),
            });
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.signs.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.signs.is_empty()
    }

    /// Append one row from borrowed cells (strings are shared with the
    /// row, not copied).  Panics if `values` does not
    /// match the batch arity — ragged rows cannot exist column-wise; pad
    /// them (e.g. with [`Value::Null`]) before pushing.
    pub fn push_row(&mut self, values: &[Value], sign: i8, provenance: NodeSet, phase: u32) {
        assert_eq!(values.len(), self.arity(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push_ref(v, &mut self.pool);
        }
        self.push_tag_row(sign, provenance, phase);
    }

    /// [`Self::push_row`] for a row that may be ragged: it is padded with
    /// NULLs (or cut) to the batch arity.
    pub fn push_row_padded(&mut self, values: &[Value], sign: i8, provenance: NodeSet, phase: u32) {
        if values.len() == self.arity() {
            self.push_row(values, sign, provenance, phase);
        } else {
            let mut padded = values.to_vec();
            padded.resize(self.arity(), Value::Null);
            self.push_row_owned(padded, sign, provenance, phase);
        }
    }

    /// Append one row, consuming the cells.
    pub fn push_row_owned(
        &mut self,
        values: Vec<Value>,
        sign: i8,
        provenance: NodeSet,
        phase: u32,
    ) {
        assert_eq!(values.len(), self.arity(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v, &mut self.pool);
        }
        self.push_tag_row(sign, provenance, phase);
    }

    /// Append one tag row only.  Use together with
    /// [`Self::append_cells_at`] when assembling rows from other batches
    /// (e.g. a join result); every column must end up with exactly one
    /// new cell per tag row.
    pub fn push_tag_row(&mut self, sign: i8, provenance: NodeSet, phase: u32) {
        self.signs.push(sign);
        self.provenance.push(provenance);
        self.phases.push(phase);
    }

    /// Append one tag row per sign in `signs`, each with `provenance` and
    /// `phase`: [`Self::push_tag_row`] of each in turn.
    pub fn push_tag_rows(&mut self, signs: &[i8], provenance: NodeSet, phase: u32) {
        self.signs.extend_from_slice(signs);
        self.provenance.resize(self.signs.len(), provenance);
        self.phases.resize(self.signs.len(), phase);
    }

    /// Append the cells of `other`'s rows numbered in `rows`, in that
    /// order, to this batch's columns from `dst_offset` on, a column at a
    /// time — the cells [`Self::append_rows`] appends, shifted right.
    /// Tags are *not* appended: combine with [`Self::push_tag_row`].
    /// Panics if `other`'s columns do not fit.
    pub fn append_cells_at(&mut self, other: &ColumnarBatch, rows: &[u32], dst_offset: usize) {
        let dst = &mut self.columns[dst_offset..dst_offset + other.arity()];
        let mut memo = PoolMemo::new();
        let rows = Selection::scattered(rows);
        for (dst, src) in dst.iter_mut().zip(&other.columns) {
            dst.append_cells(
                &src.data,
                &rows,
                &other.pool.strings,
                &mut self.pool,
                &mut memo,
            );
        }
    }

    /// Append to this batch's columns the cells of `rows` (in that order,
    /// repeats allowed) of the columns `src`, whose `Str` cells are ids
    /// into `src_strings`: column `i` takes the cells of `src[cols[i]]`,
    /// or a NULL per row where `src` has no such column.  Each column ends
    /// up as pushing those cells one by one would leave it — the contract
    /// of [`Self::append_rows`] — and `memo` translates the ids into this
    /// batch's pool, so it must serve that pair of string sets only.  Tags
    /// are *not* appended: combine with [`Self::push_tag_row`].  Panics
    /// unless `cols` names one source column per column of this batch.
    pub fn gather_cells(
        &mut self,
        src: &[ColumnData],
        src_strings: &[Arc<str>],
        cols: &[usize],
        rows: &[u32],
        memo: &mut PoolMemo,
    ) {
        assert_eq!(cols.len(), self.arity(), "one source column per column");
        // At most one new string per row and string column, and never more
        // than the source has.
        let strings = cols
            .iter()
            .filter(|c| matches!(src.get(**c), Some(ColumnData::Str(_))));
        self.pool
            .reserve((strings.count() * rows.len()).min(src_strings.len()));
        let selection = Selection::new(rows);
        for (dst, &c) in self.columns.iter_mut().zip(cols) {
            match src.get(c) {
                Some(src) => dst.append_cells(src, &selection, src_strings, &mut self.pool, memo),
                None => rows
                    .iter()
                    .for_each(|_| dst.push(Value::Null, &mut self.pool)),
            }
        }
    }

    /// Append one whole row of `other` without a [`PoolMemo`]: strings
    /// re-intern by content (sharing the allocation when new).  Use when
    /// the destination batch can be replaced between calls, invalidating
    /// any memo.  If `other` is narrower, the trailing columns get NULLs;
    /// if it is wider, this batch is widened first
    /// ([`Self::pad_to_arity`]).
    pub fn append_row_interned(&mut self, other: &ColumnarBatch, row: usize) {
        self.pad_to_arity(other.arity());
        for i in 0..self.arity() {
            let col = &mut self.columns[i];
            let Some(src) = other.columns.get(i) else {
                col.push(Value::Null, &mut self.pool);
                continue;
            };
            match (&mut col.data, &src.data) {
                (ColumnData::Int(cells), ColumnData::Int(v)) => cells.push(v[row]),
                (ColumnData::Double(cells), ColumnData::Double(v)) => cells.push(v[row]),
                (ColumnData::Str(cells), ColumnData::Str(v)) => {
                    cells.push(self.pool.intern_shared(other.pool.get_shared(v[row])));
                }
                _ => {
                    col.push(src.value_at(row, &other.pool), &mut self.pool);
                    continue;
                }
            }
            col.invalidate();
        }
        self.push_tag_row(other.signs[row], other.provenance[row], other.phases[row]);
    }

    /// Append the rows of `other` numbered in `rows`, in that order (any
    /// order, repeats allowed), column by column.  The contract is
    /// [`Self::append_row_interned`] of each in turn: the batch is widened
    /// to `other`'s arity first, a narrower `other` pads with NULLs, an
    /// empty column takes its variant from its first cell and a typed
    /// column demotes at the first cell that does not fit it — mid-run
    /// included.  Only the numbering of the pool's strings may differ
    /// (they are interned a column at a time), which no reader observes.
    /// An empty `rows` changes nothing.
    pub fn append_rows(&mut self, other: &ColumnarBatch, rows: &[u32]) {
        if rows.is_empty() {
            return;
        }
        self.pad_to_arity(other.arity());
        let mut memo = PoolMemo::new();
        let selection = Selection::scattered(rows);
        for (i, dst) in self.columns.iter_mut().enumerate() {
            match other.columns.get(i) {
                Some(src) => dst.append_cells(
                    &src.data,
                    &selection,
                    &other.pool.strings,
                    &mut self.pool,
                    &mut memo,
                ),
                None => rows
                    .iter()
                    .for_each(|_| dst.push(Value::Null, &mut self.pool)),
            }
        }
        let rows = rows.iter().map(|r| *r as usize);
        self.signs.extend(rows.clone().map(|r| other.signs[r]));
        self.provenance
            .extend(rows.clone().map(|r| other.provenance[r]));
        self.phases.extend(rows.map(|r| other.phases[r]));
    }

    /// Append every row of `other` ([`Self::append_rows`] of all of them).
    pub fn append_batch(&mut self, other: &ColumnarBatch) {
        let all: Vec<u32> = (0..other.len() as u32).collect();
        self.append_rows(other, &all);
    }

    /// [`Self::project`] of a batch no one else holds: the named columns,
    /// the pool and the tags are moved into the result, and nothing is
    /// copied.  A column named twice takes [`Self::project`]'s copying
    /// path.
    pub fn into_projection(self, columns: &[usize]) -> ColumnarBatch {
        if (1..columns.len()).any(|i| columns[..i].contains(&columns[i])) {
            return self.project(columns);
        }
        let mut all = self.columns;
        ColumnarBatch {
            columns: columns
                .iter()
                .map(|c| std::mem::take(&mut all[*c]))
                .collect(),
            pool: self.pool,
            signs: self.signs,
            provenance: self.provenance,
            phases: self.phases,
        }
    }

    /// Project onto the given column indices (tags carried through
    /// unchanged).  The string pool is cloned whole, so ids stay valid.
    pub fn project(&self, columns: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            columns: columns.iter().map(|c| self.columns[*c].clone()).collect(),
            pool: self.pool.clone(),
            signs: self.signs.clone(),
            provenance: self.provenance.clone(),
            phases: self.phases.clone(),
        }
    }

    /// Materialize the cell at (`row`, `col`).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row, &self.pool)
    }

    /// Materialize the row at `row` as a [`Tuple`].
    pub fn tuple_at(&self, row: usize) -> Tuple {
        (0..self.arity()).map(|c| self.value_at(row, c)).collect()
    }

    /// The sign of `row` (`+1` assertion, `-1` retraction).
    pub fn sign_at(&self, row: usize) -> i8 {
        self.signs[row]
    }

    /// The provenance tag of `row`.
    pub fn provenance_at(&self, row: usize) -> NodeSet {
        self.provenance[row]
    }

    /// The phase tag of `row`.
    pub fn phase_at(&self, row: usize) -> u32 {
        self.phases[row]
    }

    /// The whole provenance column.
    pub fn provenance_column(&self) -> &[NodeSet] {
        &self.provenance
    }

    /// The whole sign column.
    pub fn sign_column(&self) -> &[i8] {
        &self.signs
    }

    /// The whole phase column.
    pub fn phase_column(&self) -> &[u32] {
        &self.phases
    }

    /// The column at `col`.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Every column, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The batch's interned-string pool.
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    /// Serialized size of the cell at (`row`, `col`).
    pub fn cell_size(&self, row: usize, col: usize) -> usize {
        self.columns[col].cell_size(row, &self.pool)
    }

    /// The dictionary-encoded wire size of one column: one copy of each
    /// distinct value plus a 2-byte code per row, never worse than the
    /// plain encoding.  Identical to the row path's per-flush dictionary
    /// scan, but read off the incrementally maintained column state.
    pub fn encoded_column_size(&self, col: usize) -> usize {
        let c = &self.columns[col];
        (c.dict_bytes(&self.pool) + 2 * self.len()).min(c.plain_bytes(&self.pool))
    }

    /// Sum of all columns' plain cell bytes.
    pub fn plain_cell_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.plain_bytes(&self.pool)).sum()
    }

    /// Keep only the rows whose mask entry is `true`, preserving order.
    /// The string pool is untouched (ids stay valid).
    pub fn retain(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        if mask.iter().all(|&k| k) {
            return;
        }
        for col in &mut self.columns {
            col.retain(mask);
        }
        retain_masked(&mut self.signs, mask);
        retain_masked(&mut self.provenance, mask);
        retain_masked(&mut self.phases, mask);
    }

    /// Replace the contents of `keys` with the ring key of every row's
    /// cells in `cols`, in row order: for each row the key
    /// [`hash_values`](crate::tuple::hash_values) computes over them.
    ///
    /// A key of `Int` and `Double` columns only, at most six of them, is
    /// the common case (integer join keys), and each row's is written
    /// straight into one padded SHA-1 block — nine bytes a cell, a type
    /// tag and the number — and hashed with a single compression: no value
    /// is materialized and no streaming state kept.  Any other key
    /// (strings, the untyped fallback, more columns) streams its cells'
    /// encodings through the hasher.
    pub fn hash_columns(&self, cols: &[usize], keys: &mut Vec<Key160>) {
        self.hash_rows(cols, 0..self.len(), keys);
    }

    /// [`Self::hash_columns`] of the rows `rows` only, in their order.
    pub fn hash_columns_at(&self, cols: &[usize], rows: &[u32], keys: &mut Vec<Key160>) {
        self.hash_rows(cols, rows.iter().map(|r| *r as usize), keys);
    }

    #[inline(always)]
    fn hash_rows(
        &self,
        cols: &[usize],
        rows: impl ExactSizeIterator<Item = usize>,
        keys: &mut Vec<Key160>,
    ) {
        keys.clear();
        keys.reserve(rows.len());
        let numbers: Option<Vec<Numbers>> = cols
            .iter()
            .map(|c| Numbers::of(&self.columns[*c].data))
            .collect();
        match numbers {
            Some(numbers) if 9 * numbers.len() <= ONE_BLOCK_MAX => {
                let len = 9 * numbers.len();
                keys.extend(rows.map(|row| {
                    let mut block = [0u8; 64];
                    for (cell, column) in block.chunks_exact_mut(9).zip(&numbers) {
                        let (tag, bits) = column.key_cell(row);
                        cell[0] = tag;
                        cell[1..].copy_from_slice(&bits.to_be_bytes());
                    }
                    Key160::from_words(digest_one_block(block, len))
                }));
            }
            _ => keys.extend(rows.map(|row| {
                let mut hasher = Sha1::new();
                for &c in cols {
                    self.columns[c].encode_key_cell(row, &self.pool, |bytes| hasher.update(bytes));
                }
                Key160::from_words(hasher.finish_words())
            })),
        }
    }
}

/// Keep the items of `cells` whose entry in `mask` is `true`, in order.
fn retain_masked<T>(cells: &mut Vec<T>, mask: &[bool]) {
    let mut keep = mask.iter();
    cells.retain(|_| keep.next() == Some(&true));
}

/// Row numbers to append a column at a time, with — when a selection is
/// mostly long stretches of consecutive numbers, as a scan of rows stored
/// in the order it reads them is — those stretches, worked out once for
/// all the columns.
struct Selection<'r> {
    rows: &'r [u32],
    /// `rows` as ranges of consecutive row numbers; empty when copying
    /// cell by cell is as quick.
    stretches: Vec<std::ops::Range<usize>>,
}

impl<'r> Selection<'r> {
    /// `rows`, to be copied cell by cell.
    fn scattered(rows: &'r [u32]) -> Selection<'r> {
        Selection {
            rows,
            stretches: Vec::new(),
        }
    }

    /// `rows`, with their stretches when those average four rows or more.
    fn new(rows: &'r [u32]) -> Selection<'r> {
        let breaks = rows.windows(2).filter(|w| w[1] != w[0].wrapping_add(1));
        if 4 * (1 + breaks.count()) > rows.len() {
            return Selection::scattered(rows);
        }
        let mut stretches: Vec<std::ops::Range<usize>> = Vec::new();
        for &r in rows {
            let r = r as usize;
            match stretches.last_mut() {
                Some(last) if last.end == r => last.end += 1,
                _ => stretches.push(r..r + 1),
            }
        }
        Selection { rows, stretches }
    }

    /// Append `src[r]` for every `r` of `rest`, a tail of the selection's
    /// rows: a slice copy per stretch when `rest` is all of them.
    fn extend<T: Copy>(&self, dst: &mut Vec<T>, src: &[T], rest: &[u32]) {
        if rest.len() == self.rows.len() && !self.stretches.is_empty() {
            dst.reserve(rest.len());
            for stretch in &self.stretches {
                dst.extend_from_slice(&src[stretch.clone()]);
            }
        } else {
            dst.extend(rest.iter().map(|r| src[*r as usize]));
        }
    }
}

/// How many distinct values `bits` yields, exactly.  A handful are
/// compared pairwise; more go through an open-addressing table that each
/// thread keeps from one call to the next, so pricing a flushed batch
/// neither allocates nor sorts a copy of its column.
fn distinct_bits(bits: impl ExactSizeIterator<Item = u64>) -> usize {
    const PAIRWISE: usize = 16;
    if bits.len() <= PAIRWISE {
        let mut seen = [0u64; PAIRWISE];
        let mut distinct = 0;
        for b in bits {
            if !seen[..distinct].contains(&b) {
                seen[distinct] = b;
                distinct += 1;
            }
        }
        return distinct;
    }
    thread_local! {
        static TABLE: RefCell<BitsTable> = RefCell::default();
    }
    TABLE.with(|table| table.borrow_mut().count(bits))
}

/// The table behind [`distinct_bits`]: a slot holds a bit pattern and the
/// generation (the call) that filled it, so a slot of an earlier call
/// reads as empty and the table is never cleared between calls.
#[derive(Default)]
struct BitsTable {
    slots: Vec<(u64, u32)>,
    generation: u32,
}

impl BitsTable {
    fn count(&mut self, bits: impl ExactSizeIterator<Item = u64>) -> usize {
        // At most half full: probes stay short.
        let capacity = (2 * bits.len()).next_power_of_two().max(2);
        if self.slots.len() < capacity || self.generation == u32::MAX {
            self.slots.clear();
            self.slots.resize(capacity, (0, 0));
            self.generation = 0;
        }
        self.generation += 1;
        let generation = self.generation;
        // Only the first `capacity` slots are used, so a small batch
        // probes a small table however large an earlier one grew it.
        let (mask, shift) = (capacity - 1, 64 - capacity.trailing_zeros());
        let mut distinct = 0;
        for b in bits {
            // Fibonacci hashing: the product's top bits pick the slot.
            let mut i = (b.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
            loop {
                let slot = &mut self.slots[i];
                if slot.1 != generation {
                    *slot = (b, generation);
                    distinct += 1;
                    break;
                }
                if slot.0 == b {
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        distinct
    }
}

impl Numbers<'_> {
    /// The type tag and the eight big-endian bytes' worth of the cell at
    /// `row` in its key encoding: an integral double keys as the `Int` it
    /// equals.
    #[inline(always)]
    fn key_cell(&self, row: usize) -> (u8, u64) {
        match self {
            Numbers::Int(v) => (1, v.at(row) as u64),
            Numbers::Double(v) => match integral(v.at(row)) {
                Some(i) => (1, i as u64),
                None => (2, v.at(row).to_bits()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::tuple::hash_values;

    fn tags() -> (i8, NodeSet, u32) {
        (1, NodeSet::singleton(NodeId(3)), 0)
    }

    #[test]
    fn round_trip_is_lossless_per_type() {
        let rows = vec![
            vec![Value::Int(1), Value::Double(1.5), Value::str("a")],
            vec![Value::Int(2), Value::Double(2.5), Value::str("b")],
            vec![Value::Int(1), Value::Double(1.5), Value::str("a")],
        ];
        let mut b = ColumnarBatch::new(3);
        let (sign, prov, phase) = tags();
        for r in &rows {
            b.push_row(r, sign, prov, phase);
        }
        assert_eq!(b.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(b.tuple_at(i), Tuple::new(r.clone()));
            assert_eq!(b.sign_at(i), 1);
            assert_eq!(b.provenance_at(i), prov);
        }
        // Typed columns, repeated strings interned once.
        assert!(matches!(b.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(b.column(2).data(), ColumnData::Str(_)));
        assert_eq!(b.pool().len(), 2);
    }

    #[test]
    fn mixed_and_null_columns_demote_losslessly() {
        let rows = vec![
            vec![Value::Int(2)],
            vec![Value::Double(2.0)],
            vec![Value::Null],
            vec![Value::str("x")],
        ];
        let mut b = ColumnarBatch::new(1);
        let (sign, prov, phase) = tags();
        for r in &rows {
            b.push_row(r, sign, prov, phase);
        }
        assert!(matches!(b.column(0).data(), ColumnData::Values(_)));
        // Int(2) must come back as Int(2), not Double(2.0).
        assert!(matches!(b.value_at(0, 0), Value::Int(2)));
        assert!(matches!(b.value_at(1, 0), Value::Double(_)));
        assert!(b.value_at(2, 0).is_null());
        // Distinctness under Value equality: Int(2) == Double(2.0).
        assert_eq!(b.column(0).acct(b.pool()).distinct, 3);
    }

    /// Check every column's accounting against the row path's oracle:
    /// one copy of each distinct value ([`Value`] equality) plus the
    /// plain total, over `rows` — the rows `b` holds.
    fn assert_accounting(b: &ColumnarBatch, rows: &[Vec<Value>]) {
        assert_eq!(b.len(), rows.len());
        for col in 0..b.arity() {
            let mut seen: HashSet<Value> = HashSet::new();
            let mut dict = 0;
            let mut plain = 0;
            for r in rows {
                let v = &r[col];
                plain += v.serialized_size();
                if seen.insert(v.clone()) {
                    dict += v.serialized_size();
                }
            }
            assert_eq!(b.column(col).plain_bytes(b.pool()), plain, "col {col}");
            assert_eq!(b.column(col).dict_bytes(b.pool()), dict, "col {col}");
            assert_eq!(
                b.column(col).acct(b.pool()).distinct,
                seen.len(),
                "col {col}"
            );
            assert_eq!(
                b.encoded_column_size(col),
                (dict + 2 * rows.len()).min(plain),
                "col {col}"
            );
        }
    }

    #[test]
    fn dictionary_accounting_matches_a_row_scan() {
        let (sign, prov, phase) = tags();
        let batch_of = |rows: &[Vec<Value>]| {
            let mut b = ColumnarBatch::new(rows[0].len());
            for r in rows {
                b.push_row(r, sign, prov, phase);
            }
            b
        };
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::str(format!("unique-{i}")),
                ]
            })
            .collect();
        let mut b = batch_of(&rows);
        assert_accounting(&b, &rows);

        // After `retain` the pool still holds every string the batch ever
        // saw — far more than the rows left — and the counts follow the
        // rows, not the pool.
        let keep: Vec<bool> = (0..rows.len()).map(|i| i % 9 == 4).collect();
        b.retain(&keep);
        let kept: Vec<Vec<Value>> = rows
            .iter()
            .zip(&keep)
            .filter(|(_, k)| **k)
            .map(|(r, _)| r.clone())
            .collect();
        assert!(b.pool().len() > 5 * b.len());
        assert_accounting(&b, &kept);
        assert_accounting(&b.project(&[2, 1]), &{
            let cut = |r: &Vec<Value>| vec![r[2].clone(), r[1].clone()];
            kept.iter().map(cut).collect::<Vec<_>>()
        });

        // Typed equality is bit equality: the two zeros and two NaNs of
        // different payload are four values, and the ends of the integer
        // range sort where they belong.
        let nan = |payload: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | payload));
        let numbers: Vec<Vec<Value>> = [
            (i64::MAX, Value::Double(0.0)),
            (i64::MIN, Value::Double(-0.0)),
            (-1, nan(1)),
            (i64::MAX, nan(2)),
            (0, Value::Double(0.0)),
            (i64::MIN, nan(1)),
            (1, Value::Double(-0.0)),
        ]
        .into_iter()
        .map(|(i, d)| vec![Value::Int(i), d])
        .collect();
        let b = batch_of(&numbers);
        assert!(matches!(b.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(b.column(1).data(), ColumnData::Double(_)));
        assert_eq!(b.column(0).acct(b.pool()).distinct, 5);
        assert_eq!(b.column(1).acct(b.pool()).distinct, 4);
        assert_accounting(&b, &numbers);

        // The untyped fallback: `Int(2)` and `Double(2.0)` are one value.
        let mixed: Vec<Vec<Value>> = [
            Value::Int(2),
            Value::Null,
            Value::Double(2.0),
            Value::str("2"),
            Value::Null,
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect();
        assert_accounting(&batch_of(&mixed), &mixed);
    }

    #[test]
    fn retain_preserves_order_and_reaccounts() {
        let mut b = ColumnarBatch::new(2);
        let (_, prov, phase) = tags();
        for i in 0..6i64 {
            b.push_row(
                &[Value::Int(i), Value::str(if i < 3 { "lo" } else { "hi" })],
                if i % 2 == 0 { 1 } else { -1 },
                prov,
                phase,
            );
        }
        let mask = [true, false, true, false, true, false];
        b.retain(&mask);
        assert_eq!(b.len(), 3);
        assert_eq!(
            (0..3).map(|r| b.value_at(r, 0)).collect::<Vec<_>>(),
            vec![Value::Int(0), Value::Int(2), Value::Int(4)]
        );
        assert!(b.sign_column().iter().all(|s| *s == 1));
        // Accounting reflects the surviving cells only.
        assert_eq!(b.column(0).plain_bytes(b.pool()), 3 * 9);
        assert_eq!(b.column(0).acct(b.pool()).distinct, 3);
        assert_eq!(b.column(1).acct(b.pool()).distinct, 2);
    }

    #[test]
    fn append_widens_the_batch_and_pads_narrow_rows() {
        let (sign, prov, phase) = tags();
        let mut narrow = ColumnarBatch::new(1);
        narrow.push_row(&[Value::Int(1)], sign, prov, phase);
        let mut wide = ColumnarBatch::new(2);
        wide.push_row(&[Value::Int(2), Value::str("x")], -1, prov, 3);
        let mut dst = ColumnarBatch::new(0);
        dst.append_batch(&narrow);
        dst.append_batch(&wide);
        dst.append_batch(&narrow);
        assert_eq!((dst.arity(), dst.len()), (2, 3));
        // The rows that were too short read back padded with NULLs.
        assert!(dst.value_at(0, 1).is_null());
        assert_eq!(dst.value_at(1, 1), Value::str("x"));
        assert!(dst.value_at(2, 1).is_null());
        assert_eq!(dst.value_at(2, 0), Value::Int(1));
        // Tags travel with their rows.
        assert_eq!((dst.sign_at(1), dst.phase_at(1)), (-1, 3));
    }

    /// Everything a reader can see of a batch: rows with their tags, each
    /// column's storage variant and accounting, and the pool's size.
    #[allow(clippy::type_complexity)]
    fn observable(
        b: &ColumnarBatch,
    ) -> (
        Vec<(Tuple, i8, NodeSet, u32)>,
        Vec<(u8, usize, usize, usize)>,
        usize,
    ) {
        let rows = (0..b.len())
            .map(|r| {
                (
                    b.tuple_at(r),
                    b.sign_at(r),
                    b.provenance_at(r),
                    b.phase_at(r),
                )
            })
            .collect();
        let columns = (0..b.arity())
            .map(|c| {
                let col = b.column(c);
                let variant = match col.data() {
                    ColumnData::Int(_) => 0,
                    ColumnData::Double(_) => 1,
                    ColumnData::Str(_) => 2,
                    ColumnData::Values(_) => 3,
                };
                (
                    variant,
                    col.plain_bytes(b.pool()),
                    col.dict_bytes(b.pool()),
                    col.acct(b.pool()).distinct,
                )
            })
            .collect();
        (rows, columns, b.pool().len())
    }

    /// `append_rows` must build what `append_row_interned` of each row in
    /// turn builds; returns that batch.
    fn append_both_ways(dst: &ColumnarBatch, src: &ColumnarBatch, rows: &[u32]) -> ColumnarBatch {
        let mut by_row = dst.clone();
        for r in rows {
            by_row.append_row_interned(src, *r as usize);
        }
        let mut by_column = dst.clone();
        by_column.append_rows(src, rows);
        assert_eq!(observable(&by_column), observable(&by_row), "rows {rows:?}");
        by_column
    }

    /// A batch of the given rows, tags varying by row.
    fn tagged_batch(arity: usize, rows: &[Vec<Value>]) -> ColumnarBatch {
        let mut b = ColumnarBatch::new(arity);
        for (i, r) in rows.iter().enumerate() {
            let sign = if i % 3 == 0 { -1 } else { 1 };
            b.push_row(
                r,
                sign,
                NodeSet::singleton(NodeId(i as u16 % 5)),
                i as u32 % 2,
            );
        }
        b
    }

    #[test]
    fn append_rows_matches_appending_row_by_row() {
        let typed = tagged_batch(
            3,
            &(0..6)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("s{}", i % 2)),
                        Value::Double(i as f64 / 2.0),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let all: Vec<u32> = (0..6).collect();

        // Into an empty destination of no columns yet, and of the right
        // arity with its variants still open; out of order; a row taken
        // more than once.
        for dst in [ColumnarBatch::new(0), ColumnarBatch::new(3)] {
            let out = append_both_ways(&dst, &typed, &all);
            assert!(matches!(out.column(1).data(), ColumnData::Str(_)));
            append_both_ways(&dst, &typed, &[4, 0, 5]);
            append_both_ways(&dst, &typed, &[1, 1, 0, 1]);
        }
        // Onto rows already there, twice over.
        let once = append_both_ways(&ColumnarBatch::new(0), &typed, &[0, 1]);
        assert_eq!(append_both_ways(&once, &typed, &[2, 3, 0]).len(), 5);

        // An empty selection changes nothing — not even the arity.
        let untouched = append_both_ways(&ColumnarBatch::new(0), &typed, &[]);
        assert_eq!((untouched.arity(), untouched.len()), (0, 0));

        // A wider source widens the destination (NULLs for the rows it
        // held); a narrower one is padded with NULLs.
        let narrow = tagged_batch(1, &[vec![Value::Int(7)], vec![Value::Int(8)]]);
        let widened = append_both_ways(&narrow, &typed, &[5, 2]);
        assert_eq!(widened.arity(), 3);
        assert!(widened.value_at(0, 2).is_null());
        let padded = append_both_ways(&typed, &narrow, &[1, 0, 1]);
        assert_eq!((padded.arity(), padded.len()), (3, 9));
        assert!(padded.value_at(8, 1).is_null());
        assert!(matches!(padded.column(1).data(), ColumnData::Values(_)));
    }

    #[test]
    fn append_rows_demotes_where_the_row_loop_would() {
        // The source column is untyped (a NULL demoted it) but starts
        // with integers: an empty destination takes `Int` from the first
        // cell and demotes at the NULL, mid-selection.
        let cells = [
            Value::Int(1),
            Value::Int(2),
            Value::Null,
            Value::Int(3),
            Value::str("x"),
        ];
        let rows: Vec<Vec<Value>> = cells.iter().map(|v| vec![v.clone()]).collect();
        let untyped = tagged_batch(1, &rows);
        assert!(matches!(untyped.column(0).data(), ColumnData::Values(_)));
        let all: Vec<u32> = (0..5).collect();
        let out = append_both_ways(&ColumnarBatch::new(1), &untyped, &all);
        assert!(matches!(out.column(0).data(), ColumnData::Values(_)));
        // Integers only: the destination stays typed although the source
        // is not.
        let out = append_both_ways(&ColumnarBatch::new(0), &untyped, &[0, 1, 3, 1]);
        assert!(matches!(out.column(0).data(), ColumnData::Int(_)));
        // A typed destination meets a cell of another type, first thing
        // or part-way; an untyped one takes anything.
        let ints = tagged_batch(1, &[vec![Value::Int(10)], vec![Value::Int(11)]]);
        let doubles = tagged_batch(1, &[vec![Value::Double(0.5)], vec![Value::Double(1.5)]]);
        let strs = tagged_batch(1, &[vec![Value::str("x")], vec![Value::str("y")]]);
        append_both_ways(&ints, &doubles, &[0, 1]);
        append_both_ways(&strs, &ints, &[1]);
        append_both_ways(&ints, &untyped, &[0, 1, 4, 3]);
        append_both_ways(&strs, &untyped, &[4, 4, 2]);
        append_both_ways(&untyped, &ints, &[1, 0]);
        append_both_ways(&untyped, &strs, &[0, 1, 0]);
        append_both_ways(&untyped, &untyped, &all);
        // A column emptied by `retain` keeps its variant until a cell
        // that goes through `push` fixes it afresh.
        let mut emptied = strs.clone();
        emptied.retain(&[false, false]);
        append_both_ways(&emptied, &strs, &[1, 0]);
        append_both_ways(&emptied, &ints, &[0, 1]);
        append_both_ways(&emptied, &untyped, &all);
    }

    #[test]
    fn append_rows_shares_strings_between_pools() {
        let dst = tagged_batch(
            2,
            &[
                vec![Value::str("shared"), Value::str("only-dst")],
                vec![Value::str("only-dst"), Value::str("shared")],
            ],
        );
        let src = tagged_batch(
            2,
            &[
                vec![Value::str("only-src"), Value::str("shared")],
                vec![Value::str("shared"), Value::str("only-src")],
                vec![Value::str("late"), Value::str("late")],
            ],
        );
        let out = append_both_ways(&dst, &src, &[0, 1, 0, 2]);
        assert_eq!(out.value_at(2, 0), Value::str("only-src"));
        assert_eq!(out.value_at(3, 0), Value::str("shared"));
        // Each string interned once in the destination pool.
        assert_eq!(out.pool().len(), 4);
        // A string new to the destination is the source's allocation, not
        // a copy; one both had keeps the destination's.
        let find = |b: &ColumnarBatch, s: &str| {
            let id = (0..b.pool().len() as u32).find(|id| b.pool().get(*id) == s);
            Arc::clone(b.pool().get_shared(id.expect("interned")))
        };
        assert!(Arc::ptr_eq(
            &find(&out, "only-src"),
            &find(&src, "only-src")
        ));
        assert!(Arc::ptr_eq(&find(&out, "late"), &find(&src, "late")));
        assert!(Arc::ptr_eq(&find(&out, "shared"), &find(&dst, "shared")));
        assert!(!Arc::ptr_eq(&find(&out, "shared"), &find(&src, "shared")));
    }

    /// `hash_columns` over a batch (and `hash_columns_at` over a selection
    /// of its rows) must give, row for row, the key
    /// [`hash_values`] gives over the row's cells: random batches whose
    /// columns are typed `Int`, `Double` or `Str`, or untyped (NULLs or a
    /// mix of types), drawn from the edge cases of every type, with keys
    /// of one to seven columns whose encodings fall either side of one
    /// SHA-1 block (55, 56 and 64 bytes).
    #[test]
    fn hash_columns_matches_tuple_hashing() {
        // A debug build runs a sample on every `cargo test`; CI runs the
        // full count in release mode.
        use crate::rng::StdRng;
        use std::cmp::Ordering;
        fn int(rng: &mut StdRng) -> Value {
            const EDGES: [i64; 8] = [i64::MIN, i64::MAX, 0, -1, 1, 2, 1 << 53, -(1 << 53) - 1];
            match rng.random_range(0u8..3) {
                0 => Value::Int(EDGES[rng.random_range(0..EDGES.len())]),
                _ => Value::Int(rng.next_u64() as i64 >> rng.random_range(0u32..64)),
            }
        }
        fn double(rng: &mut StdRng) -> Value {
            const EDGES: [f64; 14] = [
                -0.0,
                0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                2.0,
                -2.0,
                1.5,
                9_007_199_254_740_992.0,     // 2^53
                9_223_372_036_854_775_808.0, // 2^63, saturates to i64::MAX
                -9_223_372_036_854_775_808.0,
                1e300,
                f64::MIN_POSITIVE,
            ];
            match rng.random_range(0u8..3) {
                0 => Value::Double(EDGES[rng.random_range(0..EDGES.len())]),
                1 => Value::Double(rng.random_range(0u32..100) as f64 - 50.0),
                _ => Value::Double(f64::from_bits(rng.next_u64())),
            }
        }
        /// Lengths either side of the block edges once framed.
        fn string(rng: &mut StdRng) -> Value {
            Value::str("s".repeat(rng.random_range(0usize..72)))
        }
        /// A cell of a column of the given kind.
        fn cell(rng: &mut StdRng, kind: u8) -> Value {
            match kind {
                0 => int(rng),
                1 => double(rng),
                2 => string(rng),
                // Untyped: NULLs among numbers, or any type at all.
                3 if rng.random_bool(0.3) => Value::Null,
                3 => int(rng),
                _ => match rng.random_range(0u8..4) {
                    0 => Value::Null,
                    1 => int(rng),
                    2 => double(rng),
                    _ => string(rng),
                },
            }
        }

        let cases = if cfg!(debug_assertions) { 300 } else { 20_000 };
        let mut rng = crate::rng::seeded(0x4a5c_0b1c);
        let mut seen = HashSet::new();
        for case in 0..cases {
            let kinds: Vec<u8> = (0..rng.random_range(1usize..8))
                .map(|_| rng.random_range(0u8..5))
                .collect();
            let rows: Vec<Vec<Value>> = (0..rng.random_range(0usize..12))
                .map(|_| kinds.iter().map(|k| cell(&mut rng, *k)).collect())
                .collect();
            let mut b = ColumnarBatch::new(kinds.len());
            let (sign, prov, phase) = tags();
            for r in &rows {
                b.push_row(r, sign, prov, phase);
            }
            let cols: Vec<usize> = (0..rng.random_range(1usize..8))
                .map(|_| rng.random_range(0..kinds.len()))
                .collect();
            let mut keys = vec![Key160::ZERO; 3];
            b.hash_columns(&cols, &mut keys);
            assert_eq!(keys.len(), rows.len(), "case {case}");
            // A selection of rows, in its own order, gets the same keys.
            let picked: Vec<u32> = (0..rows.len() as u32).rev().step_by(2).collect();
            let mut at = vec![Key160::ZERO; 5];
            b.hash_columns_at(&cols, &picked, &mut at);
            let expected = picked.iter().map(|r| keys[*r as usize]);
            assert!(
                at.iter().copied().eq(expected),
                "case {case}: rows {picked:?}"
            );
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(
                    keys[i],
                    hash_values(cols.iter().map(|c| &r[*c])),
                    "case {case} row {i} cols {cols:?}"
                );
                let bytes: usize = cols.iter().map(|c| r[*c].serialized_size()).sum();
                seen.insert((
                    cols.iter().all(|c| {
                        matches!(
                            b.column(*c).data(),
                            ColumnData::Int(_) | ColumnData::Double(_)
                        )
                    }),
                    bytes.cmp(&55),
                    bytes.cmp(&64),
                ));
            }
        }
        // Both paths, each with keys shorter than, at and past a block
        // (a numeric key is a multiple of nine bytes: 54 then 63).
        for typed in [true, false] {
            for (block, whole) in [
                (Ordering::Less, Ordering::Less),
                (Ordering::Greater, Ordering::Less),
            ] {
                assert!(seen.contains(&(typed, block, whole)), "{typed} {block:?}");
            }
        }
        for (block, whole) in [
            (Ordering::Equal, Ordering::Less),
            (Ordering::Greater, Ordering::Equal),
            (Ordering::Greater, Ordering::Greater),
        ] {
            assert!(seen.contains(&(false, block, whole)), "{block:?} {whole:?}");
        }
    }

    #[test]
    fn distinct_bits_counts_exactly_whatever_the_table_held_before() {
        // Lengths either side of the pairwise cut-off, a table grown by a
        // long call then reused by short ones, few and many repeats, and
        // the bit patterns of both zeros and of NaNs.
        let mut rng = crate::rng::seeded(0x0d15_71c7);
        let specials = [0.0f64, -0.0, f64::NAN, -f64::NAN, f64::INFINITY].map(f64::to_bits);
        for len in [0, 1, 15, 16, 17, 300, 5, 2_000, 40, 17, 3] {
            let spread = rng.random_range(1..(2 * len as u64 + 2));
            let bits: Vec<u64> = (0..len)
                .map(|i| match i % 7 {
                    0 => specials[rng.random_range(0..specials.len())],
                    _ => rng.random_range(0..spread) << rng.random_range(0..40u32),
                })
                .collect();
            let mut sorted = bits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(distinct_bits(bits.iter().copied()), sorted.len(), "{len}");
        }
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn ragged_rows_are_rejected() {
        let mut b = ColumnarBatch::new(2);
        let (sign, prov, phase) = tags();
        b.push_row(&[Value::Int(1)], sign, prov, phase);
    }

    /// The kind of a column's storage, or of a value: `Int`, `Double`,
    /// `Str`, or the untyped fallback (a NULL, for a value).
    fn variant(data: &ColumnData) -> u8 {
        match data {
            ColumnData::Int(_) => 0,
            ColumnData::Double(_) => 1,
            ColumnData::Str(_) => 2,
            ColumnData::Values(_) => 3,
        }
    }

    fn value_variant(v: &Value) -> u8 {
        match v {
            Value::Int(_) => 0,
            Value::Double(_) => 1,
            Value::Str(_) => 2,
            Value::Null => 3,
        }
    }

    /// A random cell of the given kind (`variant`'s numbering; 3 is any
    /// type or NULL), drawn from the edges of `Value`'s order
    /// ([`crate::value::tests::edge_values`]: around ±2^53 and ±2^63, NaNs
    /// of both signs, both zeros, the infinities) and from random bits, or
    /// from `strings`.
    fn random_cell(rng: &mut crate::rng::StdRng, kind: u8, strings: &[Value]) -> Value {
        let edges = crate::value::tests::edge_values();
        let edge = |rng: &mut crate::rng::StdRng, pick: fn(&Value) -> bool| loop {
            let v = &edges[rng.random_range(0..edges.len())];
            if pick(v) {
                return v.clone();
            }
        };
        match kind {
            0 if rng.random_bool(0.5) => edge(rng, |v| matches!(v, Value::Int(_))),
            0 => Value::Int(rng.next_u64() as i64 >> rng.random_range(0u32..64)),
            1 if rng.random_bool(0.5) => edge(rng, |v| matches!(v, Value::Double(_))),
            1 if rng.random_bool(0.5) => Value::Double(rng.random_range(0u32..8) as f64 - 4.0),
            1 => Value::Double(f64::from_bits(rng.next_u64())),
            2 => strings[rng.random_range(0..strings.len())].clone(),
            _ => match rng.random_range(0u8..4) {
                3 => Value::Null,
                kind => random_cell(rng, kind, strings),
            },
        }
    }

    /// A batch of one column of each kind and two more of random kinds,
    /// `rows` rows (at least one), its strings drawn from `strings`; the
    /// untyped columns start with a NULL, so they stay untyped.
    fn random_batch(rng: &mut crate::rng::StdRng, strings: &[Value]) -> ColumnarBatch {
        let kinds: Vec<u8> = (0..4)
            .chain((0..2).map(|_| rng.random_range(0u8..4)))
            .collect();
        let mut b = ColumnarBatch::new(kinds.len());
        for row in 0..rng.random_range(1usize..10) {
            let cells: Vec<Value> = (kinds.iter())
                .map(|k| match (k, row) {
                    (3, 0) => Value::Null,
                    _ => random_cell(rng, *k, strings),
                })
                .collect();
            b.push_row(&cells, 1, NodeSet::empty(), 0);
        }
        for (c, k) in kinds.iter().enumerate() {
            assert_eq!(variant(b.column(c).data()), *k);
        }
        b
    }

    /// `len` consecutive rows of a batch of `rows` rows, at random: what a
    /// comparison is handed.
    fn random_rows(rng: &mut crate::rng::StdRng, rows: usize, len: usize) -> Range<usize> {
        let start = rng.random_range(0..=rows - len);
        start..start + len
    }

    /// The typed order is `Value::cmp`: every column kind against every
    /// value kind, and against every column kind of the same batch (one
    /// pool) and of another (two pools, sharing some strings by pointer
    /// and holding others as copies), through both loops and their
    /// one-row forms, over the edges of the order.  A debug build runs 20
    /// random cases on every `cargo test`; CI runs 300 in release mode.
    #[test]
    fn typed_equivalence_of_order() {
        let cases = if cfg!(debug_assertions) { 20 } else { 300 };
        let mut rng = crate::rng::seeded(0x0dde_0c0e);
        let mut seen = HashSet::new();
        for case in 0..cases {
            let texts = ["", "a", "ab", "b", "ba", "abc"];
            let shared: Vec<Value> = texts.iter().map(|t| Value::str(*t)).collect();
            let a = random_batch(&mut rng, &shared);
            // The other batch holds some of the same allocations and some
            // equal strings of its own.
            let own: Vec<Value> = (texts.iter().map(|t| Value::str(*t)))
                .chain(shared.iter().cloned())
                .collect();
            let b = random_batch(&mut rng, &own);
            let mut probes = crate::value::tests::edge_values();
            probes.extend(own.iter().cloned());
            for batch in [&a, &b] {
                for col in 0..batch.arity() {
                    let data = batch.column(col).data();
                    for v in &probes {
                        let len = rng.random_range(0..=batch.len());
                        let rows = random_rows(&mut rng, batch.len(), len);
                        let want: Vec<(usize, Ordering)> = rows
                            .clone()
                            .map(|r| (r, batch.value_at(r, col).cmp(v)))
                            .collect();
                        let mut got = Vec::new();
                        data.cmp_value(batch.pool(), rows, v, |r, o| got.push((r, o)));
                        assert_eq!(got, want, "case {case}: column {col} against {v:?}");
                        for (r, o) in &want {
                            assert_eq!(data.cmp_value_at(batch.pool(), *r, v), *o);
                        }
                        seen.insert((variant(data), value_variant(v), true));
                    }
                }
            }
            for (x, y) in [(&a, &a), (&a, &b), (&b, &a)] {
                let one_pool = std::ptr::eq(x, y);
                for (cx, cy) in (0..x.arity()).flat_map(|c| (0..y.arity()).map(move |d| (c, d))) {
                    let (dx, dy) = (x.column(cx).data(), y.column(cy).data());
                    let len = rng.random_range(0..=x.len().min(y.len()));
                    let (xs, ys) = (
                        random_rows(&mut rng, x.len(), len),
                        random_rows(&mut rng, y.len(), len),
                    );
                    let pairs: Vec<(usize, usize)> = xs.clone().zip(ys.clone()).collect();
                    let want: Vec<(usize, Ordering)> = (pairs.iter())
                        .map(|&(r, s)| (r, x.value_at(r, cx).cmp(&y.value_at(s, cy))))
                        .collect();
                    let mut got = Vec::new();
                    dx.cmp_cells(x.pool(), xs, dy, y.pool(), ys, |r, o| got.push((r, o)));
                    assert_eq!(got, want, "case {case}: columns {cx} and {cy}");
                    for ((r, s), (_, o)) in pairs.iter().zip(&want) {
                        assert_eq!(dx.cmp_cell_at(x.pool(), *r, dy, y.pool(), *s), *o);
                    }
                    seen.insert((variant(dx), variant(dy), one_pool));
                }
            }
        }
        // Every pair of kinds, columns in one pool and in two.
        for (p, q) in (0..4).flat_map(|p| (0..4).map(move |q| (p, q))) {
            for one_pool in [true, false] {
                assert!(seen.contains(&(p, q, one_pool)), "{p} {q} {one_pool}");
            }
        }
    }

    /// Bits of a number, to compare doubles the sign of zero included.
    /// Every NaN is one: Rust leaves the sign and payload of a NaN that
    /// arithmetic produces unspecified (RFC 3514), and an optimizer may
    /// swap the operands of a commutative operation.
    fn bits(v: &Value) -> (u8, u64) {
        match v {
            Value::Int(x) => (0, *x as u64),
            Value::Double(x) if x.is_nan() => (1, f64::NAN.to_bits()),
            Value::Double(x) => (1, x.to_bits()),
            other => panic!("not a number: {other:?}"),
        }
    }

    /// An operand of a lane test, read a row at a time.
    enum Operand<'a> {
        Cells(&'a ColumnData),
        Literal(&'a Value),
    }

    impl Operand<'_> {
        fn at(&self, row: usize) -> Value {
            match self {
                Operand::Cells(data) => data.value_at(row, &[]),
                Operand::Literal(v) => (*v).clone(),
            }
        }
    }

    /// `x op y` spelled out with the native operators: `Int` with `Int` by
    /// `i64`'s, any other pair of numbers by `f64`'s.
    fn by_hand(op: Arith, x: &Value, y: &Value) -> Value {
        if let (Value::Int(p), Value::Int(q)) = (x, y) {
            return Value::Int(match op {
                Arith::Add => p + q,
                Arith::Sub => p - q,
                Arith::Mul => p * q,
            });
        }
        let (p, q) = (x.as_f64().expect("number"), y.as_f64().expect("number"));
        Value::Double(match op {
            Arith::Add => p + q,
            Arith::Sub => p - q,
            Arith::Mul => p * q,
        })
    }

    /// Every typed arithmetic lane — an `Int` or `Double` column or
    /// literal against another, for `+`, `-` and `*` — computes row by
    /// row, type and bits, what `Value::{add, sub, mul}` compute over the
    /// rows' values, and both what the native operators compute
    /// ([`by_hand`]), integers past 2^53 included.  20 random cases in
    /// `cargo test`, 300 in CI's release step.
    #[test]
    fn typed_equivalence_of_arithmetic() {
        let cases = if cfg!(debug_assertions) { 20 } else { 300 };
        let mut rng = crate::rng::seeded(0xa217_4e71);
        for case in 0..cases {
            let rows = rng.random_range(1usize..8);
            for op in [Arith::Add, Arith::Sub, Arith::Mul] {
                // Integers no pair of which overflows under `op` (sums stay
                // below 2^57, products below 2^62), many of them or their
                // results past 2^53, where no `f64` holds every integer.
                let low: u32 = if matches!(op, Arith::Mul) { 33 } else { 8 };
                let mut int = || {
                    let widest = if rng.random_bool(0.5) { 3 } else { 30 };
                    Value::Int((rng.next_u64() as i64) >> rng.random_range(low..low + widest))
                };
                let int_cells =
                    ColumnData::Int((0..rows).map(|_| int().as_int().expect("int")).collect());
                let int_literal = int();
                let mut double = || random_cell(&mut rng, 1, &[]);
                let double_cells = ColumnData::Double(
                    (0..rows)
                        .map(|_| double().as_f64().expect("number"))
                        .collect(),
                );
                let double_literal = double();
                // Each operand as a lane and as each row's value.
                let operands = || {
                    let column = |data| {
                        (
                            Numbers::of(data).expect("a number column"),
                            Operand::Cells(data),
                        )
                    };
                    let literal =
                        |v| (Numbers::of_value(v).expect("a number"), Operand::Literal(v));
                    [
                        column(&int_cells),
                        column(&double_cells),
                        literal(&int_literal),
                        literal(&double_literal),
                    ]
                };
                for (i, (a, a_at)) in operands().into_iter().enumerate() {
                    for (j, (b, b_at)) in operands().into_iter().enumerate() {
                        let want = (0..rows).map(|r| {
                            let (x, y) = (a_at.at(r), b_at.at(r));
                            let of_value = match op {
                                Arith::Add => x.add(&y),
                                Arith::Sub => x.sub(&y),
                                Arith::Mul => x.mul(&y),
                            };
                            assert_eq!(bits(&of_value), bits(&by_hand(op, &x, &y)), "{x:?} {y:?}");
                            of_value
                        });
                        let got =
                            Column::from_data(op.numbers(a.clone(), b.clone()).into_data(rows));
                        assert_eq!(got.len(), rows);
                        for (r, w) in want.enumerate() {
                            let cell = got.data().value_at(r, &[]);
                            assert_eq!(
                                bits(&cell),
                                bits(&w),
                                "case {case}: {op:?} {i} {j} row {r}"
                            );
                        }
                    }
                }
            }
        }
    }
}
