//! The join and the aggregate take a batch at a time; the row loops they
//! replaced are the reference.
//!
//! [`RowLoopJoin::process_batch`] and [`RowLoopAgg::update_batch`] are
//! `JoinState::process_batch` and `AggState::update_batch` as they ran
//! before: a `Vec<Value>` key per row, looked up in a `HashMap` keyed by
//! it, each match's cells copied a row at a time, and every aggregate
//! fed one materialized `Value` per row.  Random batches from the
//! exchange test's generator go through both, and what a reader can see
//! must be the same: every join output row with its tags, in order, and
//! each output column's storage variant; every aggregate's emitted
//! sub-groups and collapsed answer, doubles compared bit for bit.

use super::tests::subgroup_count;
use super::*;
use crate::exec::tests::exchange_by_batch::{random_batch, Cells};
use crate::plan::AggMode;
use orchestra_common::rng::{seeded, StdRng};

/// A cell as exactly as a reader can tell it apart: its type, and a
/// double's bits.
fn exact(v: &Value) -> String {
    match v {
        Value::Double(x) => format!("Double({:#x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

type Observed = (Vec<(Vec<String>, i8, NodeSet, Phase)>, Vec<&'static str>);

/// Everything a reader sees of a batch: each row's cells, exactly, and
/// tags, in order; and each column's storage variant.
fn observable(batch: &ColumnarBatch) -> Observed {
    let rows = (0..batch.len())
        .map(|r| {
            (
                (0..batch.arity())
                    .map(|c| exact(&batch.value_at(r, c)))
                    .collect(),
                batch.sign_at(r),
                batch.provenance_at(r),
                batch.phase_at(r),
            )
        })
        .collect();
    let variants = (0..batch.arity())
        .map(|c| match batch.column(c).data() {
            ColumnData::Int(_) => "Int",
            ColumnData::Double(_) => "Double",
            ColumnData::Str(_) => "Str",
            ColumnData::Values(_) => "Values",
        })
        .collect();
    (rows, variants)
}

/// An answer's rows, cell by cell, exactly.
fn exact_rows(rows: &[Tuple]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|t| t.values().iter().map(exact).collect())
        .collect()
}

/// One side of the row-loop join.
#[derive(Default)]
struct RowLoopSide {
    rows: ColumnarBatch,
    alive: Vec<bool>,
    index: HashMap<Vec<Value>, Vec<u32>>,
}

/// `JoinState` as it was: a key `Vec` per row, a probe per row, each
/// match appended as it is found.
#[derive(Default)]
struct RowLoopJoin {
    sides: [RowLoopSide; 2],
}

impl RowLoopJoin {
    fn len(&self) -> usize {
        self.sides
            .iter()
            .map(|s| s.alive.iter().filter(|a| **a).count())
            .sum()
    }

    /// The old `process_batch` word for word, but for the cell copy:
    /// `append_cells_from` (deleted with it) pushed each of the two rows'
    /// cells as it was, which is what `push_row` of the two rows side by
    /// side does.
    fn process_batch(
        &mut self,
        input: usize,
        batch: &ColumnarBatch,
        left_keys: &[usize],
        right_keys: &[usize],
        node: NodeId,
    ) -> ColumnarBatch {
        let keys = if input == 0 { left_keys } else { right_keys };
        let (a, b) = self.sides.split_at_mut(1);
        let (own, other) = if input == 0 {
            (&mut a[0], &b[0])
        } else {
            (&mut b[0], &a[0])
        };
        let mut out = ColumnarBatch::new(0);
        for r in 0..batch.len() {
            let key: Vec<Value> = keys.iter().map(|c| batch.value_at(r, *c)).collect();
            if let Some(matches) = other.index.get(&key) {
                for &m in matches {
                    let m = m as usize;
                    if !other.alive[m] {
                        continue;
                    }
                    if out.arity() == 0 {
                        out.pad_to_arity(batch.arity() + other.rows.arity());
                    }
                    let (left, right) = if input == 0 {
                        (batch.tuple_at(r), other.rows.tuple_at(m))
                    } else {
                        (other.rows.tuple_at(m), batch.tuple_at(r))
                    };
                    let cells = [left.values(), right.values()].concat();
                    let mut provenance = batch.provenance_at(r).union(&other.rows.provenance_at(m));
                    provenance.insert(node);
                    out.push_row(
                        &cells,
                        batch.sign_at(r) * other.rows.sign_at(m),
                        provenance,
                        batch.phase_at(r).max(other.rows.phase_at(m)),
                    );
                }
            }
            let idx = (own.rows.len() + r) as u32;
            own.index.entry(key).or_default().push(idx);
        }
        own.rows.append_batch(batch);
        own.alive.resize(own.rows.len(), true);
        out
    }

    fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let mut dropped = 0;
        for side in &mut self.sides {
            for (i, alive) in side.alive.iter_mut().enumerate() {
                if *alive && side.rows.provenance_at(i).intersects(failed) {
                    *alive = false;
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

/// `AggState`'s old lookup and fold: a full `(Vec<Value>, NodeSet,
/// Phase)` key per row and a `Value` per row and aggregate.  It fills
/// the sub-groups of an `AggState` of its own, whose emission and
/// collapse this change left alone.  (The old loop also skipped the key
/// lookup through a per-batch signature cache over typed columns; a test
/// showed that cache to land every row where the full lookup lands it,
/// so the full lookup is the reference.)
#[derive(Default)]
struct RowLoopAgg {
    index: HashMap<(Vec<Value>, NodeSet, Phase), usize>,
    state: AggState,
}

impl RowLoopAgg {
    fn update_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        partial: bool,
    ) {
        for r in 0..batch.len() {
            let key: Vec<Value> = group_by.iter().map(|c| batch.value_at(r, *c)).collect();
            let key = (key, batch.provenance_at(r), batch.phase_at(r));
            let i = match self.index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = self.state.subgroups.len();
                    self.state.subgroups.push(SubGroup {
                        key: key.0.clone(),
                        provenance: key.1,
                        phase: key.2,
                        accumulators: aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect(),
                        emitted: false,
                        alive: true,
                        next: END,
                    });
                    self.index.insert(key, i);
                    i
                }
            };
            let sign = batch.sign_at(r) as i64;
            let group = &mut self.state.subgroups[i];
            if partial {
                for (j, (f, col)) in aggs.iter().enumerate() {
                    let width = f.partial_width();
                    let state: Vec<Value> =
                        (0..width).map(|k| batch.value_at(r, col + k)).collect();
                    group.accumulators[j].merge_partial_signed(&state, sign);
                }
            } else {
                for (j, (_, col)) in aggs.iter().enumerate() {
                    group.accumulators[j].update_signed(&batch.value_at(r, *col), sign);
                }
            }
        }
    }

    fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let subgroups = &mut self.state.subgroups;
        let mut dropped = 0;
        self.index.retain(|(_, provenance, _), i| {
            if provenance.intersects(failed) {
                subgroups[*i].alive = false;
                dropped += 1;
                false
            } else {
                true
            }
        });
        dropped
    }
}

/// The kinds of one join key's two columns: a number meets a number (an
/// `Int` column, a `Double` one, or one holding both, which is untyped),
/// a string a string.
fn key_kinds(rng: &mut StdRng) -> (Cells, Cells) {
    const NUMBERS: [Cells; 3] = [Cells::Int, Cells::Double, Cells::Number];
    if rng.random_bool(0.3) {
        (Cells::Str, Cells::Str)
    } else {
        (
            NUMBERS[rng.random_range(0usize..3)],
            NUMBERS[rng.random_range(0usize..3)],
        )
    }
}

fn any_kind(rng: &mut StdRng) -> Cells {
    [Cells::Int, Cells::Str, Cells::Double, Cells::Number][rng.random_range(0usize..4)]
}

/// A random set of the nodes `random_batch` tags rows with.
fn failed_set(rng: &mut StdRng) -> NodeSet {
    (0u16..8)
        .filter(|_| rng.random_bool(0.3))
        .map(|i| NodeId(200 + i))
        .collect()
}

/// `batch` with every row an assertion.
fn assertions_only(batch: &ColumnarBatch) -> ColumnarBatch {
    ColumnarBatch::from_parts(
        batch.pool().clone(),
        (0..batch.arity())
            .map(|c| batch.column(c).clone())
            .collect(),
        vec![1; batch.len()],
        batch.provenance_column().to_vec(),
        batch.phase_column().to_vec(),
    )
}

/// Random batches arriving on either side of a join of one or two keys,
/// with purges in between, against [`RowLoopJoin`].
#[test]
fn a_join_emits_what_the_row_loop_emitted_in_its_order() {
    // A debug build runs a sample on every `cargo test`; CI runs the
    // full count in release mode.
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0x10a1_b47c);
    let mut joined = 0;
    for case in 0..cases {
        let keys: Vec<(Cells, Cells)> = (0..rng.random_range(1usize..3))
            .map(|_| key_kinds(&mut rng))
            .collect();
        // Key columns first on the left, last on the right.
        let left_payload: Vec<Cells> = (0..rng.random_range(0usize..3))
            .map(|_| any_kind(&mut rng))
            .collect();
        let right_payload: Vec<Cells> = (0..rng.random_range(0usize..3))
            .map(|_| any_kind(&mut rng))
            .collect();
        let left: Vec<Cells> = keys.iter().map(|k| k.0).chain(left_payload).collect();
        let right: Vec<Cells> = right_payload
            .iter()
            .copied()
            .chain(keys.iter().map(|k| k.1))
            .collect();
        let left_keys: Vec<usize> = (0..keys.len()).collect();
        let right_keys: Vec<usize> = (right_payload.len()..right.len()).collect();
        let node = NodeId(rng.random_range(0u16..8));
        let mut join = JoinState::new();
        let mut reference = RowLoopJoin::default();
        for i in 0..rng.random_range(2usize..7) {
            let what = format!("case {case}, batch {i}");
            if rng.random_bool(0.25) {
                let failed = failed_set(&mut rng);
                assert_eq!(
                    join.purge_tainted(&failed),
                    reference.purge_tainted(&failed),
                    "{what}"
                );
            }
            let input = rng.random_range(0usize..2);
            let rows = rng.random_range(0usize..200);
            let batch = random_batch(&mut rng, if input == 0 { &left } else { &right }, rows);
            let out = join.process_batch(input, &batch, &left_keys, &right_keys, node);
            let expected = reference.process_batch(input, &batch, &left_keys, &right_keys, node);
            assert_eq!(observable(&out), observable(&expected), "{what}");
            assert_eq!(join.len(), reference.len(), "{what}");
            joined += out.len();
        }
    }
    assert!(joined > 0, "the cases join nothing");
}

/// Random batches through every aggregate function in every mode —
/// retractions, mixed tags, purges and emissions in between — against
/// [`RowLoopAgg`].  A batch that retracts into a MIN or MAX must be
/// refused and leave the state as it was: the reference never sees it,
/// and the two must still agree.
#[test]
fn an_aggregate_folds_what_the_row_loop_folded() {
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0x0a66_b47c);
    let mut refused = 0;
    for case in 0..cases {
        let mode = [AggMode::Single, AggMode::Partial, AggMode::Final][case % 3];
        let partial = mode == AggMode::Final;
        let mut types: Vec<Cells> = (0..rng.random_range(0usize..3))
            .map(|_| any_kind(&mut rng))
            .collect();
        let group_by: Vec<usize> = (0..types.len()).collect();
        // Each aggregate's input follows the group columns: a raw value
        // of any kind, or in `Final` mode the aggregate's partial state.
        let mut aggs = Vec::new();
        for _ in 0..rng.random_range(1usize..4) {
            let func = FUNCS[rng.random_range(0usize..5)];
            aggs.push((func, types.len()));
            let number = [Cells::Int, Cells::Double, Cells::Number][rng.random_range(0usize..3)];
            match (partial, func) {
                (false, _) | (true, AggFunc::Min | AggFunc::Max) => types.push(any_kind(&mut rng)),
                (true, AggFunc::Count) => types.push(Cells::Int),
                (true, AggFunc::Sum) => types.push(number),
                (true, AggFunc::Avg) => types.extend([number, Cells::Int]),
            }
        }
        let min_max = aggs
            .iter()
            .any(|(f, _)| !Accumulator::new(*f).is_subtractable());
        let emit_partial = mode == AggMode::Partial;
        let node = NodeId(rng.random_range(0u16..8));
        let mut agg = AggState::new();
        let mut reference = RowLoopAgg::default();
        for i in 0..rng.random_range(2usize..7) {
            let what = format!("case {case} ({mode:?}, {aggs:?}), batch {i}");
            match rng.random_range(0u8..4) {
                0 => {
                    let failed = failed_set(&mut rng);
                    assert_eq!(
                        agg.purge_tainted(&failed),
                        reference.purge_tainted(&failed),
                        "{what}"
                    );
                }
                1 => assert_eq!(
                    observable(&agg.emit_unemitted(emit_partial, node, i as u32)),
                    observable(&reference.state.emit_unemitted(emit_partial, node, i as u32)),
                    "{what}"
                ),
                _ => {}
            }
            let rows = rng.random_range(0usize..200);
            let mut batch = random_batch(&mut rng, &types, rows);
            if min_max && rng.random_bool(0.5) {
                batch = assertions_only(&batch);
            }
            let folded = if partial {
                agg.update_partial_batch(&batch, &group_by, &aggs)
            } else {
                agg.update_raw_batch(&batch, &group_by, &aggs)
            };
            if min_max && batch.sign_column().iter().any(|s| *s < 0) {
                assert!(
                    matches!(folded, Err(OrchestraError::Execution(_))),
                    "{what}"
                );
                refused += 1;
                continue;
            }
            folded.unwrap();
            reference.update_batch(&batch, &group_by, &aggs, partial);
            assert_eq!(
                subgroup_count(&agg),
                subgroup_count(&reference.state),
                "{what}"
            );
        }
        let what = format!("case {case} ({mode:?}, {aggs:?})");
        assert_eq!(
            exact_rows(&agg.collapsed_final(&aggs)),
            exact_rows(&reference.state.collapsed_final(&aggs)),
            "{what}"
        );
        assert_eq!(
            observable(&agg.emit_unemitted(emit_partial, node, 9)),
            observable(&reference.state.emit_unemitted(emit_partial, node, 9)),
            "{what}"
        );
    }
    assert!(refused > 0, "no batch retracted into a MIN or MAX");
}

/// Keys at the edges of `Value` equality match exactly where the row
/// loop's `HashMap<Vec<Value>, _>` matched them — equal as `Value`s and
/// alike under `Value`'s `Hash` — in typed and in untyped columns, in
/// the join and among the aggregate's sub-groups.
#[test]
fn edge_keys_match_where_value_equality_and_hashing_agree() {
    let nan = |payload: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | payload));
    let pairs = [
        (Value::Int(2), Value::Double(2.0), true),
        (Value::Double(0.0), Value::Double(-0.0), false),
        (Value::Int(0), Value::Double(-0.0), false),
        (nan(1), nan(1), true),
        (nan(1), nan(2), false),
        (Value::Null, Value::Null, true),
        // Equal as `Value`s — `(2^53 + 1) as f64` is 2^53 — but hashed
        // apart: the integral double hashes as the `Int` 2^53.
        (
            Value::Int((1 << 53) + 1),
            Value::Double(9_007_199_254_740_992.0),
            false,
        ),
    ];
    // A one-row batch of `key` and a payload, tagged by `node`; untyped,
    // its key column holds `Value`s (a NULL row demoted it, then went).
    let batch = |key: &Value, node: u16, untyped: bool| {
        let mut b = ColumnarBatch::new(2);
        let provenance = NodeSet::singleton(NodeId(node));
        if untyped {
            b.push_row(&[Value::Null, Value::Null], 1, provenance, 0);
        }
        b.push_row(&[key.clone(), Value::Int(7)], 1, provenance, 0);
        if untyped {
            b.retain(&[false, true]);
            assert!(matches!(b.column(0).data(), ColumnData::Values(_)));
        }
        b
    };
    for (a, b, matched) in pairs {
        for untyped in [(false, false), (false, true), (true, true)] {
            let what = format!("{a:?} against {b:?}, untyped {untyped:?}");
            let mut join = JoinState::new();
            let left = batch(&a, 0, untyped.0);
            let right = batch(&b, 1, untyped.1);
            assert!(join
                .process_batch(0, &left, &[0], &[0], NodeId(9))
                .is_empty());
            let out = join.process_batch(1, &right, &[0], &[0], NodeId(9));
            assert_eq!(out.len(), usize::from(matched), "{what}");
            let mut agg = AggState::new();
            let count = [(AggFunc::Count, 1)];
            agg.update_raw_batch(&left, &[0], &count).unwrap();
            agg.update_raw_batch(&batch(&b, 0, untyped.1), &[0], &count)
                .unwrap();
            let groups = if matched { 1 } else { 2 };
            assert_eq!(subgroup_count(&agg), groups, "{what}");
        }
    }
}
