//! A scan emits by gathering columns; the row loops it replaced are the
//! reference.
//!
//! [`row_loop`] is `emit_scanned` / `emit_delta` as they ran over the
//! borrowed `&Tuple` rows a scan returned: the predicate evaluated on each
//! row, the survivors pushed one at a time into a batch as wide as the
//! widest row read.  [`walk`] is the storage half as it ran: every page
//! entry in range looked up through `lookup_tuple` and each row fetched
//! from a remote holder priced by `Tuple::serialized_size`.  Over random
//! relations — ragged rows, NULLs, `Int` and `Double` in one column,
//! strings, keys rewritten across several publications and twice in one —
//! and random predicates, every node's full, delta and replicated scan
//! under a healthy store, a failed owner and a foreign routing table must
//! read the same rows with the same counts and transfers, and
//! [`emit_rows`] must build what the row loop built: rows, order, arity,
//! column variants, tags and wire size.
//!
//! One difference is deliberate: the row loop indexed a short row past its
//! end when the predicate read a column the row lacks, which panicked.
//! The reference reads that cell as the NULL that pads the row in the
//! batch, which is what the gathered predicate columns hold.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

use super::scan::{emit_rows, Emit};
use crate::batch::wire_size;
use crate::expr::{CmpOp, Predicate};
use orchestra_common::rng::{seeded, StdRng};
use orchestra_common::{
    ColumnData, ColumnType, ColumnarBatch, Epoch, KeyRange, NodeId, NodeSet, PageEntry, Relation,
    Result, Schema, Tuple, Value,
};
use orchestra_storage::{
    DistributedStorage, PageDescriptor, StorageConfig, StorageView, StoredRow, UpdateBatch,
};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::cmp::Ordering;

/// The widest row a case publishes.
const WIDTH: usize = 5;

/// How a column's cells are drawn.
#[derive(Clone, Copy)]
enum Cells {
    Int,
    Double,
    Str,
    /// `Int` and `Double` in one column, some integral doubles among them.
    Number,
    /// Anything, NULL included.
    Any,
}

fn random_cell(rng: &mut StdRng, cells: Cells) -> Value {
    const WORDS: [&str; 4] = ["", "a", "bb", "ccc"];
    let int = |rng: &mut StdRng| Value::Int(rng.random_range(0..7u64) as i64 - 3);
    let double = |rng: &mut StdRng| Value::Double((rng.random_range(0..13u64) as f64 - 6.0) / 2.0);
    match cells {
        Cells::Int => int(rng),
        Cells::Double => double(rng),
        Cells::Str => Value::str(WORDS[rng.random_range(0..WORDS.len())]),
        Cells::Number if rng.random_bool(0.5) => int(rng),
        Cells::Number => double(rng),
        Cells::Any => match rng.random_range(0..4u8) {
            0 => Value::Null,
            1 => int(rng),
            2 => double(rng),
            _ => Value::str(WORDS[rng.random_range(0..WORDS.len())]),
        },
    }
}

/// A row keyed `k`: the key, then up to `WIDTH - 1` cells drawn by
/// `columns`, cut short at random now and then.
fn random_row(rng: &mut StdRng, k: i64, columns: &[Cells]) -> Tuple {
    let arity = if rng.random_bool(0.3) {
        rng.random_range(1..WIDTH + 1)
    } else {
        WIDTH
    };
    let mut values = vec![Value::Int(k)];
    values.extend((1..arity).map(|c| random_cell(rng, columns[c])));
    Tuple::new(values)
}

/// A store of a partitioned relation `R` (a bulk load, then epochs of
/// modifies, deletes, inserts and keys written twice) and a replicated
/// `N`, and the epochs published.
fn random_store(rng: &mut StdRng) -> (DistributedStorage, Vec<Epoch>) {
    let nodes: Vec<NodeId> = (0..rng.random_range(3..7u16)).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 3);
    let partitions_per_relation = rng.random_range(1..12u32);
    let mut s = DistributedStorage::new(
        routing,
        StorageConfig {
            partitions_per_relation,
        },
    );
    let schema = || {
        let names = ["k", "a", "b", "c", "d"];
        Schema::keyed_on_first(names.iter().map(|n| (*n, ColumnType::Int)).collect())
    };
    s.register_relation(Relation::partitioned("R", schema()));
    s.register_relation(Relation::replicated("N", schema()));
    let all = [
        Cells::Int,
        Cells::Double,
        Cells::Str,
        Cells::Number,
        Cells::Any,
    ];
    let columns: Vec<Cells> = (0..WIDTH)
        .map(|_| all[rng.random_range(0..all.len())])
        .collect();

    let rows = rng.random_range(20..300u64) as i64;
    let mut bulk = UpdateBatch::new();
    for k in 0..rows {
        bulk.insert("R", random_row(rng, k, &columns));
    }
    for k in 0..rng.random_range(1..12u64) as i64 {
        bulk.insert("N", random_row(rng, k, &columns));
    }
    let mut epochs = vec![s.publish(&bulk).unwrap()];
    let mut next = rows;
    for _ in 0..rng.random_range(1..4usize) {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.random_range(1..40usize) {
            let k = rng.random_range(0..next as u64) as i64;
            match rng.random_range(0..4u8) {
                0 => batch.delete("R", vec![Value::Int(k)]),
                1 => {
                    // The same key twice in one batch: one version.
                    batch.modify("R", random_row(rng, k, &columns));
                    batch.modify("R", random_row(rng, k, &columns))
                }
                2 => batch.insert("R", random_row(rng, next, &columns)),
                _ => batch.modify("R", random_row(rng, k, &columns)),
            };
            next += 1;
        }
        epochs.push(s.publish(&batch).unwrap());
    }
    (s, epochs)
}

/// A random predicate over the first `WIDTH + 1` columns — so now and
/// then past every row's end — at most `depth` levels deep.
fn random_predicate(rng: &mut StdRng, depth: usize) -> Predicate {
    let column = |rng: &mut StdRng| rng.random_range(0..WIDTH + 1);
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let constant = |rng: &mut StdRng| random_cell(rng, Cells::Any);
    match rng.random_range(0..if depth == 0 { 4 } else { 7u8 }) {
        0 => Predicate::True,
        1 => Predicate::Compare {
            column: column(rng),
            op: ops[rng.random_range(0..ops.len())],
            value: constant(rng),
        },
        2 => Predicate::CompareColumns {
            left: column(rng),
            op: ops[rng.random_range(0..ops.len())],
            right: column(rng),
        },
        3 => Predicate::Between {
            column: column(rng),
            low: constant(rng),
            high: constant(rng),
        },
        4 => Predicate::And((0..2).map(|_| random_predicate(rng, depth - 1)).collect()),
        5 => Predicate::Or((0..2).map(|_| random_predicate(rng, depth - 1)).collect()),
        _ => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
    }
}

/// The widest column `predicate` reads, plus one.
fn read_width(predicate: &Predicate) -> usize {
    match predicate {
        Predicate::True => 0,
        Predicate::Compare { column, .. } | Predicate::Between { column, .. } => column + 1,
        Predicate::CompareColumns { left, right, .. } => left.max(right) + 1,
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().map(read_width).max().unwrap_or(0),
        Predicate::Not(p) => read_width(p),
    }
}

/// Does `tuple` pass `predicate`, a cell it lacks read as NULL?
fn passes(predicate: &Predicate, tuple: &Tuple) -> bool {
    let width = read_width(predicate);
    if tuple.arity() >= width {
        return predicate.eval(tuple);
    }
    let mut padded = tuple.values().to_vec();
    padded.resize(width, Value::Null);
    predicate.eval(&Tuple::new(padded))
}

/// `emit_scanned` and `emit_delta` as they were: the predicate on each
/// borrowed row, the survivors pushed one by one, padded to the widest
/// row read.
fn row_loop(signed: &[(&Tuple, i8)], predicate: &Option<Predicate>, emit: Emit) -> ColumnarBatch {
    let arity = signed.iter().map(|(t, _)| t.arity()).max().unwrap_or(0);
    let provenance = NodeSet::singleton(emit.node);
    let mut batch = ColumnarBatch::new(arity);
    for (t, sign) in signed {
        if predicate.as_ref().is_none_or(|p| passes(p, t)) {
            batch.push_row_padded(t.values(), *sign, provenance, emit.phase);
        }
    }
    batch
}

/// A cell as exactly as a reader can tell it apart: its type, and a
/// double's bits.
fn exact(v: &Value) -> String {
    match v {
        Value::Double(x) => format!("Double({:#x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

type Observed = (
    Vec<(Vec<String>, i8, NodeSet, u32)>,
    usize,
    Vec<&'static str>,
    [usize; 2],
);

/// Everything a reader sees of a batch: each row's cells, exactly, and
/// tags, in order; its arity; each column's storage variant; and its wire
/// size with and without tags.
fn observable(batch: &ColumnarBatch) -> Observed {
    let rows = (0..batch.len())
        .map(|r| {
            let cells = (0..batch.arity()).map(|c| exact(&batch.value_at(r, c)));
            let tags = (batch.sign_at(r), batch.provenance_at(r), batch.phase_at(r));
            (cells.collect(), tags.0, tags.1, tags.2)
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
    let wire = [wire_size(batch, false), wire_size(batch, true)];
    (rows, batch.arity(), variants, wire)
}

/// What a scan read: its rows, signed, and its counts — pages, rows and
/// remote rows read — and remote transfers.
type Read<'a> = (Vec<(StoredRow<'a>, i8)>, [usize; 3], Vec<(NodeId, usize)>);

/// The storage half of a scan as it ran: every entry of `entries` in
/// `ranges` looked up through `lookup_tuple` on behalf of `node`, a
/// remote one priced as the row it is, after reading `pages` pages.
fn walk<'a>(
    view: StorageView<'a>,
    relation: &str,
    entries: Vec<(&'a PageEntry, i8)>,
    pages: usize,
    node: NodeId,
    ranges: &[KeyRange],
) -> Result<Read<'a>> {
    let (mut rows, mut remote, mut transfers) = (Vec::new(), 0, Vec::<(NodeId, usize)>::new());
    for (entry, sign) in entries {
        if !ranges.iter().any(|r| r.contains(entry.position)) {
            continue;
        }
        let (row, from) = view.lookup_tuple(relation, entry, Some(node))?;
        if let Some(src) = from {
            remote += 1;
            let bytes = row.tuple().serialized_size();
            match transfers.iter_mut().find(|(n, _)| *n == src) {
                Some((_, b)) => *b += bytes,
                None => transfers.push((src, bytes)),
            }
        }
        rows.push((row, sign));
    }
    let read = [pages, rows.len(), remote];
    Ok((rows, read, transfers))
}

/// The pages of `relation` visible at `epoch`, by partition.
fn pages_at<'a>(
    view: StorageView<'a>,
    relation: &str,
    epoch: Epoch,
) -> Result<&'a [PageDescriptor]> {
    Ok(view
        .version_record(relation, epoch)?
        .map_or(&[][..], |version| &version.pages[..]))
}

/// A full scan as it ran: the pages overlapping `ranges`, in order, and
/// their entries in order.
fn walk_scan<'a>(
    view: StorageView<'a>,
    relation: &str,
    epoch: Epoch,
    node: NodeId,
    ranges: &[KeyRange],
) -> Result<Read<'a>> {
    let (mut entries, mut pages) = (Vec::new(), 0);
    for descriptor in pages_at(view, relation, epoch)? {
        if ranges.iter().any(|r| r.overlaps(&descriptor.range)) {
            pages += 1;
            let page = view.lookup_index_page(descriptor)?;
            entries.extend(page.entries.iter().map(|e| (e, 1)));
        }
    }
    walk(view, relation, entries, pages, node, ranges)
}

/// A delta scan as it ran: per partition whose page differs between the
/// two epochs, the entries only the old page lists (`-1`), then those
/// only the new one does (`+1`), both pages counted as read.
fn walk_delta<'a>(
    view: StorageView<'a>,
    relation: &str,
    (from, to): (Epoch, Epoch),
    node: NodeId,
    ranges: &[KeyRange],
) -> Result<Read<'a>> {
    let (old, new) = (
        pages_at(view, relation, from)?,
        pages_at(view, relation, to)?,
    );
    let (mut entries, mut pages) = (Vec::new(), 0);
    let (mut o, mut n) = (0, 0);
    while o < old.len() || n < new.len() {
        let order = match (old.get(o), new.get(n)) {
            (Some(a), Some(b)) => a.id.partition.cmp(&b.id.partition),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        let before = (order != Ordering::Greater).then(|| &old[o]);
        let after = (order != Ordering::Less).then(|| &new[n]);
        o += usize::from(before.is_some());
        n += usize::from(after.is_some());
        if before.map(|d| &d.id) == after.map(|d| &d.id) {
            continue;
        }
        pages += usize::from(before.is_some()) + usize::from(after.is_some());
        let listed = |d: Option<&PageDescriptor>| -> Result<Vec<&'a PageEntry>> {
            Ok(match d {
                Some(d) => view.lookup_index_page(d)?.entries.iter().collect(),
                None => Vec::new(),
            })
        };
        let (before, after) = (listed(before)?, listed(after)?);
        let only = |ours: &[&'a PageEntry], theirs: &[&'a PageEntry]| {
            let mut t = theirs.iter().copied().peekable();
            let mut mine = Vec::new();
            for &entry in ours {
                while t.next_if(|e| e.id < entry.id).is_some() {}
                match t.peek() {
                    Some(e) if e.id == entry.id => {
                        t.next();
                    }
                    _ => mine.push(entry),
                }
            }
            mine
        };
        entries.extend(only(&before, &after).into_iter().map(|e| (e, -1)));
        entries.extend(only(&after, &before).into_iter().map(|e| (e, 1)));
    }
    walk(view, relation, entries, pages, node, ranges)
}

/// Everything one scan shows a reader, or its error.
type Outcome = std::result::Result<(Observed, [usize; 3], Vec<(NodeId, usize)>), String>;

/// Emit what a scan read both ways — [`emit_rows`] over the stored rows,
/// [`row_loop`] over the rows built from them — and check they agree.
fn emitted(read: Result<Read<'_>>, predicate: &Option<Predicate>, emit: Emit) -> [Outcome; 2] {
    let read = match read {
        Ok(read) => read,
        Err(e) => return [Err(e.to_string()), Err(e.to_string())],
    };
    let (rows, counts, transfers) = read;
    let tuples: Vec<(Tuple, i8)> = rows
        .iter()
        .map(|(row, sign)| (row.tuple(), *sign))
        .collect();
    let borrowed: Vec<(&Tuple, i8)> = tuples.iter().map(|(t, sign)| (t, *sign)).collect();
    let gathered = emit_rows(rows.iter().copied(), predicate, emit);
    let looped = row_loop(&borrowed, predicate, emit);
    [
        Ok((observable(&gathered), counts, transfers.clone())),
        Ok((observable(&looped), counts, transfers)),
    ]
}

#[test]
fn a_scan_emits_by_gather_what_the_row_loops_emitted() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0x5ca7_6a7e);
    let mut remote = 0;
    for case in 0..cases {
        let (store, epochs) = random_store(&mut rng);
        let members = store.routing().nodes();
        let failed = NodeSet::singleton(members[rng.random_range(0..members.len())]);
        let mut grown = members.clone();
        grown.extend((0..2).map(|i| NodeId(members.len() as u16 + i)));
        let foreign = RoutingTable::build(&grown, AllocationScheme::Balanced, 3);
        let views = [
            ("healthy", store.view(), members.clone()),
            (
                "failed owner",
                store.view().with_failed(failed),
                members.clone(),
            ),
            (
                "foreign table",
                store.view().with_routing(&foreign),
                grown.clone(),
            ),
        ];
        for (how, view, readers) in views {
            for node in readers
                .into_iter()
                .filter(|n| !failed.contains(*n) || how != "failed owner")
            {
                let ranges = view.routing().ranges_of(node);
                let predicate = rng.random_bool(0.7).then(|| random_predicate(&mut rng, 2));
                let emit = Emit {
                    node,
                    phase: rng.random_range(0..3u32),
                };
                let epoch = epochs[rng.random_range(0..epochs.len())];
                let a = epochs[rng.random_range(0..epochs.len())];
                let b = epochs[rng.random_range(0..epochs.len())];
                let interval = (a.min(b), a.max(b));
                let what = format!("case {case}, {how}, {node}, {predicate:?}");

                let scan = view.scan_partition_ref("R", epoch, node, &ranges);
                let mine = scan.map(|scan| {
                    let counts = [scan.pages_read, scan.tuples_read, scan.remote_lookups];
                    let rows = scan.tuples.iter().map(|row| (*row, 1)).collect::<Vec<_>>();
                    (rows, counts, scan.remote_transfers)
                });
                let theirs = walk_scan(view, "R", epoch, node, &ranges);
                assert_reads_alike(&mine, &theirs, &what, "scan");
                remote += mine.as_ref().map_or(0, |m| m.1[2]);
                let [gathered, looped] = emitted(mine, &predicate, emit);
                assert_eq!(gathered, looped, "{what}: scan at {epoch}");

                let delta = view.delta_partition_ref("R", interval.0, interval.1, node, &ranges);
                let mine = delta.map(|scan| {
                    let counts = [scan.pages_read, scan.tuples_read, scan.remote_lookups];
                    (scan.tuples, counts, scan.remote_transfers)
                });
                let theirs = walk_delta(view, "R", interval, node, &ranges);
                assert_reads_alike(&mine, &theirs, &what, "delta");
                let [gathered, looped] = emitted(mine, &predicate, emit);
                assert_eq!(gathered, looped, "{what}: delta {interval:?}");

                let replicated = view.scan_replicated("N", epoch, node).map(|rows| {
                    let rows: Vec<_> = rows.into_iter().map(|row| (row, 1)).collect();
                    (rows, [0; 3], Vec::new())
                });
                let [gathered, looped] = emitted(replicated, &predicate, emit);
                assert_eq!(gathered, looped, "{what}: replicated at {epoch}");
            }
        }
    }
    assert!(remote > 0, "no scan read a remote row");
}

/// The store's read and the reference walk's: the same rows, the same
/// counts and the same transfers, or the same error.
fn assert_reads_alike<'a>(
    mine: &Result<Read<'a>>,
    theirs: &Result<Read<'a>>,
    what: &str,
    kind: &str,
) {
    fn seen<'a>(read: &Result<Read<'a>>) -> std::result::Result<Read<'a>, String> {
        read.clone().map_err(|e| e.to_string())
    }
    assert_eq!(seen(mine), seen(theirs), "{what}: {kind}");
}
