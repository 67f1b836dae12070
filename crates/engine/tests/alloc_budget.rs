//! Sharing is pinned by counting allocations, not hoped for.
//!
//! A string is allocated once, where it is generated or computed, and a
//! row once, where it leaves a batch; from there the store, the scan, the
//! answer, the result cache and every cache hit hand the same allocations
//! on.  This binary installs a counting allocator (its own, so no other
//! test pays for it) and puts a number on each seam: what a cache hit, a
//! `Tuple::clone`, a `tuple_at` and a scan may allocate.

use orchestra_common::{
    ColumnType, ColumnarBatch, Epoch, NodeId, NodeSet, QueryFingerprint, Relation, Schema, Tuple,
    Value,
};
use orchestra_engine::ops::{AggState, JoinState};
use orchestra_engine::{
    AggFunc, EngineConfig, EvictionPolicy, PlanBuilder, QueryExecutor, ResultCache, ScalarExpr,
};
use orchestra_storage::{gather, DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the calling thread's allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`, as the host benchmark's
/// `harness.allocs_per_op` does).  Per thread, because the tests of one
/// binary run side by side.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is shutting down may still free and
    // allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `work` and return its result with the number of allocation calls
/// this thread made meanwhile.
fn counting<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (out, ALLOCS.with(Cell::get) - before)
}

const ROWS: usize = 1_000;

/// `ROWS` rows of a key and two strings, every string distinct.
fn string_rows() -> Vec<Tuple> {
    (0..ROWS)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::str(format!("name-{i:05}")),
                Value::str(format!("a comment of some length about row {i}")),
            ])
        })
        .collect()
}

#[test]
fn a_clone_of_a_value_or_a_tuple_allocates_nothing() {
    let rows = string_rows();
    let (copies, allocs) = counting(|| {
        let value = rows[7].value(2).clone();
        let tuple = rows[7].clone();
        (value, tuple)
    });
    assert_eq!(allocs, 0);
    assert_eq!(copies.1, rows[7]);
    // A `Vec` of clones is the `Vec`.
    let (copy, allocs) = counting(|| rows.clone());
    assert_eq!(allocs, 1);
    assert_eq!(copy, rows);
}

#[test]
fn a_cache_hit_allocates_two_vectors_whatever_the_answer_holds() {
    let rows = string_rows();
    let signed: Vec<(Tuple, i8)> = rows.iter().map(|t| (t.clone(), 1)).collect();
    let mut cache = ResultCache::new(4, EvictionPolicy::Lru);
    let key = QueryFingerprint::of_bytes(b"q");
    // The fill moves the rows in.
    let ((), allocs) = counting(|| cache.insert(key, Epoch(3), rows.clone(), signed, 10));
    assert!(allocs <= 4, "fill allocated {allocs} times");
    let (hit, allocs) = counting(|| cache.lookup(key, Epoch(3)));
    let hit = hit.expect("resident");
    assert_eq!(allocs, 2, "rows and signed_rows, and nothing per row");
    assert_eq!(hit.rows, rows);
    assert_eq!(hit.signed_rows.len(), ROWS);
}

#[test]
fn a_row_leaves_a_batch_in_one_allocation() {
    let rows = string_rows();
    let strings_only: Vec<Tuple> = rows.iter().map(|t| t.project(&[1, 2, 1])).collect();
    let batch = ColumnarBatch::from_tuples(3, &strings_only, 1, NodeSet::default(), 0);
    for row in [0, ROWS / 2, ROWS - 1] {
        let (tuple, allocs) = counting(|| batch.tuple_at(row));
        assert_eq!(allocs, 1, "the row's shared slice, and no string");
        assert_eq!(tuple, strings_only[row]);
    }
    // Projection and concatenation build their row the same way.
    let (projected, allocs) = counting(|| rows[3].project(&[2, 0]));
    assert_eq!(allocs, 1);
    assert_eq!(projected.arity(), 2);
    let (joined, allocs) = counting(|| rows[3].concat(&rows[4]));
    assert_eq!(allocs, 1);
    assert_eq!(joined.arity(), 6);
}

/// A four-node store holding `rows` as relation `r` (keyed on the first
/// column), and the epoch that published them.
fn store_of(rows: &[Tuple]) -> (DistributedStorage, Epoch) {
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 2);
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "r",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("name", ColumnType::Str),
            ("comment", ColumnType::Str),
        ]),
    ));
    let mut batch = UpdateBatch::new();
    for t in rows {
        batch.insert("r", t.clone());
    }
    let epoch = storage.publish(&batch).expect("publish");
    (storage, epoch)
}

#[test]
fn scanning_a_stored_relation_allocates_no_string() {
    let (storage, epoch) = store_of(&string_rows());
    // Every node scans the ranges it owns, as a distributed scan does,
    // and columnarizes what it finds.
    let mut scanned = 0;
    for node in storage.routing().nodes() {
        let ranges = storage.routing().ranges_of(node);
        let (scan, allocs) = counting(|| {
            storage
                .view()
                .scan_partition_ref("r", epoch, node, &ranges)
                .expect("scan")
        });
        assert_eq!(scan.remote_lookups, 0);
        let rows = scan.tuples.len();
        // The scan borrows: page lookups and the growing list of
        // references, nothing per row.
        assert!(
            allocs < rows as u64 / 2,
            "{allocs} allocations to find {rows} rows"
        );
        let (batch, allocs) = counting(|| {
            gather(
                scan.tuples.iter().map(|t| (*t, 1)),
                &[0, 1, 2],
                NodeSet::default(),
                0,
            )
        });
        // Two distinct strings a row entered the batch's pool; what was
        // allocated is the growth of six vectors and of the pool's index
        // (copying the strings would be `2 * rows` on top).
        assert_eq!(batch.pool().len(), 2 * rows);
        assert!(
            allocs < rows as u64 / 2,
            "{allocs} allocations to columnarize {rows} rows"
        );
        scanned += rows;
    }
    assert_eq!(scanned, ROWS);
}

#[test]
fn an_executed_answer_allocates_by_the_row_not_by_the_string() {
    let (storage, epoch) = store_of(&string_rows());
    let mut b = PlanBuilder::new();
    let scan = b.scan("r", 3, None);
    let ship = b.ship(scan);
    let copy = b.output(ship);
    let mut b = PlanBuilder::new();
    let scan = b.scan("r", 3, None);
    let glued = b.compute(
        scan,
        vec![
            ScalarExpr::col(0),
            ScalarExpr::Concat(vec![
                ScalarExpr::col(1),
                ScalarExpr::lit("/"),
                ScalarExpr::col(0),
                ScalarExpr::col(2),
            ]),
        ],
    );
    let ship = b.ship(glued);
    let concat = b.output(ship);
    let executor = QueryExecutor::new(&storage, EngineConfig::default());

    // Copying 1,000 rows of two strings each to the initiator: a row is
    // allocated when it leaves the output batch and nothing else is per
    // row (1,774 when this was written; a second allocation per row, or
    // a copy of each string at the scan or at the report, is over).
    let (report, allocs) = counting(|| executor.execute(&copy, epoch, NodeId(0)).expect("copy"));
    assert_eq!(report.rows.len(), ROWS);
    assert!(
        allocs < 5 * ROWS as u64 / 2,
        "{allocs} allocations to copy {ROWS} rows"
    );

    // Gluing four parts into one string per row: the string and the row
    // (2,839 when this was written), not a temporary per part — which
    // alone would be 4,000 more.
    let (report, allocs) =
        counting(|| executor.execute(&concat, epoch, NodeId(0)).expect("concat"));
    assert_eq!(report.rows.len(), ROWS);
    assert_eq!(
        report.rows[5].value(1),
        &Value::str("name-00005/5a comment of some length about row 5")
    );
    assert!(
        allocs < 7 * ROWS as u64 / 2,
        "{allocs} allocations to concatenate {ROWS} rows"
    );
}

/// `ROWS` rows of an integer join key (100 distinct) and an integer
/// payload, scanned at `node`.
fn keyed_rows(node: u16) -> ColumnarBatch {
    let mut batch = ColumnarBatch::new(2);
    for i in 0..ROWS as i64 {
        batch.push_row(
            &[Value::Int(i % 100), Value::Int(i * 7)],
            1,
            NodeSet::singleton(NodeId(node)),
            0,
        );
    }
    batch
}

#[test]
fn a_join_and_a_grouped_sum_allocate_by_the_batch_not_by_the_row() {
    let (left, right) = (keyed_rows(0), keyed_rows(1));
    let mut join = JoinState::new();
    let mut agg = AggState::new();
    // Two 1,000-row batches joined on the key (10,000 output rows), then
    // the output summed by key (100 groups): 342 allocations when this
    // was written, 3,238 with the row loops it replaced — a key `Vec` per
    // row of both batches alone would be 2,000 more.
    let (joined, allocs) = counting(|| {
        join.process_batch(0, &left, &[0], &[0], NodeId(2));
        let joined = join.process_batch(1, &right, &[0], &[0], NodeId(2));
        agg.update_raw_batch(&joined, &[0], &[(AggFunc::Sum, 3)])
            .expect("no retraction");
        joined
    });
    assert_eq!(joined.len(), 10 * ROWS);
    assert_eq!(agg.subgroup_count(), 100);
    assert!(allocs < 1_000, "{allocs} allocations to join and aggregate");
}
