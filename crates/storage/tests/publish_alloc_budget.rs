//! Publishing an epoch costs what the epoch changed, and a scan what it
//! returns, pinned by counting allocations.
//!
//! A new page version carries its surviving entries forward by pointer
//! (a tuple ID's key is an `Arc<[Value]>`), replica sets are looked up,
//! not walked, a delta finds each node's tuples of the relation once, and
//! a record, a page version and a tuple version are each stored once, in
//! their relation's logs, with a bit at each holder.  So a churn epoch of
//! a fixed size allocates the same whether the relation it lands in is
//! small or large, and a partition scan allocates its result and nothing
//! else.  This binary installs a
//! counting allocator (its own, so no other test pays for it) to check
//! that, and checks the sharing itself with `Arc::ptr_eq`.

use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

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

fn row(k: i64, generation: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(format!("name-{k}-g{generation}")),
        Value::Int(k * 7 + generation),
    ])
}

/// An eight-node, replication-3 store holding `rows` rows of `R`: keys
/// `0..rows` bulk-loaded, then keys `2_000..2_100` deleted in a second
/// epoch, which is returned.
fn store_of(rows: i64) -> (DistributedStorage, Epoch) {
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 3);
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("name", ColumnType::Str),
            ("v", ColumnType::Int),
        ]),
    ));
    let mut bulk = UpdateBatch::new();
    bulk.insert_all("R", (0..rows).map(|k| row(k, 0)));
    storage.publish(&bulk).expect("bulk load");
    let mut deletes = UpdateBatch::new();
    for k in 2_000..2_100 {
        deletes.delete("R", vec![Value::Int(k)]);
    }
    let epoch = storage.publish(&deletes).expect("deletes");
    (storage, epoch)
}

/// The churn epoch: 100 modifies, 100 deletes and 100 inserts, the same
/// keys whatever the size of the relation (the inserts bring back the
/// keys the store's last epoch deleted).  Its 200 new versions need new
/// words of every holder's bits at either size, and a holder's bits grow
/// once per publication: one reallocation per holder, at 5k as at 40k.
fn churn() -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for k in 0..100 {
        batch.modify("R", row(k, 1));
        batch.delete("R", vec![Value::Int(1_000 + k)]);
        batch.insert("R", row(2_000 + k, 1));
    }
    batch
}

/// Publish the churn epoch onto a store of `rows` rows and follow it the
/// way a publishing participant does: which relations changed, and their
/// deltas.  Returns the allocation calls made.
fn churn_epoch_allocations(rows: i64) -> u64 {
    let (mut storage, base) = store_of(rows);
    let batch = churn();
    let ((), allocs) = counting(|| {
        let epoch = storage.publish(&batch).expect("churn epoch");
        for relation in storage.changed_relations(base, epoch) {
            let delta = storage.delta(&relation, base, epoch).expect("delta");
            assert_eq!(delta.signed_row_count(), 100 * 2 + 100 + 100);
        }
    });
    allocs
}

/// What the churn epoch and its deltas may allocate.  It was 2,288 while
/// each holder kept a position map of `Arc`s: a version cost an `Arc`
/// and a key copy for the stores beside its body, and its position a
/// list insert at every holder.  As a bit per holder over the relation's
/// log it was 1,842, while every holder of every rewritten page still
/// cloned its `PageId` twice, for a map of pages and a map of inverse
/// entries.  With pages and records bits over logs of their own too it is
/// 1,459.
const CHURN_EPOCH_BUDGET: u64 = 1_459;

#[test]
fn a_churn_epoch_allocates_the_same_over_5k_or_40k_rows() {
    let small = churn_epoch_allocations(5_000);
    let large = churn_epoch_allocations(40_000);
    // Copying the key of every entry a rewritten page carries forward
    // would add about one allocation per row of the relation here (the
    // epoch touches almost every page): 35,000 more for the large store.
    assert_eq!(
        small, large,
        "5k rows: {small} allocations, 40k rows: {large}"
    );
    assert!(small <= CHURN_EPOCH_BUDGET, "{small} allocations");
}

/// The allocation calls of `scan_partition_ref` by node 0 over the ranges
/// it owns in a store of `rows` rows, less those its result `Vec` makes
/// growing to the rows returned.
fn scan_allocations_beyond_the_result(rows: i64) -> u64 {
    let (storage, epoch) = store_of(rows);
    let (view, node) = (storage.view(), NodeId(0));
    let ranges = storage.routing().ranges_of(node);
    let (scan, allocs) = counting(|| view.scan_partition_ref("R", epoch, node, &ranges));
    let scan = scan.expect("scan");
    assert_eq!(scan.remote_lookups, 0);
    assert!(
        scan.tuples.len() as i64 > rows / 16,
        "{} rows",
        scan.tuples.len()
    );
    let (grown, result) = counting(|| {
        let mut grown = Vec::new();
        for tuple in &scan.tuples {
            grown.push(std::hint::black_box(*tuple));
        }
        grown
    });
    assert_eq!(grown.len(), scan.tuples.len());
    allocs - result
}

#[test]
fn a_scan_allocates_the_same_over_5k_or_40k_rows() {
    // A page entry is resolved by a bit test and an index: a store of 40k
    // rows costs the scan no more allocations than one of 5k.  The record
    // is found by its index in the relation's record log, not by a key
    // built to look it up, so besides its result the scan allocates
    // nothing.
    let small = scan_allocations_beyond_the_result(5_000);
    let large = scan_allocations_beyond_the_result(40_000);
    assert_eq!((small, large), (0, 0));
}

#[test]
fn a_new_page_version_shares_every_key_it_carries_forward() {
    let (mut storage, base) = store_of(5_000);
    let epoch = storage.publish(&churn()).expect("churn epoch");
    let page_of = |epoch: Epoch| {
        let view = storage.view();
        let version = view.version_record("R", epoch).unwrap().unwrap();
        version
            .pages
            .iter()
            .map(|d| Arc::clone(view.lookup_index_page(d).unwrap()))
            .collect::<Vec<_>>()
    };
    let (before, after) = (page_of(base), page_of(epoch));
    assert_eq!(before.len(), after.len());
    let (mut rewritten, mut listed, mut carried) = (0, 0, 0);
    for (old, new) in before.iter().zip(&after) {
        assert_eq!(old.id.partition, new.id.partition);
        if Arc::ptr_eq(old, new) {
            continue;
        }
        rewritten += 1;
        listed += old.len();
        let keys: HashMap<_, _> = old.entries.iter().map(|e| (&e.id, &e.id.key)).collect();
        for entry in &new.entries {
            if let Some(old_key) = keys.get(&entry.id) {
                assert!(Arc::ptr_eq(old_key, &entry.id.key), "{}", entry.id);
                carried += 1;
            } else {
                assert_eq!(entry.id.epoch, epoch, "{} is new or carried", entry.id);
            }
        }
    }
    // Everything the rewritten pages listed but the 100 modified and the
    // 100 deleted versions was carried forward.
    assert!(rewritten > 32, "the epoch rewrote {rewritten} pages");
    assert_eq!(carried, listed - 200);
}
