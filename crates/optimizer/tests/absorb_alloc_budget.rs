//! Absorbing a churn epoch into adaptive statistics costs per relation and
//! per column, not per row, pinned by counting allocations.
//!
//! `AdaptiveStats::absorb` gathers a delta's rows from the stored columnar
//! runs into one batch and folds it a column at a time: no row is built as
//! a `Tuple`, and the lists it sorts and hashes in are kept from one column
//! and relation to the next.  So absorbing a churn epoch of a fixed size
//! allocates the same number of times whether the relation it lands in is
//! small or large.  This binary installs a counting allocator (its own, so
//! no other test pays for it) to check that.

use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_optimizer::AdaptiveStats;
use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
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

fn row(k: i64, generation: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(format!("name-{k}-g{generation}")),
        Value::Int(k * 7 + generation),
        Value::Double(k as f64 / 4.0),
    ])
}

/// An eight-node, replication-3 store with keys `0..rows` of `R`
/// bulk-loaded, and that epoch.
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
            ("w", ColumnType::Double),
        ]),
    ));
    let mut bulk = UpdateBatch::new();
    bulk.insert_all("R", (0..rows).map(|k| row(k, 0)));
    let epoch = storage.publish(&bulk).expect("bulk load");
    (storage, epoch)
}

/// The churn epoch: 100 modifies, 100 deletes and 100 inserts, of the same
/// keys and values whatever the size of the relation, so the statistics
/// fold the same cells in the same order at either size.
fn churn() -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for k in 0..100 {
        batch.modify("R", row(k, 1));
        batch.delete("R", vec![Value::Int(1_000 + k)]);
        batch.insert("R", row(-1 - k, 1));
    }
    batch
}

/// The allocation calls of absorbing the churn epoch, published onto a
/// store of `rows` rows, into fresh statistics.  The delta is derived
/// first, as a publishing participant does before it absorbs.
fn absorb_allocations(rows: i64) -> u64 {
    let (mut storage, base) = store_of(rows);
    let epoch = storage.publish(&churn()).expect("churn epoch");
    storage.delta("R", base, epoch).expect("delta");
    let mut stats = AdaptiveStats::new();
    let (folded, allocs) = counting(|| stats.absorb(&storage, base, epoch));
    assert_eq!(folded.expect("absorb"), 100 * 2 + 100 + 100);
    allocs
}

/// What absorbing the churn epoch may allocate.  Folding a `Tuple` built
/// per signed row cost 516 allocations, one per row (its values) and the
/// summaries' own.  Gathered into one batch and folded a column at a time
/// it is 185 (measured on x86-64 Linux), most of them the summaries' maps
/// and the batch's columns growing as the gather appends each stretch of
/// rows it reads from one run; the bound leaves room for a standard
/// library whose maps allocate a little differently.
const ABSORB_BUDGET: u64 = 200;

#[test]
fn absorbing_a_churn_epoch_allocates_the_same_over_5k_or_40k_rows() {
    let small = absorb_allocations(5_000);
    let large = absorb_allocations(40_000);
    assert_eq!(
        small, large,
        "5k rows: {small} allocations, 40k rows: {large}"
    );
    assert!(small <= ABSORB_BUDGET, "{small} allocations");
}
