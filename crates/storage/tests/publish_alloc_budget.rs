//! Publishing an epoch costs what the epoch changed, and a scan what it
//! returns, pinned by counting allocations.
//!
//! A new page version keeps the windows of entries it does not touch by
//! reference and carries the entries of those it does forward with their
//! keys shared by pointer (a tuple ID's key is an `Arc<[Value]>`), replica
//! sets are looked up, not walked, a delta finds each node's tuples of the
//! relation once, and a record, a page version and a tuple version are
//! each stored once, in the run of their relation's log that published
//! them, with a bit at each holder.  So a churn epoch of a fixed size
//! allocates the same number of times whether the relation it lands in is
//! small or large, and as many bytes but about a window reference per
//! `LEAF` rows, a partition scan allocates its result and nothing else, a
//! repair compares holders a word of bits at a time and allocates nothing
//! per item already in place, and publishing to a store whose clone is
//! alive copies run pointers and holder bits but no item and no position.
//! This binary installs a counting allocator (its own, so no other test
//! pays for it) to check that, and checks the sharing itself with
//! `Arc::ptr_eq`.

use orchestra_common::tuple::hash_values;
use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_storage::page::{partition_of, LEAF};
use orchestra_storage::{
    anti_entropy, DistributedStorage, Kind, ReplicationReport, StorageConfig, UpdateBatch,
};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// `System`, counting the calling thread's allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`, as the host benchmark's
/// `harness.allocs_per_op` does) and the bytes they ask for (a
/// `realloc`'s new size).  Per thread, because the tests of one binary run
/// side by side.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread that is shutting down may still free and
    // allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Run `work` and return its result with the number of bytes this thread
/// asked the allocator for meanwhile.
fn counting_bytes<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = work();
    (out, BYTES.with(Cell::get) - before)
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
/// entries.  With pages and records bits over logs of their own too it was
/// 1,459 (1,429 measured).  With a page's entries windows, the touched ones
/// in a buffer of the version's own, and the lists a run merges with
/// allocated once for all its pages, it was 1,373, while a delta fetched
/// a `Tuple` for every changed row and paired modifies by key.  A delta
/// is its page diff and counts its rows without reading one, so it is 814:
/// counting a delta builds no `Tuple`.
const CHURN_EPOCH_BUDGET: u64 = 814;

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

/// The allocation calls of publishing a first batch of `rows` rows —
/// (`Int` key, `Int`, a `Str` drawn from three values) — onto an empty
/// eight-node store.
fn bulk_allocations(rows: i64) -> u64 {
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 3);
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("v", ColumnType::Int),
            ("flag", ColumnType::Str),
        ]),
    ));
    let flags = ["A", "N", "R"].map(Value::str);
    let mut bulk = UpdateBatch::new();
    bulk.insert_all(
        "R",
        (0..rows).map(|k| {
            Tuple::new(vec![
                Value::Int(k),
                Value::Int(k * 7),
                flags[k as usize % 3].clone(),
            ])
        }),
    );
    let (published, allocs) = counting(|| storage.publish(&bulk));
    published.expect("bulk load");
    allocs
}

#[test]
fn a_publication_allocates_per_run_not_per_row() {
    // The bodies a publication stores are one run of columns, whose
    // strings are copied once each: the only allocation a row costs is
    // its page entry's key (a tuple ID holds its key in an `Arc` of its
    // own, which every later version of the page shares).  Storing each
    // body as a row of its own, with its own copy of its string, cost
    // three a row.
    let small = bulk_allocations(5_000);
    let large = bulk_allocations(40_000);
    let keys = 40_000 - 5_000;
    assert!(
        large - small <= keys + 64,
        "5k rows: {small} allocations, 40k rows: {large}"
    );
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

/// The allocation calls of a repair that finds everything in place: the
/// second `anti_entropy` pass over a store of `rows` rows after a ninth
/// node joined (the first pass copied its share to it).
fn repair_allocations_with_nothing_to_copy(rows: i64) -> u64 {
    let (mut storage, _) = store_of(rows);
    let nodes: Vec<NodeId> = (0..9).map(NodeId).collect();
    storage.set_routing(RoutingTable::build(&nodes, AllocationScheme::Balanced, 3));
    let first = anti_entropy(&mut storage).expect("first pass");
    assert!(first.tuples_copied as i64 > rows / 16, "{first:?}");
    let (second, allocs) = counting(|| anti_entropy(&mut storage));
    assert_eq!(second.expect("second pass"), ReplicationReport::default());
    allocs
}

#[test]
fn a_repair_with_nothing_to_copy_allocates_the_same_over_5k_or_40k_rows() {
    // The pass resolves each arc's replicas once and each run's arcs
    // once, then compares words of bits: what it allocates depends on the
    // routing table and the number of runs, not on the items they hold.
    let small = repair_allocations_with_nothing_to_copy(5_000);
    let large = repair_allocations_with_nothing_to_copy(40_000);
    assert_eq!(
        small, large,
        "5k rows: {small} allocations, 40k rows: {large}"
    );
}

/// The bytes publishing ten modifies to a store of `rows` rows allocates
/// while a clone of the store is alive, and the number of slots of every
/// kind the store held before.  The ten keys share one index page, so the
/// rewritten page is the only item whose size grows with the relation.
fn publish_to_a_shared_store_bytes(rows: i64) -> (u64, usize) {
    let (mut storage, _) = store_of(rows);
    let log = storage.log("R").expect("published");
    let slots = Kind::ALL.map(|kind| log.len(kind)).iter().sum();
    let partition = |k: i64| partition_of(hash_values(row(k, 2).key(1)), 64);
    let mut batch = UpdateBatch::new();
    for k in (0..).filter(|k| partition(*k) == partition(0)).take(10) {
        batch.modify("R", row(k, 2));
    }
    let clone = storage.clone();
    let (published, bytes) = counting_bytes(|| storage.publish(&batch));
    published.expect("publish to a shared store");
    assert_eq!(
        clone.latest_epoch(),
        Some(Epoch(1)),
        "the clone kept its own"
    );
    (bytes, slots)
}

#[test]
fn publishing_to_a_store_whose_clone_is_alive_copies_no_position() {
    // The publication unshares the relation's log: it copies the run
    // pointers and every holder's bits, about an eighth of a byte a slot
    // at each of the eight nodes, and grows each holder's bits once.  A
    // log that kept positions flat beside its runs copied a 20-byte
    // position a slot besides.
    let (small, small_slots) = publish_to_a_shared_store_bytes(5_000);
    let (large, large_slots) = publish_to_a_shared_store_bytes(40_000);
    let added = (large_slots - small_slots) as u64;
    assert!(
        large.saturating_sub(small) < 12 * added,
        "5k rows: {small} bytes, 40k rows: {large} bytes, {added} slots added"
    );
}

/// The bytes publishing the churn epoch onto a store of `rows` rows and
/// deriving its deltas ask the allocator for.
fn churn_epoch_bytes(rows: i64) -> u64 {
    let (mut storage, base) = store_of(rows);
    let batch = churn();
    let ((), bytes) = counting_bytes(|| {
        let epoch = storage.publish(&batch).expect("churn epoch");
        for relation in storage.changed_relations(base, epoch) {
            storage.delta(&relation, base, epoch).expect("delta");
        }
    });
    bytes
}

/// What a page version pays for each window it lists: its buffer's
/// pointer and length and the window's two offsets.
const WINDOW_REFERENCE_BYTES: u64 = 24;

#[test]
fn a_churn_epoch_allocates_bytes_for_its_changes_and_a_window_reference_per_leaf() {
    // The epoch rewrites 63 of the 64 pages.  A rewritten page keeps every
    // window the epoch does not touch by reference, so the 40k store's
    // pages cost it about one window reference per `LEAF` rows more than
    // the 5k store's, and its eight holders one bit per slot more for the
    // bits they grow.  Twice the references are allowed, for the windows
    // publication leaves short.  Copying every entry a page carries
    // forward, as a flat entry list does, asked for about 2.0 MB more
    // (35,000 entries of 56 bytes); the windows ask for about 0.14 MB
    // more.
    let small = churn_epoch_bytes(5_000);
    let large = churn_epoch_bytes(40_000);
    let rows = 40_000 - 5_000;
    let windows = 2 * rows / LEAF as u64 * WINDOW_REFERENCE_BYTES;
    let holder_bits = 8 * rows / 8;
    assert!(
        large.saturating_sub(small) <= windows + holder_bits,
        "5k rows: {small} bytes, 40k rows: {large} bytes"
    );
}
