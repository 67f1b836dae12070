//! A view reads exactly what a routed, failed copy of the store reads.
//!
//! The engine used to look at the store under another routing table or
//! failure set by cloning it and calling `set_routing` / `mark_failed` on
//! the clone; it now narrows a [`StorageView`] instead.  This test keeps
//! the clone-and-mutate path as the reference.  Over random routing tables
//! — the store's own table with 1–3 nodes reassigned, a grown table, and a
//! stale table listing a node index the store has no slot for — and
//! random failed sets (on top of a store that may already have a failed
//! node), every scan, delta scan, replicated scan and coordinator lookup
//! through the view must equal the same call on the mutated clone, errors
//! included, down to `remote_transfers` and its order.
//!
//! The two paths differ in one place: `set_routing` pushes an empty store
//! for a node index it has not seen, where a view treats an index past the
//! store's slots as not live.  An empty store holds nothing, so the two
//! must read identically; this test is what shows they do.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

mod common;

use common::{routing_over, seeded_store, NODES};
use orchestra_common::rng::{self, StdRng};
use orchestra_common::{Epoch, NodeId, NodeSet, Result, Tuple};
use orchestra_storage::{CoordinatorKey, DistributedStorage, PartitionScan, StorageView};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::sync::Arc;

/// Everything a scan reports, comparable across the two paths; an error
/// compares by its message.
type Seen<T> = std::result::Result<(Vec<T>, [usize; 3], Vec<(NodeId, usize)>), String>;

fn seen<T>(scan: Result<PartitionScan<T>>) -> Seen<T> {
    scan.map(|s| {
        let counts = [s.pages_read, s.tuples_read, s.remote_lookups];
        (s.tuples, counts, s.remote_transfers)
    })
    .map_err(|e| e.to_string())
}

/// The routing table a case reads under.
fn random_routing(rng: &mut StdRng, store: &DistributedStorage) -> RoutingTable {
    let members = store.routing().nodes();
    match rng.random_range(0..3usize) {
        // The store's own table with 1-3 nodes' ranges handed to heirs.
        0 => {
            let mut gone = NodeSet::empty();
            for _ in 0..rng.random_range(1..4usize) {
                gone.insert(members[rng.random_range(0..members.len())]);
            }
            store.routing().reassign_failed(&gone).expect("survivors")
        }
        // A bigger cluster's table, before the store adopted it.
        1 => routing_over(NODES + rng.random_range(1..5u16)),
        // A stale table: one member missing and a node listed that the
        // store has no slot for.
        _ => {
            let mut nodes = members.clone();
            nodes.swap_remove(rng.random_range(0..nodes.len()));
            nodes.push(NodeId(NODES + rng.random_range(4..40u16)));
            RoutingTable::build(&nodes, AllocationScheme::Balanced, 3)
        }
    }
}

/// Up to two nodes of `routing` or of the store, failed.
fn random_failed(rng: &mut StdRng, routing: &RoutingTable) -> NodeSet {
    let mut candidates = routing.nodes();
    candidates.extend((0..NODES).map(NodeId));
    let mut failed = NodeSet::empty();
    for _ in 0..rng.random_range(0..3usize) {
        failed.insert(candidates[rng.random_range(0..candidates.len())]);
    }
    failed
}

/// Every read of one case, through `view` and on `reference`, compared.
fn assert_reads_alike(
    view: StorageView<'_>,
    reference: &DistributedStorage,
    epochs: &[Epoch],
    rng: &mut StdRng,
    case: usize,
) {
    let mine = reference.view();
    let last = *epochs.last().unwrap();
    let from = epochs[rng.random_range(0..epochs.len())];
    // Every node the table lists, and one it does not.
    let mut readers = view.routing().nodes();
    readers.push(NodeId(rng.random_range(0..NODES + 8)));
    for (i, node) in readers.iter().copied().enumerate() {
        let what = format!("case {case}, reader {node}");
        // A stranger reads the last member's ranges.
        let owner = readers[i.min(readers.len() - 2)];
        let ranges = view.routing().ranges_of(owner);
        for epoch in epochs {
            for relation in ["R", "N"] {
                assert_eq!(
                    seen(view.scan_partition_ref(relation, *epoch, node, &ranges)),
                    seen(mine.scan_partition_ref(relation, *epoch, node, &ranges)),
                    "{what}: scan of {relation} at {epoch}"
                );
            }
        }
        for (a, b) in [(epochs[0], last), (from, last), (last, last)] {
            assert_eq!(
                seen(view.delta_partition_ref("R", a, b, node, &ranges)),
                seen(mine.delta_partition_ref("R", a, b, node, &ranges)),
                "{what}: delta {a}..{b}"
            );
        }
        let replicated = |v: StorageView<'_>| -> std::result::Result<Vec<Tuple>, String> {
            let tuples = v
                .scan_replicated("N", from, node)
                .map_err(|e| e.to_string())?;
            Ok(tuples.iter().map(|row| row.tuple()).collect())
        };
        assert_eq!(replicated(view), replicated(mine), "{what}: replicated");
    }
    for relation in ["R", "N"] {
        for epoch in epochs.iter().chain([&Epoch(99)]) {
            let key = CoordinatorKey::new(relation, *epoch);
            let lookup = |v: StorageView<'_>| {
                v.lookup_coordinator(&key)
                    .map(Arc::as_ptr)
                    .map_err(|e| e.to_string())
            };
            assert_eq!(
                lookup(view),
                lookup(mine),
                "case {case}: coordinator of {relation} at {epoch}"
            );
        }
    }
}

#[test]
fn a_view_reads_what_a_routed_and_failed_clone_reads() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let (seeded, epochs) = seeded_store();
    let mut rng = rng::seeded(0x7_1e3);
    // Cases that fail a node the table lists, and cases whose table
    // lists a node the store has no slot for.
    let (mut failed_members, mut slotless) = (0, 0);
    for case in 0..cases {
        // Some cases start from a store that already has a failed node:
        // the view's failed set is a union.
        let mut store = seeded.clone();
        if rng.random_bool(0.3) {
            store.mark_failed(NodeId(rng.random_range(0..NODES)));
        }
        let routing = random_routing(&mut rng, &store);
        let failed = random_failed(&mut rng, &routing);

        let mut reference = store.clone();
        reference.set_routing(routing.clone());
        for node in failed.iter() {
            reference.mark_failed(node);
        }
        let view = store.view().with_routing(&routing).with_failed(failed);
        assert_reads_alike(view, &reference, &epochs, &mut rng, case);

        failed_members += usize::from(failed.iter().any(|n| routing.contains_node(n)));
        slotless += usize::from(routing.nodes().iter().any(|n| n.index() >= NODES.into()));
    }
    assert!(
        failed_members > 0 && slotless > 0,
        "{failed_members}, {slotless}"
    );
}
