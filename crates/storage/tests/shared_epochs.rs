//! Invariants of the shared-immutable layout: cached ring positions are
//! always the hash of the key they sit beside; replicas and clones share
//! allocations; and sharing never leaks a write from a clone into its
//! original (or back).

mod common;

use common::{routing_over, seeded_store, NODES};
use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_storage::{anti_entropy, DistributedStorage, StorageConfig, Update, UpdateBatch};
use std::collections::HashSet;
use std::sync::Arc;

fn assert_positions_are_key_hashes(s: &DistributedStorage, when: &str) {
    let mut entries = 0;
    for node in s.routing().nodes() {
        for page in s.store(node).index_pages() {
            for entry in &page.entries {
                assert_eq!(
                    entry.position,
                    entry.id.hash_key(),
                    "{when}: {} lists {} at a stale position",
                    page.id,
                    entry.id
                );
                entries += 1;
            }
        }
        for (_, position, version) in s.store(node).tuples_with_relation() {
            assert_eq!(position, version.id.hash_key(), "{when}: {}", version.id);
        }
    }
    assert!(entries > 0, "{when}: nothing was checked");
}

#[test]
fn cached_positions_survive_versioning_repair_and_cloning() {
    // Bulk load, then four epochs whose touched pages carry most of their
    // entries forward from earlier versions.
    let (mut s, _) = seeded_store();
    assert_positions_are_key_hashes(&s, "after churn");

    s.set_routing(routing_over(NODES + 4));
    let report = anti_entropy(&mut s).unwrap();
    assert!(report.pages_copied > 0 && report.tuples_copied > 0);
    assert_positions_are_key_hashes(&s, "after repair");

    let mut copy = s.clone();
    let mut batch = UpdateBatch::new();
    batch.modify(
        "R",
        Tuple::new(vec![Value::Int(1), Value::str("again"), Value::Int(0)]),
    );
    copy.publish(&batch).unwrap();
    assert_positions_are_key_hashes(&copy, "in a clone published to");
    assert_positions_are_key_hashes(&s, "in the original of that clone");
}

/// Everything a reader can see: each node's scan of its own ranges at
/// every epoch, with the scan's accounting, plus each store's size.
fn reads(s: &DistributedStorage, epochs: &[Epoch]) -> Vec<(Vec<Tuple>, [usize; 4])> {
    let mut out = Vec::new();
    for node in s.routing().nodes() {
        let ranges = s.routing().ranges_of(node);
        for epoch in epochs {
            for relation in ["R", "N"] {
                let scan = s.scan_partition(relation, *epoch, node, &ranges).unwrap();
                let store = s.store(node);
                out.push((
                    scan.tuples,
                    [
                        scan.pages_read,
                        scan.remote_lookups,
                        store.tuple_count(),
                        store.index_page_count(),
                    ],
                ));
            }
        }
    }
    out
}

#[test]
fn writes_to_a_clone_never_reach_the_original() {
    let (original, epochs) = seeded_store();
    let before = reads(&original, &epochs);
    let last = *epochs.last().unwrap();

    // Publishing to a clone.
    let mut copy = original.clone();
    let mut batch = UpdateBatch::new();
    for k in 0..50 {
        batch.modify(
            "R",
            Tuple::new(vec![
                Value::Int(k),
                Value::str("clone-only"),
                Value::Int(-1),
            ]),
        );
    }
    batch.delete("R", vec![Value::Int(77)]);
    let published = copy.publish(&batch).unwrap();
    assert_eq!(original.latest_epoch(), Some(last));
    assert_eq!(original.version_at("R", published), Some(last));
    assert_eq!(reads(&original, &epochs), before);
    assert_ne!(
        copy.relation_cardinality("R", published),
        0,
        "the clone did take the write"
    );

    // Failing a node in a clone.
    let mut copy = original.clone();
    copy.mark_failed(NodeId(2));
    assert!(original.failed_nodes().is_empty());
    assert_eq!(reads(&original, &epochs), before);

    // Losing a node's disk in a clone.
    let mut copy = original.clone();
    copy.store_mut(NodeId(4)).clear();
    assert_eq!(copy.store(NodeId(4)).tuple_count(), 0);
    assert_eq!(reads(&original, &epochs), before);

    // And the other way round: the clone keeps what it was cloned with.
    let mut original = original;
    let copy = original.clone();
    original.store_mut(NodeId(4)).clear();
    original.publish(&batch).unwrap();
    assert_eq!(reads(&copy, &epochs), before);
}

#[test]
fn replicas_and_clones_share_one_allocation() {
    let (s, _) = seeded_store();
    let nodes = s.routing().nodes();
    let (mut pages, mut versions) = (0, 0);
    for node in &nodes {
        let store = s.store(*node);
        for page in store.index_pages() {
            let holders = nodes
                .iter()
                .filter(|n| s.store(**n).index_page(&page.id).is_some())
                .count();
            assert_eq!(holders, 3, "{} is replicated three ways", page.id);
            assert_eq!(Arc::strong_count(page), holders, "{}", page.id);
            pages += 1;
        }
        for (relation, position, version) in store.tuples_with_relation() {
            let holders = nodes
                .iter()
                .filter(|n| {
                    s.store(**n)
                        .tuple_version(relation, position, &version.id)
                        .is_some()
                })
                .count();
            // `N` is replicated everywhere, `R` three ways.
            assert_eq!(holders, if relation == "N" { nodes.len() } else { 3 });
            assert_eq!(Arc::strong_count(version), holders, "{}", version.id);
            versions += 1;
        }
        for record in store.coordinators() {
            assert_eq!(Arc::strong_count(record), 3, "{:?}", record.key);
        }
    }
    assert!(pages > 0 && versions > 0);

    // A clone shares whole stores: no item gains a reference until the
    // clone writes to a store, and then only that store's items do.
    let probe_node = NodeId(1);
    let probe = Arc::clone(s.store(probe_node).index_pages().next().unwrap());
    let shared = Arc::strong_count(&probe);
    let mut copy = s.clone();
    assert_eq!(Arc::strong_count(&probe), shared);
    copy.store_mut(probe_node);
    assert_eq!(Arc::strong_count(&probe), shared + 1);
    drop(copy);
    assert_eq!(Arc::strong_count(&probe), shared);
}

/// The addresses of a row's own allocations: the row and its strings.
fn allocations_of(values: &[Value]) -> impl Iterator<Item = *const u8> + '_ {
    let strings = values.iter().filter_map(|v| match v {
        Value::Str(s) => Some(Arc::as_ptr(s) as *const u8),
        _ => None,
    });
    std::iter::once(values.as_ptr() as *const u8).chain(strings)
}

#[test]
fn the_store_owns_its_bytes() {
    // Rows share by pointer everywhere else; publication is the one
    // detaching copy.  String keys, so tuple IDs and page entries hold
    // strings of their own too; an insert epoch and a modify epoch.
    let mut s = DistributedStorage::new(routing_over(NODES), StorageConfig::default());
    s.register_relation(Relation::partitioned(
        "S",
        Schema::keyed_on_first(vec![("k", ColumnType::Str), ("v", ColumnType::Str)]),
    ));
    let row = |k: i64, generation: u64| {
        Tuple::new(vec![
            Value::str(format!("key-{k}")),
            Value::str(format!("value-{k}-g{generation}")),
        ])
    };
    let mut bulk = UpdateBatch::new();
    let mut churn = UpdateBatch::new();
    for k in 0..200 {
        bulk.insert("S", row(k, 0));
        if k % 3 == 0 {
            churn.modify("S", row(k, 1));
        }
    }
    s.publish(&bulk).unwrap();
    s.publish(&churn).unwrap();

    let mut published: HashSet<*const u8> = HashSet::new();
    for update in bulk.updates_for("S").iter().chain(churn.updates_for("S")) {
        let (Update::Insert(t) | Update::Modify(t)) = update else {
            unreachable!("no deletes were published");
        };
        published.extend(allocations_of(t.values()));
        // Nobody else holds the batch's strings.
        for v in t.values() {
            let Value::Str(s) = v else { unreachable!() };
            assert_eq!(Arc::strong_count(s), 1, "{s} is shared");
        }
    }

    let (mut versions, mut entries) = (0, 0);
    let mut stored: HashSet<*const u8> = HashSet::new();
    for node in s.routing().nodes() {
        for (_, _, version) in s.store(node).tuples_with_relation() {
            let held: Vec<_> = allocations_of(version.tuple.values())
                .chain(allocations_of(&version.id.key))
                .collect();
            assert!(
                held.iter().all(|a| !published.contains(a)),
                "{}",
                version.id
            );
            stored.extend(held);
            versions += 1;
        }
    }
    // A page lists its IDs in allocations of its own, beside each other,
    // not strewn among the tuple bodies.
    for node in s.routing().nodes() {
        for page in s.store(node).index_pages() {
            for entry in &page.entries {
                for a in allocations_of(&entry.id.key) {
                    assert!(
                        !published.contains(&a) && !stored.contains(&a),
                        "{}",
                        entry.id
                    );
                }
                entries += 1;
            }
        }
    }
    assert!(versions >= 3 * 266 && entries >= 3 * 266);
}
