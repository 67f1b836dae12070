//! Invariants of the shared-immutable layout: cached ring positions are
//! always the hash of the key they sit beside; a coordinator record, a page
//! version and a tuple version are each stored once, in their relation's
//! log of that kind, and their holders are the stores whose bit for them
//! is set; replicas and clones share allocations; and sharing never leaks a
//! write from a clone into its original (or back).

mod common;

use common::{routing_over, seeded_store, NODES};
use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_storage::{
    anti_entropy, CoordinatorKey, DistributedStorage, IndexPage, Kind, SlotSet, StorageConfig,
    Update, UpdateBatch,
};
use std::collections::HashSet;
use std::sync::Arc;

/// How many items of `kind` `node` holds, over every relation.
fn held_count(s: &DistributedStorage, node: NodeId, kind: Kind) -> usize {
    let held = s.relations().filter_map(|r| s.held(node, r.name(), kind));
    held.map(SlotSet::len).sum()
}

/// The pages of `relation` that `node` holds, from the relation's log.
fn pages_held<'a>(
    s: &'a DistributedStorage,
    node: NodeId,
    relation: &str,
) -> impl Iterator<Item = &'a Arc<IndexPage>> {
    let log = s.log(relation).unwrap();
    let held = s.held(node, relation, Kind::Page).into_iter();
    held.flat_map(|slots| slots.iter())
        .map(move |slot| log.page(slot).unwrap())
}

fn assert_positions_are_key_hashes(s: &DistributedStorage, when: &str) {
    let mut entries = 0;
    for node in s.routing().nodes() {
        for page in ["R", "N"].iter().flat_map(|r| pages_held(s, node, r)) {
            let log = s.log(&page.id.relation).unwrap();
            for entry in &page.entries {
                assert_eq!(
                    entry.position,
                    entry.id.hash_key(),
                    "{when}: {} lists {} at a stale position",
                    page.id,
                    entry.id
                );
                assert_eq!(
                    log.position(Kind::Tuple, entry.slot),
                    Some(entry.position),
                    "{when}: {} lists {} at slot {} of another key",
                    page.id,
                    entry.id,
                    entry.slot
                );
                entries += 1;
            }
        }
        for relation in ["R", "N"] {
            let mut slots = s
                .held(node, relation, Kind::Tuple)
                .into_iter()
                .flat_map(|h| h.iter());
            let log = s.log(relation).unwrap();
            assert!(slots.all(|slot| log.version(slot).is_some()), "{when}");
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
                out.push((
                    scan.tuples,
                    [
                        scan.pages_read,
                        scan.remote_lookups,
                        held_count(s, node, Kind::Tuple),
                        held_count(s, node, Kind::Page),
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
    copy.forget(NodeId(4));
    assert_eq!(held_count(&copy, NodeId(4), Kind::Tuple), 0);
    assert_eq!(reads(&original, &epochs), before);

    // And the other way round: the clone keeps what it was cloned with.
    let mut original = original;
    let copy = original.clone();
    original.forget(NodeId(4));
    original.publish(&batch).unwrap();
    assert_eq!(reads(&copy, &epochs), before);
}

#[test]
fn replicas_and_clones_share_one_allocation() {
    let (s, epochs) = seeded_store();
    let view = s.view();
    let nodes = s.routing().nodes();
    let holders = |relation: &str, kind: Kind, slot: u32| {
        let holds = |n: &&NodeId| (s.held(**n, relation, kind)).is_some_and(|h| h.contains(slot));
        nodes.iter().filter(holds).count()
    };

    // One record and one page version per slot of their logs, held where
    // the bit is set — three holders each — and stored once: the log's
    // `Arc` is the only reference, and the lookups hand out that `Arc`.
    let (mut records, mut pages, mut versions) = (0, 0, 0);
    for relation in ["R", "N"] {
        let log = s.log(relation).unwrap();
        for (slot, record) in (0..).zip(log.records()) {
            assert_eq!(holders(relation, Kind::Record, slot), 3, "{:?}", record.key);
            assert_eq!(Arc::strong_count(record), 1, "{:?}", record.key);
            let key = &record.key;
            let found = view.lookup_coordinator(key).unwrap();
            assert!(Arc::ptr_eq(found, record), "{key:?}");
            let visible = view.version_record(relation, key.epoch).unwrap().unwrap();
            assert!(Arc::ptr_eq(visible, record), "{key:?}");
            for descriptor in &record.pages {
                let page = view.lookup_index_page(descriptor).unwrap();
                assert!(Arc::ptr_eq(page, log.page(descriptor.slot).unwrap()));
                assert_eq!(page.id, descriptor.id);
            }
            records += 1;
        }
        let mut ids = HashSet::new();
        for (slot, page) in (0..).zip(log.pages()) {
            assert_eq!(
                holders(relation, Kind::Page, slot),
                3,
                "{} is replicated three ways",
                page.id
            );
            assert_eq!(Arc::strong_count(page), 1, "{}", page.id);
            assert!(ids.insert(&page.id), "{} has two slots", page.id);
            pages += 1;
        }
        for slot in 0..log.len(Kind::Tuple) as u32 {
            // `N` is replicated everywhere, `R` three ways.
            let expected = if relation == "N" { nodes.len() } else { 3 };
            assert_eq!(holders(relation, Kind::Tuple, slot), expected);
            versions += 1;
        }
    }
    assert_eq!(records, epochs.len() + 1, "R changed every epoch, N once");
    assert!(pages > 0 && versions > 0);
    let missing = CoordinatorKey::new("R", Epoch(99));
    assert!(view.lookup_coordinator(&missing).is_err());

    // The bodies: one per version, in the log.  Every ID the pages list
    // has one slot (a key a batch wrote twice is one version), no two
    // slots share an allocation, and a holder hands out the log's body.
    for relation in ["R", "N"] {
        let log = s.log(relation).unwrap();
        let ids: HashSet<_> = (log.pages().flat_map(|p| &p.entries))
            .map(|e| (&e.id, e.slot))
            .collect();
        let versions = log.len(Kind::Tuple);
        assert_eq!(ids.len(), versions, "{relation}: one slot per ID");
        let bodies = (0..versions as u32).map(|slot| log.version(slot).unwrap());
        assert_eq!(bodies.collect::<HashSet<_>>().len(), versions, "{relation}");
    }
    let log = s.log("R").unwrap();
    let version = view.version_record("R", Epoch(0)).unwrap().unwrap();
    let listed: Vec<u32> = (version.pages.iter())
        .flat_map(|d| &view.lookup_index_page(d).unwrap().entries)
        .map(|e| e.slot)
        .collect();
    for node in &nodes {
        let full = [orchestra_common::KeyRange::full()];
        let scan = view
            .scan_partition_ref("R", Epoch(0), *node, &full)
            .unwrap();
        assert_eq!(scan.tuples.len(), listed.len());
        for (tuple, slot) in scan.tuples.iter().zip(&listed) {
            assert!(*tuple == log.version(*slot).unwrap(), "{node}");
        }
    }

    // A clone shares the log, holder bits included: a repair of the clone
    // that finds everything in place writes nothing, so no run gains a
    // reference, and only publishing to the clone, which copies its run
    // pointers, does.  So does losing a node's disk in a clone: its bits
    // are in the log.  The page itself is in the run, which both logs
    // share, so it never gains one.
    let page = Arc::clone(s.log("R").unwrap().page(0).unwrap());
    let probe = Arc::clone(&s.log("R").unwrap().runs()[0]);
    let mut copy = s.clone();
    assert_eq!(anti_entropy(&mut copy).unwrap(), Default::default());
    assert_eq!(Arc::strong_count(&probe), 2, "the log and the probe");
    let mut batch = UpdateBatch::new();
    batch.delete("R", vec![Value::Int(0)]);
    copy.publish(&batch).unwrap();
    assert_eq!(Arc::strong_count(&probe), 3, "and the clone's log");
    assert_eq!(Arc::strong_count(&page), 2, "the run and the page probe");
    drop(copy);
    assert_eq!(Arc::strong_count(&probe), 2);
    let mut copy = s.clone();
    copy.forget(NodeId(1));
    assert_eq!(Arc::strong_count(&probe), 3, "the forgetful clone's log");
    assert_eq!(Arc::strong_count(&page), 2);
}

#[test]
fn a_clone_shares_every_run_and_publishing_to_it_appends_one() {
    // A relation's tuple versions are one run per publication, behind an
    // `Arc`: a clone shares them, and a publication to the clone adds its
    // run beside them without copying one.
    let (s, _) = seeded_store();
    let mut copy = s.clone();
    let mut batch = UpdateBatch::new();
    batch.modify(
        "R",
        Tuple::new(vec![Value::Int(3), Value::str("clone"), Value::Int(0)]),
    );
    copy.publish(&batch).unwrap();
    let (ours, theirs) = (s.log("R").unwrap().runs(), copy.log("R").unwrap().runs());
    assert_eq!(theirs.len(), ours.len() + 1);
    for (mine, shared) in ours.iter().zip(theirs) {
        assert!(Arc::ptr_eq(mine, shared));
        assert_eq!(Arc::strong_count(mine), 2, "the store and its clone");
    }
    assert_eq!(Arc::strong_count(&theirs[ours.len()]), 1);
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
    let log = s.log("S").unwrap();
    for slot in 0..log.len(Kind::Tuple) as u32 {
        let held: Vec<_> = allocations_of(log.version(slot).unwrap().tuple().values()).collect();
        assert!(held.iter().all(|a| !published.contains(a)), "slot {slot}");
        stored.extend(held);
        versions += 1;
    }
    // A page lists its IDs in allocations of its own, beside each other,
    // not strewn among the tuple bodies.
    for node in s.routing().nodes() {
        for page in pages_held(&s, node, "S") {
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
    // 200 inserts and 67 modifies, each stored once; every page at three
    // holders.
    assert!(versions == 267 && entries >= 3 * 266);
}
