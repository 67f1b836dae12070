//! Anti-entropy's observable behaviour, pinned.
//!
//! What a repair pass reports and where every item ends up must not depend
//! on how the pass finds the missing copies.  The figures below were
//! recorded at the commit before the pass walked stores range-wise
//! (`bc24ee4`) and held since, through the change that made a node's
//! tuples a bitset over each relation's version log.  The figures come
//! from the reports and from `holdings`, which use only API present at
//! `bc24ee4`; the sharing and fixture checks read the relations' logs, which
//! that commit does not have, so a copy there re-records the figures
//! without them.  The holdings are `bc24ee4`'s; the reports were re-pinned
//! when a copy came to be counted once, not once per source that proposed
//! it, so the nodes' holdings now grow by exactly what a pass reports.

mod common;

use common::{routing_over, seeded_store, NODES};
use orchestra_common::{Key160, NodeId, NodeSet, PageEntry, TupleId};
use orchestra_storage::{anti_entropy, DistributedStorage, Kind, ReplicationReport};
use orchestra_substrate::{AllocationScheme, ReplicationPolicy, RoutingTable};
use std::collections::HashMap;

/// Stores the scenario ever addresses: the eight seeded nodes and one
/// that joins.
const STORES: u16 = NODES + 1;

/// `(tuples, pages, coordinators)` — copied by a pass, or held by a node.
type Triple = (usize, usize, usize);

fn ids(nodes: impl IntoIterator<Item = u16>) -> Vec<NodeId> {
    nodes.into_iter().map(NodeId).collect()
}

fn holdings(s: &DistributedStorage) -> Vec<Triple> {
    (0..STORES)
        .map(|n| {
            let held = |kind| s.held_count(NodeId(n), kind);
            (held(Kind::Tuple), held(Kind::Page), held(Kind::Record))
        })
        .collect()
}

/// The ring positions of the versions of `relation` that `node` holds.
fn positions_held(s: &DistributedStorage, node: NodeId, relation: &str) -> Vec<Key160> {
    let log = s.log(relation).unwrap();
    let held = s.held(node, relation, Kind::Tuple).into_iter();
    held.flat_map(|slots| {
        slots
            .iter()
            .map(|slot| log.position(Kind::Tuple, slot).unwrap())
    })
    .collect()
}

/// How many records, pages and versions each relation's log has numbered.
fn log_lengths(s: &DistributedStorage) -> Vec<usize> {
    let lengths = ["R", "N"].map(|r| Kind::ALL.map(|kind| s.log(r).unwrap().len(kind)));
    lengths.concat()
}

/// Every stored version's body exists once, in its relation's log, and
/// its holders are the stores whose bit for it is set.  Repair sets bits
/// and appends no item (the logs keep the lengths publication left,
/// `logged`); every page entry the logs' pages list gives one ID one slot
/// and one slot one ID; and for a sample of the versions node 0 holds, the
/// stores that serve one locally are those with its bit, all handing out
/// the log's one body.
fn assert_versions_are_shared(s: &DistributedStorage, logged: &[usize]) {
    assert_eq!(log_lengths(s), logged, "repair appended to a log");
    let mut slot_of: HashMap<(&str, &TupleId), u32> = HashMap::new();
    let mut entry_at: HashMap<(&str, u32), &PageEntry> = HashMap::new();
    for relation in ["R", "N"] {
        for page in s.log(relation).unwrap().pages() {
            for entry in &page.entries {
                let slot = *slot_of.entry((relation, &entry.id)).or_insert(entry.slot);
                assert_eq!(slot, entry.slot, "{} has two slots", entry.id);
                let listed = entry_at.entry((relation, entry.slot)).or_insert(entry);
                assert_eq!(listed.id, entry.id, "slot {} has two IDs", entry.slot);
            }
        }
    }

    let view = s.view();
    let mut held: Vec<(&str, u32)> = ["R", "N"]
        .into_iter()
        .filter_map(|relation| Some((relation, s.held(NodeId(0), relation, Kind::Tuple)?)))
        .flat_map(|(relation, slots)| slots.iter().map(move |slot| (relation, slot)))
        .collect();
    held.sort_unstable();
    let mut sampled = 0;
    for (relation, slot) in held.into_iter().step_by(7) {
        let entry = entry_at[&(relation, slot)];
        let body = s.log(relation).unwrap().version(slot).unwrap();
        for n in (0..STORES).map(NodeId) {
            let (tuple, remote) = view.lookup_tuple(relation, entry, Some(n)).unwrap();
            assert!(tuple == body, "{relation} {} at {n}", entry.id);
            let local = remote.is_none();
            let holds = (s.held(n, relation, Kind::Tuple)).is_some_and(|h| h.contains(slot));
            assert_eq!(local, holds && !s.failed_nodes().contains(n), "{n}");
        }
        sampled += 1;
    }
    assert!(sampled > 20, "sampled only {sampled} versions");
}

/// The sum of `holdings`, kind by kind.
fn total(holdings: &[Triple]) -> Triple {
    (holdings.iter()).fold((0, 0, 0), |(t, p, c), h| (t + h.0, p + h.1, c + h.2))
}

/// One repair: the pass's report and every node's holdings after it.  A
/// second pass must find nothing to do, and the holdings grow by exactly
/// the copies reported.
fn repair(s: &mut DistributedStorage) -> (Triple, Vec<Triple>) {
    let logged = log_lengths(s);
    let before = total(&holdings(s));
    let report = anti_entropy(s).unwrap();
    assert_eq!(
        anti_entropy(s).unwrap(),
        ReplicationReport::default(),
        "a second pass found work"
    );
    assert_versions_are_shared(s, &logged);
    let copied = (
        report.tuples_copied,
        report.pages_copied,
        report.coordinators_copied,
    );
    let after = total(&holdings(s));
    let grown = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert_eq!(copied, grown, "a copy is one bit set at one node");
    (copied, holdings(s))
}

#[test]
fn repair_reports_and_placement_are_pinned() {
    let (mut s, _) = seeded_store();

    // The fixture bites: some key holds several versions at one position.
    let mut positions = positions_held(&s, NodeId(0), "R");
    let versions = positions.len();
    positions.sort_unstable();
    positions.dedup();
    assert!(positions.len() < versions, "no key has a second version");

    // Under the table the data was placed by there is nothing to repair.
    s.set_routing(routing_over(NODES));
    assert_eq!(anti_entropy(&mut s).unwrap(), ReplicationReport::default());

    // A ninth node joins and placement moves to nearest-hash arcs, one of
    // which wraps past the top of the ring; node 5 has crashed but is
    // still routed to, so it is a replica target that must not be written.
    s.set_routing(RoutingTable::build(
        &ids(0..STORES),
        AllocationScheme::PastryStyle,
        3,
    ));
    let wrapping = (s.routing().entries().iter())
        .map(|e| e.range)
        .find(|r| r.start > r.end && r.end != Key160::ZERO)
        .expect("nearest-hash placement has a wrapping arc");
    let stored: Vec<Key160> = (0..STORES)
        .flat_map(|n| ["R", "N"].map(|r| positions_held(&s, NodeId(n), r)))
        .flatten()
        .collect();
    assert!(stored.iter().any(|p| *p >= wrapping.start));
    assert!(stored.iter().any(|p| *p < wrapping.end));
    let crashed = NodeId(5);
    assert!(stored
        .iter()
        .any(|p| s.routing().replicas_of(*p).contains(&crashed)));
    s.mark_failed(crashed);
    let before = holdings(&s)[crashed.index()];
    let join = repair(&mut s);
    assert_eq!(holdings(&s)[crashed.index()], before);
    assert_eq!(
        join,
        (
            (449, 37, 2),
            vec![
                (341, 31, 2),
                (303, 32, 4),
                (368, 33, 0),
                (376, 34, 3),
                (344, 32, 2),
                (318, 32, 3),
                (328, 32, 1),
                (411, 37, 3),
                (311, 32, 2)
            ]
        ),
        "join"
    );

    // The crashed node is given up: its arcs are split among its heirs.
    let recovery = s
        .routing()
        .reassign_failed(&NodeSet::singleton(crashed))
        .unwrap();
    s.set_routing(recovery);
    let departure = repair(&mut s);
    assert_eq!(
        departure,
        (
            (351, 37, 4),
            vec![
                (341, 31, 2),
                (427, 43, 4),
                (417, 39, 2),
                (507, 49, 4),
                (344, 32, 2),
                (318, 32, 3),
                (375, 37, 2),
                (411, 37, 3),
                (311, 32, 2)
            ]
        ),
        "departure"
    );

    // Operations hands down new placement policies.
    let survivors = ids((0..STORES).filter(|n| *n != crashed.0));
    s.set_routing(RoutingTable::build_with_policy(
        &survivors,
        AllocationScheme::Balanced,
        ReplicationPolicy::GeoSpread {
            zones: 3,
            copies_per_zone: 1,
        },
    ));
    let geo = repair(&mut s);
    assert_eq!(
        geo,
        (
            (1026, 107, 9),
            vec![
                (452, 42, 3),
                (536, 55, 4),
                (635, 60, 4),
                (595, 59, 4),
                (344, 32, 2),
                (318, 32, 3),
                (419, 43, 4),
                (502, 47, 3),
                (676, 69, 6)
            ]
        ),
        "geo-spread"
    );

    s.set_routing(RoutingTable::build_with_policy(
        &survivors,
        AllocationScheme::PastryStyle,
        ReplicationPolicy::PercentageOfNodes(0.5),
    ));
    let percentage = repair(&mut s);
    assert_eq!(
        percentage,
        (
            (1017, 102, 7),
            vec![
                (561, 54, 3),
                (677, 66, 4),
                (813, 80, 6),
                (649, 65, 4),
                (565, 54, 5),
                (318, 32, 3),
                (674, 69, 6),
                (518, 52, 3),
                (719, 69, 6)
            ]
        ),
        "percentage"
    );
}
