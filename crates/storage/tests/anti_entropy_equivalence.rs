//! Anti-entropy on bits does what the range-wise merge it replaced did.
//!
//! A node's tuples used to be a position-ordered map per relation, and
//! the pass merged each live source's map with each replica's, one
//! routing arc at a time; its pages and coordinator records were maps of
//! pointers, and the pass walked every item each live source held,
//! proposing it to every replica of its arc that lacked it.  Nodes now
//! hold a bit per item of each of a relation's logs and the pass works a
//! word of bits at a time, over all three logs alike.  This test keeps
//! the merge and the per-item walk as the reference, rebuilt here from the
//! public read API (the held slots, their positions in the relation's log, a
//! page's range and a record's key, the routing table's arcs), and checks
//! on random scenarios that the pass reports the same `(tuples, pages,
//! coordinators)` copies — each distinct copy once, however many sources
//! propose it — and leaves every node holding exactly what the reference
//! says — then that a second pass finds nothing to do.
//!
//! A scenario is a store of a few hundred multi-version keys in two
//! partitioned relations and one replicated relation, under a random
//! allocation scheme and replication policy, taken through one to three
//! membership steps: joins, departures handed to heirs or left in the
//! table as failed replica targets, new `GeoSpread` / `PercentageOfNodes`
//! / fixed-factor policies, nearest-hash placement (whose last arc wraps
//! past the top of the ring), a node's disk lost, a failed node back; with
//! more epochs published in between.  Each step is repaired and compared.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

use orchestra_common::rng::{self, StdRng};
use orchestra_common::{ColumnType, Key160, NodeId, NodeSet, Relation, Schema, Tuple, Value};
use orchestra_storage::{
    anti_entropy, DistributedStorage, Kind, ReplicationReport, SlotSet, StorageConfig, UpdateBatch,
};
use orchestra_substrate::{AllocationScheme, ReplicationPolicy, RoutingTable};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// The relations of every scenario.
const RELATIONS: [&str; 3] = ["R", "S", "N"];

/// What one node holds.
#[derive(Debug, Default, PartialEq, Eq)]
struct Placement {
    /// Per relation, the slots of the versions held (none left out empty).
    tuples: BTreeMap<String, BTreeSet<u32>>,
    /// The relation and slot of every page version held.
    pages: BTreeSet<(String, u32)>,
    /// The relation and slot of every coordinator record held.
    coordinators: BTreeSet<(String, u32)>,
}

impl Placement {
    /// Where the reference puts the items of `kind` other than tuples.
    fn items(&mut self, kind: Kind) -> &mut BTreeSet<(String, u32)> {
        match kind {
            Kind::Page => &mut self.pages,
            _ => &mut self.coordinators,
        }
    }
}

/// The versions `node` holds, per relation, leaving out relations it
/// holds none of.
fn held_versions(s: &DistributedStorage, node: NodeId) -> Vec<(&'static str, &SlotSet)> {
    let held = RELATIONS.map(|relation| (relation, s.held(node, relation, Kind::Tuple)));
    let held = held
        .into_iter()
        .filter_map(|(relation, slots)| Some((relation, slots?)));
    held.filter(|(_, slots)| !slots.is_empty()).collect()
}

/// Every store's placement, stores `0..stores`.
fn placements(s: &DistributedStorage, stores: u16) -> Vec<Placement> {
    (0..stores)
        .map(|n| {
            let node = NodeId(n);
            let mut placement = Placement {
                tuples: held_versions(s, node)
                    .into_iter()
                    .map(|(relation, slots)| (relation.to_string(), slots.iter().collect()))
                    .collect(),
                ..Placement::default()
            };
            for kind in [Kind::Page, Kind::Record] {
                for relation in RELATIONS {
                    let slots = s
                        .held(node, relation, kind)
                        .into_iter()
                        .flat_map(|h| h.iter());
                    (placement.items(kind)).extend(slots.map(|slot| (relation.to_string(), slot)));
                }
            }
            placement
        })
        .collect()
}

/// A node's versions as the store used to keep them: per relation,
/// ring position → the versions held there, ascending.
type Positioned<'a> = BTreeMap<&'a str, BTreeMap<Key160, Vec<u32>>>;

fn positioned(s: &DistributedStorage, node: NodeId) -> Positioned<'_> {
    let mut out = Positioned::new();
    for (relation, slots) in held_versions(s, node) {
        let log = s.log(relation).unwrap();
        let map = out.entry(relation).or_default();
        for slot in slots.iter() {
            map.entry(log.position(Kind::Tuple, slot).unwrap())
                .or_default()
                .push(slot);
        }
    }
    out
}

/// Call `copy` on every version of `ours` that `theirs` lacks.  Both run
/// over the same span in position order, so one merge pass finds them.
fn for_each_missing<'a>(
    ours: impl Iterator<Item = (&'a Key160, &'a Vec<u32>)>,
    theirs: impl Iterator<Item = (&'a Key160, &'a Vec<u32>)>,
    mut copy: impl FnMut(u32),
) {
    let mut theirs = theirs.peekable();
    for (position, versions) in ours {
        while theirs.next_if(|(p, _)| *p < position).is_some() {}
        let held: &[u32] = match theirs.peek() {
            Some((p, held)) if *p == position => held,
            _ => &[],
        };
        for version in versions {
            if held.binary_search(version).is_err() {
                copy(*version);
            }
        }
    }
}

/// The range-wise pass, as it ran before nodes held bits: what it would
/// report for `s` and where everything would end up.
fn reference(s: &DistributedStorage, stores: u16) -> (ReplicationReport, Vec<Placement>) {
    let failed = s.failed_nodes();
    let routing = s.routing();
    let live: Vec<NodeId> = (routing.nodes().into_iter())
        .filter(|n| !failed.contains(*n))
        .collect();
    let starts: Vec<Key160> = routing.entries().iter().map(|e| e.range.start).collect();
    let replicas: Vec<Vec<NodeId>> = (0..starts.len())
        .map(|i| {
            let set = routing.entry_replicas(i).iter().copied();
            set.filter(|n| !failed.contains(*n)).collect()
        })
        .collect();
    // The live replicas of the arc holding `position`, and where the span
    // of that arc an ascending walk is in ends.
    let at = |position: Key160| -> (&[NodeId], Bound<Key160>) {
        let after = starts.partition_point(|start| *start <= position);
        let entry = after.checked_sub(1).unwrap_or(starts.len() - 1);
        let end = starts
            .get(after)
            .map_or(Bound::Unbounded, |s| Bound::Excluded(*s));
        (&replicas[entry], end)
    };

    let maps: Vec<Positioned> = (0..stores).map(|n| positioned(s, NodeId(n))).collect();
    let mut report = ReplicationReport::default();
    let mut after = placements(s, stores);
    for src in &live {
        for (relation, map) in &maps[src.index()] {
            let replicated = s.relation(relation).unwrap().is_replicated();
            let mut rest = map.iter().peekable();
            while let Some(&(&first, _)) = rest.peek() {
                let (dsts, end) = if replicated {
                    (live.as_slice(), Bound::Unbounded)
                } else {
                    at(first)
                };
                let inside = |p: &Key160| match end {
                    Bound::Excluded(end) => *p < end,
                    _ => true,
                };
                for dst in dsts.iter().filter(|dst| *dst != src) {
                    let theirs = maps[dst.index()].get(relation).into_iter();
                    let theirs = theirs.flat_map(|m| m.range((Bound::Included(first), end)));
                    let ours = rest.clone().take_while(|(p, _)| inside(p));
                    let lacks = after[dst.index()].tuples.entry(relation.to_string());
                    let lacks = lacks.or_default();
                    for_each_missing(ours, theirs, |slot| {
                        report.tuples_copied += usize::from(lacks.insert(slot));
                    });
                }
                while rest.next_if(|(p, _)| inside(p)).is_some() {}
            }
        }
        // Every page and record the source holds, proposed to each replica
        // of the arc it is placed in that lacks it.  The position is the
        // page's midpoint or the hash of the record's key, as publication
        // places them.
        for kind in [Kind::Page, Kind::Record] {
            for relation in RELATIONS {
                let held = |n: NodeId| s.held(n, relation, kind);
                for slot in held(*src).into_iter().flat_map(|h| h.iter()) {
                    let position = match kind {
                        Kind::Page => {
                            let page = s.log(relation).unwrap().page(slot).unwrap();
                            page.range.midpoint()
                        }
                        _ => s.log(relation).unwrap().record(slot).unwrap().key.hash(),
                    };
                    for dst in at(position).0 {
                        if !held(*dst).is_some_and(|h| h.contains(slot)) {
                            let item = (relation.to_string(), slot);
                            let copied = usize::from(after[dst.index()].items(kind).insert(item));
                            match kind {
                                Kind::Page => report.pages_copied += copied,
                                _ => report.coordinators_copied += copied,
                            }
                        }
                    }
                }
            }
        }
    }
    (report, after)
}

fn random_placement(rng: &mut StdRng) -> (AllocationScheme, ReplicationPolicy) {
    let scheme = if rng.random_bool(0.5) {
        AllocationScheme::PastryStyle
    } else {
        AllocationScheme::Balanced
    };
    let policy = match rng.random_range(0..4usize) {
        0 => ReplicationPolicy::PercentageOfNodes([0.2, 0.34, 0.5][rng.random_range(0..3usize)]),
        1 => ReplicationPolicy::GeoSpread {
            zones: rng.random_range(2..4usize),
            copies_per_zone: rng.random_range(1..3usize),
        },
        _ => ReplicationPolicy::FixedFactor(rng.random_range(1..5usize)),
    };
    (scheme, policy)
}

fn table(rng: &mut StdRng, members: &[NodeId]) -> RoutingTable {
    let (scheme, policy) = random_placement(rng);
    RoutingTable::build_with_policy(members, scheme, policy)
}

fn row(k: u64, generation: u64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k as i64),
        Value::str(format!("v{k}-g{generation}")),
    ])
}

/// The partitioned relation key `k` lives in.
fn relation_of(k: u64) -> &'static str {
    if k.is_multiple_of(2) {
        "R"
    } else {
        "S"
    }
}

/// One epoch of churn on `R` and `S`: modifies (some key twice), deletes
/// and inserts of fresh keys.
fn churn(rng: &mut StdRng, live: &mut Vec<u64>, next: &mut u64, generation: u64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.random_range(5..40usize) {
        let k = live[rng.random_range(0..live.len())];
        batch.modify(relation_of(k), row(k, generation));
    }
    for _ in 0..rng.random_range(0..10usize) {
        let k = live.swap_remove(rng.random_range(0..live.len()));
        batch.delete(relation_of(k), vec![Value::Int(k as i64)]);
    }
    for _ in 0..rng.random_range(0..20usize) {
        batch.insert(relation_of(*next), row(*next, generation));
        live.push(*next);
        *next += 1;
    }
    batch
}

/// What the scenarios covered, to show they bite.
#[derive(Debug, Default)]
struct Coverage {
    tuples_copied: usize,
    replicated_copies: usize,
    failed_replica_targets: usize,
    nearest_hash: usize,
    geo_spread: usize,
    percentage: usize,
}

#[test]
fn anti_entropy_on_bits_makes_the_range_wise_merges_copies() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = rng::seeded(0xa17e);
    let mut seen = Coverage::default();
    for case in 0..cases {
        let mut members: Vec<NodeId> = (0..rng.random_range(3..9u16)).map(NodeId).collect();
        let mut stores = members.len() as u16;
        let routing = table(&mut rng, &members);
        let parts = rng.random_range(1..25u32);
        let mut s = DistributedStorage::new(
            routing,
            StorageConfig {
                partitions_per_relation: parts,
            },
        );
        let two = vec![("k", ColumnType::Int), ("v", ColumnType::Str)];
        s.register_relation(Relation::partitioned(
            "R",
            Schema::keyed_on_first(two.clone()),
        ));
        s.register_relation(Relation::partitioned(
            "S",
            Schema::keyed_on_first(two.clone()),
        ));
        s.register_relation(Relation::replicated("N", Schema::keyed_on_first(two)));

        let rows = rng.random_range(50..400u64);
        let mut bulk = UpdateBatch::new();
        for k in 0..rows {
            bulk.insert(relation_of(k), row(k, 0));
        }
        for k in 0..rng.random_range(1..12u64) {
            bulk.insert("N", row(k, 0));
        }
        s.publish(&bulk).unwrap();
        let (mut live_keys, mut next) = ((0..rows).collect::<Vec<_>>(), rows);
        let mut generation = 1;
        for _ in 0..rng.random_range(1..4usize) {
            s.publish(&churn(&mut rng, &mut live_keys, &mut next, generation))
                .unwrap();
            generation += 1;
        }

        for step in 0..rng.random_range(1..4usize) {
            let mut failed = s.failed_nodes();
            match rng.random_range(0..6usize) {
                // Nodes join.
                0 => {
                    for _ in 0..rng.random_range(1..4usize) {
                        members.push(NodeId(stores));
                        stores += 1;
                    }
                    s.set_routing(table(&mut rng, &members));
                }
                // A node leaves: handed to its heirs, replaced by a table
                // over the survivors, or left in the table as a failed
                // replica target.
                1 | 2 => {
                    let gone = members[rng.random_range(0..members.len())];
                    s.mark_failed(gone);
                    failed.insert(gone);
                    match rng.random_range(0..3usize) {
                        0 if members.len() > 1 => {
                            let heirs = s.routing().reassign_failed(&NodeSet::singleton(gone));
                            if let Ok(heirs) = heirs {
                                s.set_routing(heirs);
                            }
                        }
                        1 if members.len() > 1 => {
                            members.retain(|n| *n != gone);
                            s.set_routing(table(&mut rng, &members));
                        }
                        _ => {}
                    }
                }
                // Operations hands down a new placement.
                3 => s.set_routing(table(&mut rng, &members)),
                // A live node loses its disk.
                4 => {
                    let lost = members[rng.random_range(0..members.len())];
                    if !failed.contains(lost) {
                        s.forget(lost);
                    }
                }
                // Failed nodes come back, empty or not.
                _ => {
                    for node in failed.iter() {
                        s.mark_recovered(node);
                        if !members.contains(&node) {
                            members.push(node);
                        }
                    }
                    s.set_routing(table(&mut rng, &members));
                }
            }
            // Publish through the new placement.  A lost only copy of a
            // coordinator record can stop it part-way; the pass must
            // repair whatever was written either way.
            if rng.random_bool(0.5) {
                let batch = churn(&mut rng, &mut live_keys, &mut next, generation);
                generation += u64::from(s.publish(&batch).is_ok());
            }

            let before = placements(&s, stores);
            let (expected, placed) = reference(&s, stores);
            let report = anti_entropy(&mut s).unwrap();
            let what = format!("case {case}, step {step}");
            assert_eq!(report, expected, "{what}: report");
            let got = placements(&s, stores);
            for (n, (got, want)) in got.iter().zip(&placed).enumerate() {
                assert_eq!(got, want, "{what}: node {n}");
            }
            assert_eq!(
                anti_entropy(&mut s).unwrap(),
                ReplicationReport::default(),
                "{what}"
            );

            seen.tuples_copied += report.tuples_copied;
            let held_n = |p: &Placement| p.tuples.get("N").map_or(0, BTreeSet::len);
            let gained = |(a, b): (&Placement, &Placement)| held_n(b) - held_n(a);
            seen.replicated_copies += before.iter().zip(&got).map(gained).sum::<usize>();
            let routed = s.routing().nodes();
            seen.failed_replica_targets +=
                usize::from(routed.iter().any(|n| s.failed_nodes().contains(*n)));
            seen.nearest_hash += usize::from(s.routing().scheme() == AllocationScheme::PastryStyle);
            match s.routing().policy() {
                ReplicationPolicy::GeoSpread { .. } => seen.geo_spread += 1,
                ReplicationPolicy::PercentageOfNodes(_) => seen.percentage += 1,
                ReplicationPolicy::FixedFactor(_) => {}
            }
        }
    }
    let covered = [
        seen.tuples_copied,
        seen.replicated_copies,
        seen.failed_replica_targets,
        seen.nearest_hash,
        seen.geo_spread,
        seen.percentage,
    ];
    assert!(covered.iter().all(|n| *n > 0), "{seen:?}");
}
