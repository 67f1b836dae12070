//! Background (anti-entropy) replication.
//!
//! The paper replicates data only as it is inserted and defers a
//! PAST-style Bloom-filter background replication scheme to future work
//! ("For completeness we plan to implement the Bloom filter-based
//! background replication approach of the Pastry-based PAST storage
//! system").  This module provides that missing piece in a simple form: an
//! anti-entropy pass that walks every live node's state and copies each
//! item to the owner and replicas designated by the *current* routing
//! table.  Running it after a membership change restores the placement
//! invariant, so subsequent failures can again be absorbed by neighbours.
//!
//! ## The walk is range-wise
//!
//! Placement is a property of an *arc* of the ring, not of a tuple: every
//! key inside one routing entry has the same owner and so the same
//! replicas.  The pass therefore resolves the live replica set once per
//! routing entry, and walks each source's position-ordered tuple map one
//! arc at a time: what a replica lacks of the arc is found by merging the
//! source's and the replica's holdings over it, both already in position
//! order — no keyed lookup per tuple.  An arc that wraps past the top of
//! the ring is met twice by the ascending walk, as the span below the
//! first entry's start and the span from the last entry's start up; a
//! replicated relation is a single arc, the whole ring, whose replicas are
//! all the live nodes.  The copies found are applied grouped by
//! destination and relation, so a destination's store is unshared, and a
//! relation found by name, once per group rather than once per tuple.
//!
//! ## What `tuples_copied` counts
//!
//! Every source proposes the copies it finds missing, independently: a
//! version that two live holders both find absent from a third node is
//! proposed — and counted — twice, though the node ends up with one copy.
//! [`ReplicationReport::tuples_copied`] is the number of proposals, not of
//! distinct copies made; pages and coordinator records count the same way.

use crate::coordinator::RelationVersion;
use crate::distributed::DistributedStorage;
use crate::node_store::TupleVersion;
use crate::page::IndexPage;
use orchestra_common::{Key160, NodeId, NodeSet, Result};
use orchestra_substrate::RoutingTable;
use std::ops::Bound;
use std::sync::Arc;

/// Statistics of one anti-entropy pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Tuple versions copied to a node that lacked them.
    pub tuples_copied: usize,
    /// Index pages copied.
    pub pages_copied: usize,
    /// Coordinator records copied.
    pub coordinators_copied: usize,
}

/// The routing table's arcs with the live replica set of each, resolved
/// once for the whole pass.
struct Arcs {
    /// Where each routing entry starts, ascending; together the entries
    /// tile the ring, so an entry runs up to the next one's start and the
    /// last one wraps round to the first.
    starts: Vec<Key160>,
    /// Per entry, the live nodes that should hold what falls in it.
    replicas: Vec<Vec<NodeId>>,
}

impl Arcs {
    fn new(routing: &RoutingTable, failed: &NodeSet) -> Arcs {
        let entries = routing.entries();
        Arcs {
            starts: entries.iter().map(|e| e.range.start).collect(),
            replicas: (0..entries.len())
                .map(|i| {
                    let replicas = routing.entry_replicas(i).iter().copied();
                    replicas.filter(|n| !failed.contains(*n)).collect()
                })
                .collect(),
        }
    }

    /// The live replicas of the arc holding `position`, and where the
    /// span of that arc that an ascending walk is in comes to its end.
    fn at(&self, position: Key160) -> (&[NodeId], Bound<Key160>) {
        // As `RoutingTable::owner_of`: the entry with the greatest start
        // at or below the position, or the last, wrapping, entry.
        let after = self.starts.partition_point(|start| *start <= position);
        let entry = after.checked_sub(1).unwrap_or(self.starts.len() - 1);
        let end = match self.starts.get(after) {
            Some(next) => Bound::Excluded(*next),
            None => Bound::Unbounded,
        };
        (&self.replicas[entry], end)
    }
}

/// Tuple versions with the ring positions to store them at.
type Placed = Vec<(Key160, Arc<TupleVersion>)>;

/// What one destination lacks, as the sources found it.
#[derive(Default)]
struct Missing {
    /// Grouped by relation, in the order found.
    tuples: Vec<(Arc<str>, Placed)>,
    pages: Vec<Arc<IndexPage>>,
    coordinators: Vec<Arc<RelationVersion>>,
}

impl Missing {
    /// Where to add a missing version of `relation`: the last group, if
    /// that is the relation the finds so far ended on, or a new one.
    fn tuples_of(&mut self, relation: &Arc<str>) -> &mut Placed {
        let last = self.tuples.last().map(|(name, _)| name);
        if !last.is_some_and(|name| Arc::ptr_eq(name, relation)) {
            self.tuples.push((Arc::clone(relation), Vec::new()));
        }
        &mut self.tuples.last_mut().expect("just pushed").1
    }
}

/// A stretch of one store's versions of a relation, as
/// `NodeStore::versions_in` yields it.
type Held<'a> = (Key160, &'a [Arc<TupleVersion>]);

/// Call `copy` on every version of `ours` that `theirs` lacks.  Both run
/// over the same span in position order, each position's versions in ID
/// order, so one merge pass finds them.
fn for_each_missing<'a>(
    ours: impl Iterator<Item = Held<'a>>,
    theirs: impl Iterator<Item = Held<'a>>,
    mut copy: impl FnMut(Key160, &'a Arc<TupleVersion>),
) {
    let mut theirs = theirs.peekable();
    for (position, versions) in ours {
        while theirs.next_if(|(p, _)| *p < position).is_some() {}
        let held = match theirs.peek() {
            Some((p, held)) if *p == position => *held,
            _ => &[],
        };
        let mut held = held.iter().peekable();
        for version in versions {
            // Replicas share allocations, so a version that is in place
            // is almost always the same pointer: IDs are compared only
            // past the ones that are not.
            let same = |theirs: &Arc<TupleVersion>| Arc::ptr_eq(theirs, version);
            while held
                .next_if(|theirs| !same(theirs) && theirs.id < version.id)
                .is_some()
            {}
            let present = held
                .peek()
                .is_some_and(|theirs| same(theirs) || theirs.id == version.id);
            if !present {
                copy(position, version);
            }
        }
    }
}

/// Run one anti-entropy pass over `storage`, copying every item to its
/// owner and replicas under the current routing table.  Items already in
/// place are left untouched; failed nodes are never written to.  A "copy"
/// is a pointer: the destination comes to share the source's allocation.
pub fn anti_entropy(storage: &mut DistributedStorage) -> Result<ReplicationReport> {
    let mut report = ReplicationReport::default();
    let failed = storage.failed_nodes();
    let live: Vec<NodeId> = storage
        .routing()
        .nodes()
        .into_iter()
        .filter(|n| !failed.contains(*n))
        .collect();
    let arcs = Arcs::new(storage.routing(), &failed);

    // Collect the work first (immutably), then apply it, to keep borrows
    // simple and the pass deterministic.
    let mut missing: Vec<Missing> = Vec::new();
    missing.resize_with(
        live.iter().map(|n| n.index() + 1).max().unwrap_or(0),
        Missing::default,
    );

    for src in &live {
        let store = storage.store(*src);
        for relation in store.relation_names() {
            let name: Arc<str> = Arc::from(relation);
            let replicated = storage
                .relation(relation)
                .is_some_and(|r| r.is_replicated());
            let mut rest = store
                .versions_in(relation, (Bound::Unbounded, Bound::Unbounded))
                .peekable();
            while let Some(&(first, _)) = rest.peek() {
                let (replicas, end) = if replicated {
                    (live.as_slice(), Bound::Unbounded)
                } else {
                    arcs.at(first)
                };
                let inside = |position: Key160| match end {
                    Bound::Excluded(end) => position < end,
                    _ => true,
                };
                for dst in replicas.iter().filter(|dst| *dst != src) {
                    let lacks = &mut missing[dst.index()];
                    for_each_missing(
                        rest.clone().take_while(|(position, _)| inside(*position)),
                        storage
                            .store(*dst)
                            .versions_in(relation, (Bound::Included(first), end)),
                        |position, version| {
                            lacks.tuples_of(&name).push((position, Arc::clone(version)))
                        },
                    );
                }
                while rest.next_if(|(position, _)| inside(*position)).is_some() {}
            }
        }
        for page in store.index_pages() {
            let (replicas, _) = arcs.at(page.range.midpoint());
            for dst in replicas {
                if storage.store(*dst).index_page(&page.id).is_none() {
                    missing[dst.index()].pages.push(Arc::clone(page));
                }
            }
        }
        for version in store.coordinators() {
            let (replicas, _) = arcs.at(version.key.hash());
            for dst in replicas {
                if storage.store(*dst).coordinator(&version.key).is_none() {
                    missing[dst.index()].coordinators.push(Arc::clone(version));
                }
            }
        }
    }

    for (dst, lacks) in missing.into_iter().enumerate() {
        if lacks.tuples.is_empty() && lacks.pages.is_empty() && lacks.coordinators.is_empty() {
            continue;
        }
        let store = storage.store_mut(NodeId(dst as u16));
        for (relation, versions) in lacks.tuples {
            report.tuples_copied += versions.len();
            store.put_tuples(&relation, versions);
        }
        report.pages_copied += lacks.pages.len();
        for page in lacks.pages {
            store.put_index_page(page);
        }
        report.coordinators_copied += lacks.coordinators.len();
        for version in lacks.coordinators {
            store.put_coordinator(version);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::StorageConfig;
    use crate::update::UpdateBatch;
    use orchestra_common::{ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
    use orchestra_substrate::{zone_of, AllocationScheme, ReplicationPolicy, RoutingTable};

    fn build_storage(nodes: u16) -> DistributedStorage {
        let routing = RoutingTable::build(
            &(0..nodes).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut s = DistributedStorage::new(
            routing,
            StorageConfig {
                partitions_per_relation: 8,
            },
        );
        s.register_relation(Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
        ));
        let mut b = UpdateBatch::new();
        for i in 0..150 {
            b.insert("R", Tuple::new(vec![Value::Int(i), Value::str("x")]));
        }
        s.publish(&b).unwrap();
        s
    }

    #[test]
    fn steady_state_needs_no_copies() {
        let mut s = build_storage(6);
        let report = anti_entropy(&mut s).unwrap();
        assert_eq!(report, ReplicationReport::default());
    }

    #[test]
    fn node_join_is_populated_by_anti_entropy() {
        let mut s = build_storage(6);
        // A new node joins: rebuild the routing table over 7 nodes.
        let routing = RoutingTable::build(
            &(0..7).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        s.set_routing(routing);
        assert_eq!(s.store(NodeId(6)).tuple_count(), 0);
        let report = anti_entropy(&mut s).unwrap();
        assert!(report.tuples_copied > 0);
        assert!(s.store(NodeId(6)).tuple_count() > 0);
        // All data remains reachable at the new placement.
        let result = s.retrieve("R", Epoch(0), NodeId(6), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 150);
        // A second pass is a no-op.
        assert_eq!(anti_entropy(&mut s).unwrap(), ReplicationReport::default());
    }

    #[test]
    fn every_live_replica_of_every_position_is_populated() {
        let mut s = build_storage(6);
        // Nearest-hash placement over eight nodes has an arc that wraps
        // past the top of the ring; node 4 is down but still routed to.
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        s.set_routing(RoutingTable::build(
            &nodes,
            AllocationScheme::PastryStyle,
            3,
        ));
        let down = NodeId(4);
        s.mark_failed(down);
        let held_by_down = s.store(down).tuple_count();
        assert!(anti_entropy(&mut s).unwrap().tuples_copied > 0);
        assert_eq!(s.store(down).tuple_count(), held_by_down);
        let mut checked = 0;
        for src in nodes.iter().filter(|n| **n != down) {
            for (relation, position, version) in s.store(*src).tuples_with_relation() {
                for &dst in s.routing().replicas_of(position) {
                    assert!(
                        dst == down
                            || s.store(dst)
                                .tuple(relation, position, &version.id)
                                .is_some(),
                        "{dst} lacks {:?} at {position}",
                        version.id
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 150 * 3);
    }

    #[test]
    fn switching_to_a_geo_spread_policy_rebalances_across_zones() {
        let mut s = build_storage(12);
        // Operations hands down a new placement policy: copies must span
        // three failure zones.  Anti-entropy realises it without any new
        // plumbing, because it asks the routing table for replica sets.
        let policy = ReplicationPolicy::GeoSpread {
            zones: 3,
            copies_per_zone: 1,
        };
        let routing = RoutingTable::build_with_policy(
            &(0..12).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            policy,
        );
        s.set_routing(routing);
        anti_entropy(&mut s).unwrap();
        // Every tuple version now has a copy in every zone.
        for src in s.routing().nodes() {
            for (relation, position, version) in s.store(src).tuples_with_relation() {
                let id = &version.id;
                let mut zones_covered = [false; 3];
                for holder in s.routing().nodes() {
                    if s.store(holder).tuple(relation, position, id).is_some() {
                        zones_covered[zone_of(holder, 3)] = true;
                    }
                }
                assert_eq!(
                    zones_covered, [true; 3],
                    "tuple {id:?} of {relation} not spread across all zones"
                );
            }
        }
        // A second pass finds nothing left to do.
        assert_eq!(anti_entropy(&mut s).unwrap(), ReplicationReport::default());
    }

    #[test]
    fn percentage_policy_raises_the_replication_degree_with_the_cluster() {
        let mut s = build_storage(10);
        // 40% of 10 nodes = degree 4, one more copy than the fixed-factor
        // seeding; anti-entropy tops every item up.
        let routing = RoutingTable::build_with_policy(
            &(0..10).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            ReplicationPolicy::PercentageOfNodes(0.4),
        );
        assert_eq!(routing.replication_factor(), 4);
        s.set_routing(routing);
        let report = anti_entropy(&mut s).unwrap();
        assert!(report.tuples_copied > 0, "degree 3 → 4 requires copies");
        assert_eq!(anti_entropy(&mut s).unwrap(), ReplicationReport::default());
    }

    #[test]
    fn failure_then_reassignment_keeps_data_replicated() {
        let mut s = build_storage(6);
        s.mark_failed(NodeId(2));
        let recovery = s
            .routing()
            .reassign_failed(&orchestra_common::NodeSet::singleton(NodeId(2)))
            .unwrap();
        s.set_routing(recovery);
        let report = anti_entropy(&mut s).unwrap();
        // The heirs of node 2's ranges now need replicas elsewhere.
        assert!(report.tuples_copied > 0 || report.pages_copied > 0);
        let result = s.retrieve("R", Epoch(0), NodeId(0), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 150);
    }
}
