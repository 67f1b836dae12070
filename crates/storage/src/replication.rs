//! Background (anti-entropy) replication.
//!
//! The paper replicates data only as it is inserted and defers a
//! PAST-style Bloom-filter background replication scheme to future work
//! ("For completeness we plan to implement the Bloom filter-based
//! background replication approach of the Pastry-based PAST storage
//! system").  This module provides that missing piece in a simple form: an
//! anti-entropy pass that compares every live node's state and copies each
//! item to the owner and replicas designated by the *current* routing
//! table.  Running it after a membership change restores the placement
//! invariant, so subsequent failures can again be absorbed by neighbours.
//!
//! ## The walk is arc-wise, a word of bits at a time
//!
//! Placement is a property of an *arc* of the ring, not of an item: every
//! position inside one routing entry has the same owner and so the same
//! replicas.  The pass therefore resolves the live replica set once per
//! routing entry.  A node holds any item — coordinator record, page
//! version or tuple version — as one bit of a [`crate::SlotSet`] that its
//! relation's log keeps for it, one per node and kind, and a log is a
//! sequence of runs, one per publication, whose items of each kind are in
//! ring-position order ([`crate::version_log`]; a run has one record), so
//! what one arc places from one run's items of a kind is one range of
//! slots — two for the arc that wraps past the top of the ring, and for
//! the tuple versions of a replicated relation, whose single arc is the
//! whole ring and whose replicas are all the live nodes, every slot of the
//! kind.  One loop over every relation's log and every kind handles all
//! three kinds alike.
//! Over such a range, what a replica lacks is the union of the live nodes'
//! bits minus the replica's own, 64 items to a word: a range already in
//! place costs an OR per live holder and an AND-NOT per replica per word,
//! and nothing per item.  The words a kind's replicas lack are ORed into
//! that kind's holder bits once the kind has been compared, and only a log
//! with something to add is written to, so a pass that finds everything in
//! place writes nothing and unshares no clone; one that does copies the
//! log's run pointers and holder bits, never a run.
//!
//! ## What `tuples_copied` counts
//!
//! Copies made: an item a replica lacks is counted once, however many live
//! nodes hold it.  [`ReplicationReport::pages_copied`] and
//! [`ReplicationReport::coordinators_copied`] count the same way.  On the
//! bits, a word's copies to one replica are the items it lacks.

use crate::distributed::DistributedStorage;
use crate::node_store::{span_mask, Holders, SlotSet};
use crate::version_log::Kind;
use orchestra_common::{Key160, NodeId, NodeSet, Result};
use orchestra_substrate::RoutingTable;
use std::ops::Range;
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

impl ReplicationReport {
    /// The count of copies of `kind`.
    fn copied(&mut self, kind: Kind) -> &mut usize {
        match kind {
            Kind::Record => &mut self.coordinators_copied,
            Kind::Page => &mut self.pages_copied,
            Kind::Tuple => &mut self.tuples_copied,
        }
    }
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

    /// The slots each arc places from one run's items of a kind — starting
    /// at slot `first`, their positions `positions`, ascending —
    /// with the arc's live replicas: the arc holding each item's position,
    /// the entry with the greatest start at or below it or else the last,
    /// wrapping, entry (as `RoutingTable::owner_of`), as one range per arc
    /// and run (two for the wrapping arc).  Empty ranges are left out.
    fn spans(&self, first: u32, positions: &[Key160]) -> Vec<(&[NodeId], Range<u32>)> {
        // A run has no more slots than its log, whose slots fit in a `u32`.
        let cut = |start: &Key160| first + positions.partition_point(|p| p < start) as u32;
        let mut cuts: Vec<u32> = self.starts.iter().map(cut).collect();
        let below_first = first..cuts[0];
        cuts.push(first + positions.len() as u32);
        let mut spans: Vec<(&[NodeId], Range<u32>)> = (cuts.windows(2).enumerate())
            .map(|(entry, cut)| (self.replicas[entry].as_slice(), cut[0]..cut[1]))
            .collect();
        if let Some(last) = self.replicas.last() {
            spans.push((last, below_first));
        }
        spans.retain(|(_, slots)| !slots.is_empty());
        spans
    }
}

/// What every live node holds of one kind of one relation's log, for
/// finding what replicas lack.
struct Holdings<'a> {
    /// Every node's slots of the log.
    holders: &'a Holders,
    /// Every live holder's slots.
    sources: Vec<&'a SlotSet>,
}

impl Holdings<'_> {
    /// Add to `lacking` each word of items in `slots` that some live node
    /// holds and a replica, one of `replicas` (all live), does not, as
    /// `(replica, word, bits)`; return the number of copies that makes.
    fn missing(
        &self,
        replicas: &[NodeId],
        slots: Range<u32>,
        lacking: &mut Vec<(NodeId, usize, u64)>,
    ) -> usize {
        let mut copies = 0;
        let words = (slots.start / u64::BITS) as usize..slots.end.div_ceil(u64::BITS) as usize;
        for at in words {
            let mask = span_mask(at, &slots);
            let held = self.sources.iter().fold(0, |any, s| any | s.word(at)) & mask;
            if held == 0 {
                continue;
            }
            for &replica in replicas {
                let has = self.holders.of(replica).map_or(0, |own| own.word(at));
                let lacks = held & !has;
                if lacks != 0 {
                    copies += lacks.count_ones() as usize;
                    lacking.push((replica, at, lacks));
                }
            }
        }
        copies
    }
}

/// Run one anti-entropy pass over `storage`, copying every item to its
/// owner and replicas under the current routing table.  Items already in
/// place are left untouched; failed nodes are never written to.  A "copy"
/// is a bit: the destination comes to hold the item the log stores once.
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

    let mut lacking = Vec::new();
    for (replicated, log) in storage.logs_mut() {
        for kind in Kind::ALL {
            // Compare the holdings of the log's items of `kind`, then add
            // what replicas lack.
            let holders = log.holders(kind);
            let holdings = Holdings {
                holders,
                sources: (live.iter()).filter_map(|node| holders.of(*node)).collect(),
            };
            let copied = report.copied(kind);
            let log_len = log.len(kind);
            if replicated && kind == Kind::Tuple {
                // The log's slots fit in a `u32`.
                let everything = 0..log_len as u32;
                *copied += holdings.missing(&live, everything, &mut lacking);
            } else {
                for (first, positions) in log.runs().iter().map(|run| run.placed(kind)) {
                    for (replicas, slots) in arcs.spans(first, positions) {
                        *copied += holdings.missing(replicas, slots, &mut lacking);
                    }
                }
            }
            if lacking.is_empty() {
                continue;
            }
            let holders = Arc::make_mut(log).holders_mut(kind);
            for (replica, at, bits) in lacking.drain(..) {
                holders.of_mut(replica, log_len).insert_word(at, bits);
            }
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

    /// Every version some node holds: its relation, slot and position.
    fn held_versions(s: &DistributedStorage, node: NodeId) -> Vec<(&str, u32, Key160)> {
        let held = s.relations().filter_map(|relation| {
            let relation = relation.name();
            Some((
                relation,
                s.held(node, relation, Kind::Tuple)?,
                s.log(relation)?,
            ))
        });
        let versions = held.flat_map(|(relation, slots, log)| {
            let position = move |slot| log.position(Kind::Tuple, slot).unwrap();
            (slots.iter()).map(move |slot| (relation, slot, position(slot)))
        });
        versions.collect()
    }

    /// Does `node` hold the version of `relation` at `slot`?
    fn holds(s: &DistributedStorage, node: NodeId, relation: &str, slot: u32) -> bool {
        s.held(node, relation, Kind::Tuple)
            .is_some_and(|h| h.contains(slot))
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
        assert_eq!(s.held_count(NodeId(6), Kind::Tuple), 0);
        let report = anti_entropy(&mut s).unwrap();
        assert!(report.tuples_copied > 0);
        assert!(s.held_count(NodeId(6), Kind::Tuple) > 0);
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
        let held_by_down = s.held_count(down, Kind::Tuple);
        assert!(anti_entropy(&mut s).unwrap().tuples_copied > 0);
        assert_eq!(s.held_count(down, Kind::Tuple), held_by_down);
        let mut checked = 0;
        for src in nodes.iter().filter(|n| **n != down) {
            for (relation, slot, position) in held_versions(&s, *src) {
                for &dst in s.routing().replicas_of(position) {
                    assert!(
                        dst == down || holds(&s, dst, relation, slot),
                        "{dst} lacks slot {slot} at {position}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 150 * 3);
    }

    #[test]
    fn an_arc_is_one_range_of_slots_per_run() {
        // Nearest-hash placement has an arc that wraps past the top of the
        // ring; the log has a small run and one large enough to reach
        // below the first arc's start.
        let mut s = build_storage(6);
        let mut b = UpdateBatch::new();
        for i in 150..2_150 {
            b.insert("R", Tuple::new(vec![Value::Int(i), Value::str("y")]));
        }
        s.publish(&b).unwrap();
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let routing = RoutingTable::build(&nodes, AllocationScheme::PastryStyle, 3);
        let arcs = Arcs::new(&routing, &NodeSet::singleton(NodeId(4)));
        let log = s.log("R").unwrap();
        assert_eq!(log.runs().len(), 2);

        let mut seen = vec![0; log.len(Kind::Tuple)];
        let mut wrapping_spans = Vec::new();
        for (first, positions) in log.runs().iter().map(|run| run.placed(Kind::Tuple)) {
            let spans = arcs.spans(first, positions);
            let wrapping = arcs.replicas.last().unwrap().as_slice();
            let meets = spans.iter().filter(|(r, _)| std::ptr::eq(*r, wrapping));
            wrapping_spans.push(meets.count());
            for (replicas, slots) in spans {
                for slot in slots {
                    seen[slot as usize] += 1;
                    let position = log.position(Kind::Tuple, slot).unwrap();
                    // As `RoutingTable::owner_of`: the entry with the
                    // greatest start at or below the position, or the
                    // last, wrapping, entry.
                    let after = arcs.starts.partition_point(|start| *start <= position);
                    let entry = after.checked_sub(1).unwrap_or(arcs.starts.len() - 1);
                    assert!(
                        std::ptr::eq(replicas, &arcs.replicas[entry][..]),
                        "slot {slot}"
                    );
                }
            }
        }
        assert!(
            seen.iter().all(|n| *n == 1),
            "every slot in exactly one span"
        );
        assert_eq!(
            wrapping_spans[1], 2,
            "the large run meets the wrapping arc twice"
        );
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
            for (relation, slot, _) in held_versions(&s, src) {
                let mut zones_covered = [false; 3];
                for holder in s.routing().nodes() {
                    if holds(&s, holder, relation, slot) {
                        zones_covered[zone_of(holder, 3)] = true;
                    }
                }
                assert_eq!(
                    zones_covered, [true; 3],
                    "slot {slot} of {relation} not spread across all zones"
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
