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
//! ## The walk is arc-wise, a word of bits at a time
//!
//! Placement is a property of an *arc* of the ring, not of a tuple: every
//! key inside one routing entry has the same owner and so the same
//! replicas.  The pass therefore resolves the live replica set once per
//! routing entry.  A node holds a tuple version as one bit of a
//! [`crate::SlotSet`] over its relation's version log, and the log is a
//! sequence of runs, each in ring-position order
//! ([`crate::version_log`]), so what one arc places from one run is one
//! range of slots — two for the arc that wraps past the top of the ring,
//! and for a replicated relation, whose single arc is the whole ring and
//! whose replicas are all the live nodes, the whole log.  Over such a
//! range, what a replica lacks is the union of the live nodes' bits minus
//! the replica's own, 64 versions to a word: a range already in place
//! costs an OR per live holder and an AND-NOT per replica per word, and
//! nothing per version.  The copies found are applied grouped by
//! destination and relation, so a destination's store is unshared, and a
//! relation found by name, once per group rather than once per word.
//!
//! ## What `tuples_copied` counts
//!
//! Every source proposes the copies it finds missing, independently: a
//! version that two live holders both find absent from a third node is
//! proposed — and counted — twice, though the node ends up with one copy.
//! [`ReplicationReport::tuples_copied`] is the number of proposals, not of
//! distinct copies made; pages and coordinator records count the same way.
//! On the bits, a word's proposals to one replica are the number of its
//! lacking versions each live node holds, summed over the live nodes.

use crate::coordinator::RelationVersion;
use crate::distributed::DistributedStorage;
use crate::node_store::{span_mask, SlotSet};
use crate::page::IndexPage;
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

    /// The live replicas of the arc holding `position`.
    fn at(&self, position: Key160) -> &[NodeId] {
        // As `RoutingTable::owner_of`: the entry with the greatest start
        // at or below the position, or the last, wrapping, entry.
        let after = self.starts.partition_point(|start| *start <= position);
        let entry = after.checked_sub(1).unwrap_or(self.starts.len() - 1);
        &self.replicas[entry]
    }

    /// The slots each arc places from one run of a version log — the run
    /// starting at slot `first`, whose versions' positions are
    /// `positions`, ascending — with the arc's live replicas: the same
    /// arc [`Self::at`] gives each version's position, as one range per
    /// arc and run (two for the wrapping arc).  Empty ranges are left out.
    fn spans(&self, first: u32, positions: &[Key160]) -> Vec<(&[NodeId], Range<u32>)> {
        // The run is no longer than its log, whose slots fit in a `u32`.
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

/// One relation's versions at every live node, for finding what replicas
/// lack.
struct Holdings<'a> {
    /// By node index: the node's versions, when it is live and holds any.
    by_node: Vec<Option<&'a SlotSet>>,
    /// Every live holder's versions.
    sources: Vec<&'a SlotSet>,
}

impl Holdings<'_> {
    /// Call `lacks(replica, word, bits)` with each word of versions in
    /// `slots` that some live node holds and `replica`, one of
    /// `replicas`, does not; return the copies the live holders propose
    /// for them.
    fn missing(
        &self,
        replicas: &[NodeId],
        slots: Range<u32>,
        mut lacks: impl FnMut(NodeId, usize, u64),
    ) -> usize {
        let mut proposed = 0;
        let words = (slots.start / u64::BITS) as usize..slots.end.div_ceil(u64::BITS) as usize;
        for at in words {
            let mask = span_mask(at, &slots);
            let held = self.sources.iter().fold(0, |any, s| any | s.word(at)) & mask;
            if held == 0 {
                continue;
            }
            for &replica in replicas {
                let has = self.by_node[replica.index()].map_or(0, |own| own.word(at));
                let lacking = held & !has;
                if lacking != 0 {
                    let proposals = self.sources.iter().map(|s| s.word(at) & lacking);
                    proposed += proposals.map(|p| p.count_ones() as usize).sum::<usize>();
                    lacks(replica, at, lacking);
                }
            }
        }
        proposed
    }
}

/// Words of one relation's slots to add at one destination.
type Words = Vec<(usize, u64)>;

/// What one destination lacks, as the sources found it.
#[derive(Default)]
struct Missing {
    /// Grouped by relation (with its log's length), in the order found.
    tuples: Vec<(Arc<str>, usize, Words)>,
    pages: Vec<Arc<IndexPage>>,
    coordinators: Vec<Arc<RelationVersion>>,
}

impl Missing {
    /// Where to add missing versions of `relation`: the last group, if
    /// that is the relation the finds so far ended on, or a new one.
    fn tuples_of(&mut self, relation: &Arc<str>, log_len: usize) -> &mut Words {
        let last = self.tuples.last().map(|(name, _, _)| name);
        if !last.is_some_and(|name| Arc::ptr_eq(name, relation)) {
            self.tuples
                .push((Arc::clone(relation), log_len, Vec::new()));
        }
        &mut self.tuples.last_mut().expect("just pushed").2
    }
}

/// Run one anti-entropy pass over `storage`, copying every item to its
/// owner and replicas under the current routing table.  Items already in
/// place are left untouched; failed nodes are never written to.  A "copy"
/// is a pointer, or for a tuple version a bit: the destination comes to
/// share the source's allocation.
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

    for (relation, log) in storage.version_logs() {
        let mut holdings = Holdings {
            by_node: vec![None; missing.len()],
            sources: Vec::new(),
        };
        for node in &live {
            if let Some(held) = storage.store(*node).tuples(relation) {
                holdings.by_node[node.index()] = Some(held);
                holdings.sources.push(held);
            }
        }
        if holdings.sources.is_empty() {
            continue;
        }
        let name: Arc<str> = Arc::from(relation);
        let mut lacks = |dst: NodeId, at: usize, bits: u64| {
            missing[dst.index()]
                .tuples_of(&name, log.len())
                .push((at, bits))
        };
        if storage
            .relation(relation)
            .is_some_and(|r| r.is_replicated())
        {
            // The log's slots fit in a `u32`.
            let everything = 0..log.len() as u32;
            report.tuples_copied += holdings.missing(&live, everything, &mut lacks);
        } else {
            for (first, positions) in log.runs() {
                for (replicas, slots) in arcs.spans(first, positions) {
                    report.tuples_copied += holdings.missing(replicas, slots, &mut lacks);
                }
            }
        }
    }

    for src in &live {
        let store = storage.store(*src);
        for page in store.index_pages() {
            for dst in arcs.at(page.range.midpoint()) {
                if storage.store(*dst).index_page(&page.id).is_none() {
                    missing[dst.index()].pages.push(Arc::clone(page));
                }
            }
        }
        for version in store.coordinators() {
            for dst in arcs.at(version.key.hash()) {
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
        for (relation, log_len, words) in lacks.tuples {
            let held = store.tuples_mut(&relation, log_len);
            for (at, bits) in words {
                held.insert_word(at, bits);
            }
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

    /// Every version some store holds: its relation, slot and position.
    fn held_versions(s: &DistributedStorage, node: NodeId) -> Vec<(&str, u32, Key160)> {
        let store = s.store(node);
        let held = store.held().flat_map(|(relation, slots)| {
            let log = s.version_log(relation).unwrap();
            slots
                .iter()
                .map(move |slot| (relation, slot, log.position(slot).unwrap()))
        });
        held.collect()
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
            for (relation, slot, position) in held_versions(&s, *src) {
                for &dst in s.routing().replicas_of(position) {
                    assert!(
                        dst == down || s.store(dst).holds(relation, slot),
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
        let log = s.version_log("R").unwrap();
        assert_eq!(log.runs().count(), 2);

        let mut seen = vec![0; log.len()];
        let mut wrapping_spans = Vec::new();
        for (first, positions) in log.runs() {
            let spans = arcs.spans(first, positions);
            let wrapping = arcs.replicas.last().unwrap().as_slice();
            let meets = spans.iter().filter(|(r, _)| std::ptr::eq(*r, wrapping));
            wrapping_spans.push(meets.count());
            for (replicas, slots) in spans {
                for slot in slots {
                    seen[slot as usize] += 1;
                    let position = log.position(slot).unwrap();
                    assert!(std::ptr::eq(replicas, arcs.at(position)), "slot {slot}");
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
                    if s.store(holder).holds(relation, slot) {
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
