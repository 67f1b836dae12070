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

use crate::distributed::DistributedStorage;
use orchestra_common::{NodeId, Result};
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

    // Collect the work first (immutably), then apply it, to keep borrows
    // simple and the pass deterministic.
    let mut tuple_copies = Vec::new();
    let mut page_copies = Vec::new();
    let mut coordinator_copies = Vec::new();

    for src in &live {
        let store = storage.store(*src);
        // Tuples arrive grouped by relation: name and placement rule are
        // resolved once per group, not once per tuple.
        let mut name: Arc<str> = Arc::from("");
        let mut replicated = false;
        for (relation, position, version) in store.tuples_with_relation() {
            if *name != *relation {
                name = Arc::from(relation);
                replicated = storage
                    .relation(relation)
                    .is_some_and(|r| r.is_replicated());
            }
            let targets: Vec<NodeId> = if replicated {
                live.clone()
            } else {
                storage
                    .routing()
                    .replicas_of(position)
                    .into_iter()
                    .filter(|n| !failed.contains(*n))
                    .collect()
            };
            for dst in targets {
                if storage
                    .store(dst)
                    .tuple_version(relation, position, &version.id)
                    .is_none()
                {
                    tuple_copies.push((dst, Arc::clone(&name), position, Arc::clone(version)));
                }
            }
        }
        for page in store.index_pages() {
            let key = page.range.midpoint();
            for dst in storage.routing().replicas_of(key) {
                if failed.contains(dst) {
                    continue;
                }
                if storage.store(dst).index_page(&page.id).is_none() {
                    page_copies.push((dst, Arc::clone(page)));
                }
            }
        }
        for version in store.coordinators() {
            let key = version.key.hash();
            for dst in storage.routing().replicas_of(key) {
                if failed.contains(dst) {
                    continue;
                }
                if storage.store(dst).coordinator(&version.key).is_none() {
                    coordinator_copies.push((dst, Arc::clone(version)));
                }
            }
        }
    }

    for (dst, relation, position, version) in tuple_copies {
        storage
            .store_mut(dst)
            .put_tuple(&relation, position, version);
        report.tuples_copied += 1;
    }
    for (dst, page) in page_copies {
        storage.store_mut(dst).put_index_page(page);
        report.pages_copied += 1;
    }
    for (dst, version) in coordinator_copies {
        storage.store_mut(dst).put_coordinator(version);
        report.coordinators_copied += 1;
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
