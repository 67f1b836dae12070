//! End-to-end anti-entropy repair: a node fails, the membership changes,
//! background replication restores the placement invariant — and the
//! *next epoch's* query can then absorb a *second* failure, because the
//! repaired replica sets again cover every range.
//!
//! This is the paper's PAST-style background replication
//! ([`orchestra_storage::replication::anti_entropy`]) wired into the full
//! publication → query → recovery path rather than exercised against raw
//! stores.

use orchestra_common::{ColumnType, Epoch, NodeId, NodeSet, Relation, Schema, Tuple, Value};
use orchestra_engine::{EngineConfig, FailureSpec, PlanBuilder, QueryExecutor, RecoveryStrategy};
use orchestra_simnet::SimTime;
use orchestra_storage::{
    replication::anti_entropy, DistributedStorage, Kind, StorageConfig, UpdateBatch,
};
use orchestra_substrate::{AllocationScheme, RoutingTable};

const FIRST_VICTIM: NodeId = NodeId(2);
const SECOND_VICTIM: NodeId = NodeId(4);
const INITIATOR: NodeId = NodeId(0);

fn row(k: i64, v: &str) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::str(v)])
}

fn scan_plan() -> orchestra_engine::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 2, None);
    let ship = b.ship(scan);
    b.output(ship)
}

#[test]
fn repaired_membership_absorbs_a_second_failure_on_the_next_epoch() {
    // A 6-node cluster with replication factor 3 holding R at epoch 0.
    let routing = RoutingTable::build(
        &(0..6).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
    ));
    let mut expected: Vec<Tuple> = Vec::new();
    let mut b0 = UpdateBatch::new();
    for k in 0..150 {
        let t = row(k, "v0");
        b0.insert("R", t.clone());
        expected.push(t);
    }
    assert_eq!(storage.publish(&b0).unwrap(), Epoch(0));

    // The first victim dies.  The membership changes (its ranges are
    // reassigned to the survivors) and anti-entropy repairs the
    // replication invariant under the new table.
    storage.mark_failed(FIRST_VICTIM);
    let repaired = storage
        .routing()
        .reassign_failed(&NodeSet::singleton(FIRST_VICTIM))
        .unwrap();
    storage.set_routing(repaired);
    let report = anti_entropy(&mut storage).unwrap();
    assert!(
        report.tuples_copied > 0 || report.pages_copied > 0,
        "the heirs of the dead node's ranges need fresh replicas: {report:?}"
    );
    // A second pass finds nothing left to do.
    assert_eq!(anti_entropy(&mut storage).unwrap().tuples_copied, 0);

    // The next epoch publishes through the repaired membership: inserts,
    // modifies and deletes all land on the new owners.
    let mut b1 = UpdateBatch::new();
    for k in 150..170 {
        let t = row(k, "v1");
        b1.insert("R", t.clone());
        expected.push(t);
    }
    for k in 0..10 {
        let t = row(k, "patched");
        b1.modify("R", t.clone());
        expected[k as usize] = t;
    }
    b1.delete("R", vec![Value::Int(33)]);
    expected.retain(|t| t.value(0) != &Value::Int(33));
    assert_eq!(storage.publish(&b1).unwrap(), Epoch(1));
    expected.sort();

    // Failure-free sanity check at the new epoch.
    let plan = scan_plan();
    let baseline = QueryExecutor::new(&storage, EngineConfig::default())
        .execute(&plan, Epoch(1), INITIATOR)
        .unwrap();
    assert_eq!(baseline.rows, expected);

    // A *second* node dies mid-query.  Because anti-entropy restored
    // full replication after the first loss, both recovery strategies
    // still reproduce the exact epoch-1 answer.
    let halfway = SimTime::from_micros(baseline.running_time.as_micros() / 2);
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let report = QueryExecutor::new(&storage, config)
            .execute_with_failure(
                &plan,
                Epoch(1),
                INITIATOR,
                FailureSpec::at_time(SECOND_VICTIM, halfway),
            )
            .unwrap();
        assert!(
            report.recovered,
            "{strategy:?}: the mid-query failure must engage recovery"
        );
        assert_eq!(
            report.rows, expected,
            "{strategy:?}: the second failure must be absorbed exactly"
        );
    }
}

#[test]
fn anti_entropy_restores_scan_colocation_after_a_membership_change() {
    // Contrast case documenting *what* the repair buys: after the
    // membership change, the heirs of the dead node's ranges do not yet
    // hold the tuples they now own, so their scans must fetch from
    // replicas across the network.  One anti-entropy pass restores the
    // co-location invariant and scans are fully local again.
    let routing = RoutingTable::build(
        &(0..6).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
    ));
    let mut b0 = UpdateBatch::new();
    for k in 0..150 {
        b0.insert("R", row(k, "v0"));
    }
    storage.publish(&b0).unwrap();

    storage.mark_failed(FIRST_VICTIM);
    let repaired = storage
        .routing()
        .reassign_failed(&NodeSet::singleton(FIRST_VICTIM))
        .unwrap();
    storage.set_routing(repaired);

    // Replication degree of the worst-off tuple version: how many live
    // stores hold a copy.  Losing one of three replica holders leaves
    // some versions at degree 2 until the background pass re-replicates
    // them under the new table.
    let min_degree = |storage: &DistributedStorage| -> usize {
        let live: Vec<NodeId> = storage
            .routing()
            .nodes()
            .into_iter()
            .filter(|n| !storage.failed_nodes().contains(*n))
            .collect();
        let mut min = usize::MAX;
        for node in &live {
            for relation in storage.relations().map(|r| r.name()) {
                let held = |n: NodeId| storage.held(n, relation, Kind::Tuple);
                for slot in held(*node).into_iter().flat_map(|h| h.iter()) {
                    let holds = |holder: &&NodeId| held(**holder).is_some_and(|h| h.contains(slot));
                    min = min.min(live.iter().filter(holds).count());
                }
            }
        }
        min
    };
    assert_eq!(
        min_degree(&storage),
        2,
        "losing one of three replica holders leaves degree-2 versions before repair"
    );
    anti_entropy(&mut storage).unwrap();
    assert_eq!(
        min_degree(&storage),
        3,
        "one anti-entropy pass must restore the full replication degree"
    );
}
