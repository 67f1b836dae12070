//! Covering-index scans answer key-only queries from the index pages
//! alone.  Since the pages carry each key's ring position, the scan
//! filters entries to the scanning node's ranges without hashing — which
//! must not change what it returns: the keys, the pages read, and the
//! bytes shipped and simulated running time (both of which move if the
//! emission order moves a batch boundary), on a healthy cluster and with
//! a failed page owner (the page is read from a replica).  The
//! fingerprints were recorded at the commit before pages cached
//! positions; this file uses only API present on both sides.

use orchestra_common::sha1::{sha1, to_hex};
use orchestra_common::{ColumnType, Epoch, NodeId, NodeSet, Relation, Schema, Tuple, Value};
use orchestra_engine::{CmpOp, EngineConfig, PlanBuilder, Predicate, QueryExecutor, QueryReport};
use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};

const ROWS: i64 = 500;

fn cluster() -> (DistributedStorage, Epoch) {
    let routing = RoutingTable::build(
        &(0..8).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut storage = DistributedStorage::new(
        routing,
        StorageConfig {
            partitions_per_relation: 16,
        },
    );
    storage.register_relation(Relation::partitioned(
        "sales",
        Schema::keyed_on_first(vec![("item", ColumnType::Int), ("amount", ColumnType::Int)]),
    ));
    let mut bulk = UpdateBatch::new();
    for item in 0..ROWS {
        bulk.insert(
            "sales",
            Tuple::new(vec![Value::Int(item), Value::Int(item * 3)]),
        );
    }
    storage.publish(&bulk).unwrap();
    // A second epoch, so pages hold entries carried forward from the
    // first beside entries published by the second.
    let mut churn = UpdateBatch::new();
    for item in (0..ROWS).step_by(7) {
        churn.modify(
            "sales",
            Tuple::new(vec![Value::Int(item), Value::Int(-item)]),
        );
    }
    for item in (0..ROWS).filter(|item| deleted(*item)) {
        churn.delete("sales", vec![Value::Int(item)]);
    }
    for item in ROWS..ROWS + 40 {
        churn.insert("sales", Tuple::new(vec![Value::Int(item), Value::Int(1)]));
    }
    let epoch = storage.publish(&churn).unwrap();
    (storage, epoch)
}

/// The second epoch deletes these (never a key it also modifies).
fn deleted(item: i64) -> bool {
    item % 11 == 3 && item % 7 != 0
}

fn expected_keys() -> Vec<Tuple> {
    let mut keys: Vec<Tuple> = (0..300)
        .filter(|item| !deleted(*item))
        .map(|item| Tuple::new(vec![Value::Int(item)]))
        .collect();
    keys.sort();
    keys
}

fn digest(report: &QueryReport) -> String {
    let mut bytes = Vec::new();
    for (tuple, sign) in &report.signed_rows {
        tuple.encode_to(&mut bytes);
        bytes.push(*sign as u8);
    }
    format!(
        "rows={} pages={} scanned={} bytes={} time_us={}",
        &to_hex(&sha1(&bytes))[..16],
        report.pages_read,
        report.tuples_scanned,
        report.total_bytes,
        report.running_time.as_micros(),
    )
}

#[test]
fn covering_scan_matches_the_recorded_seed_behaviour() {
    let (mut storage, epoch) = cluster();
    let mut b = PlanBuilder::new();
    let scan = b.covering_index_scan("sales", 1, Some(Predicate::cmp(0, CmpOp::Lt, 300i64)));
    let ship = b.ship(scan);
    let plan = b.output(ship);

    let run = |storage: &DistributedStorage| {
        let report = QueryExecutor::new(storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap();
        assert_eq!(report.rows, expected_keys());
        digest(&report)
    };
    let healthy = run(&storage);

    let victim = NodeId(5);
    storage.mark_failed(victim);
    let recovery = storage
        .routing()
        .reassign_failed(&NodeSet::singleton(victim))
        .unwrap();
    storage.set_routing(recovery);
    let failed_owner = run(&storage);

    assert_eq!(
        [healthy.as_str(), failed_owner.as_str()],
        [
            "rows=fb4d9e8881513013 pages=23 scanned=0 bytes=18680 time_us=2974",
            "rows=fb4d9e8881513013 pages=24 scanned=0 bytes=17741 time_us=3176",
        ]
    );
}

/// A `keys`-row `customer(c_custkey, c_mktsegment)` relation on `nodes`
/// nodes, then one epoch deleting every key from `kept` on.  Returns the
/// storage and the last epoch.
fn customers(nodes: u16, keys: i64, kept: i64) -> (DistributedStorage, Epoch) {
    let routing = RoutingTable::build(
        &(0..nodes).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "customer",
        Schema::keyed_on_first(vec![
            ("c_custkey", ColumnType::Int),
            ("c_mktsegment", ColumnType::Str),
        ]),
    ));
    let mut bulk = UpdateBatch::new();
    for key in 0..keys {
        bulk.insert(
            "customer",
            Tuple::new(vec![Value::Int(key), Value::str("BUILDING")]),
        );
    }
    let mut epoch = storage.publish(&bulk).unwrap();
    if kept < keys {
        let mut deletes = UpdateBatch::new();
        for key in kept..keys {
            deletes.delete("customer", vec![Value::Int(key)]);
        }
        epoch = storage.publish(&deletes).unwrap();
    }
    (storage, epoch)
}

/// `SELECT c_custkey FROM customer WHERE c_custkey >= 0`, shipped to n0
/// from a covering-index scan and from a distributed scan: both must
/// return `0..kept`, although some node's partition holds no key.
fn assert_filtered_key_scans_answer(storage: &DistributedStorage, epoch: Epoch, kept: i64) {
    let filter = Some(Predicate::cmp(0, CmpOp::Ge, 0i64));
    let mut covering = PlanBuilder::new();
    let scan = covering.covering_index_scan("customer", 1, filter.clone());
    let ship = covering.ship(scan);
    let mut distributed = PlanBuilder::new();
    let scan = distributed.scan("customer", 2, filter);
    let key = distributed.project(scan, vec![0]);
    let ship = [ship, distributed.ship(key)];
    let plans = [covering.output(ship[0]), distributed.output(ship[1])];
    let expected: Vec<Tuple> = (0..kept).map(|k| Tuple::new(vec![Value::Int(k)])).collect();
    for plan in &plans {
        let report = QueryExecutor::new(storage, EngineConfig::default())
            .execute(plan, epoch, NodeId(0))
            .unwrap();
        assert_eq!(report.rows, expected, "{}", plan.render());
    }
}

#[test]
fn a_filtered_covering_scan_answers_with_fewer_keys_than_nodes() {
    let (storage, epoch) = customers(8, 3, 3);
    assert_filtered_key_scans_answer(&storage, epoch, 3);
}

#[test]
fn a_filtered_covering_scan_answers_after_deletes_empty_a_partition() {
    let (storage, epoch) = customers(4, 30, 4);
    assert_filtered_key_scans_answer(&storage, epoch, 4);
}
