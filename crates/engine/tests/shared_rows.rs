//! One allocation from the store to the cache hit.
//!
//! A stored string, the entry of the scan batch's pool, the string in the
//! `QueryReport` row, in the cache entry and in the row a later hit hands
//! out are the same `Arc<str>`; the report's row, the cache's and the
//! hit's are the same `Arc<[Value]>`.  Checked by pointer, end to end,
//! through a distributed scan, an exchange and the serving scheduler.

use orchestra_common::{
    ColumnData, ColumnType, Epoch, NodeId, NodeSet, QueryFingerprint, Relation, Schema, Tuple,
    Value,
};
use orchestra_engine::{
    EngineConfig, EvictionPolicy, PlanBuilder, QuerySession, ResultCache, SchedulerConfig,
    SessionScheduler,
};
use orchestra_simnet::SimTime;
use orchestra_storage::{gather, DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::collections::BTreeMap;
use std::sync::Arc;

const ROWS: i64 = 300;

fn store() -> (DistributedStorage, Epoch) {
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let routing = RoutingTable::build(&nodes, AllocationScheme::Balanced, 2);
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "r",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("name", ColumnType::Str)]),
    ));
    let mut batch = UpdateBatch::new();
    for k in 0..ROWS {
        batch.insert(
            "r",
            Tuple::new(vec![Value::Int(k), Value::str(format!("name-{k}"))]),
        );
    }
    let epoch = storage.publish(&batch).expect("publish");
    (storage, epoch)
}

/// The shared allocation behind a string value.
fn shared(v: &Value) -> &Arc<str> {
    match v {
        Value::Str(s) => s,
        other => panic!("{other} is not a string"),
    }
}

/// Do two tuples share their row (not merely equal it)?
fn same_row(a: &Tuple, b: &Tuple) -> bool {
    std::ptr::eq(a.values(), b.values())
}

#[test]
fn a_string_is_one_allocation_from_the_store_to_the_cache_hit() {
    let (storage, epoch) = store();

    // The store: each node's scan of its own ranges borrows the stored
    // tuples, and the batch built from them pools the stored strings.
    let mut stored: BTreeMap<i64, Tuple> = BTreeMap::new();
    for node in storage.routing().nodes() {
        let ranges = storage.routing().ranges_of(node);
        let scan = storage
            .view()
            .scan_partition_ref("r", epoch, node, &ranges)
            .expect("scan");
        let batch = gather(
            scan.tuples.iter().map(|t| (*t, 1)),
            &[0, 1],
            NodeSet::default(),
            0,
        );
        let ColumnData::Str(ids) = batch.column(1).data() else {
            panic!("the name column is typed");
        };
        for (tuple, id) in scan.tuples.iter().zip(ids) {
            let tuple = tuple.tuple();
            assert!(Arc::ptr_eq(
                batch.pool().get_shared(*id),
                shared(tuple.value(1))
            ));
            stored.insert(tuple.value(0).as_int().expect("key"), tuple);
        }
    }
    assert_eq!(stored.len(), ROWS as usize);

    // The answer: scan at every node, ship to the initiator, report.
    let mut b = PlanBuilder::new();
    let scan = b.scan("r", 2, None);
    let ship = b.ship(scan);
    let plan = b.output(ship);
    let key = QueryFingerprint::of_bytes(b"copy r");
    let session = |name: &str, arrival: SimTime| QuerySession {
        name: name.to_string(),
        plan: plan.clone(),
        epoch,
        initiator: NodeId(1),
        arrival,
        fingerprint: Some(key),
        estimated_cost: 0.0,
        overrides: Default::default(),
        plan_resident: false,
    };
    let mut cache = ResultCache::new(4, EvictionPolicy::Lru);
    let run = SessionScheduler::new(SchedulerConfig::default())
        .run_serving(
            &storage,
            &EngineConfig::default(),
            &[
                session("first", SimTime::ZERO),
                session("again", SimTime::from_millis(60_000)),
            ],
            &mut cache,
        )
        .expect("serving run");
    let [first, again] = &run.sessions[..] else {
        panic!("two sessions complete");
    };
    assert!(!first.served_from_cache && again.served_from_cache);
    let from_cache = cache.lookup(key, epoch).expect("resident");

    assert_eq!(first.report.rows.len(), ROWS as usize);
    for (i, row) in first.report.rows.iter().enumerate() {
        let k = row.value(0).as_int().expect("key");
        // Store → scan batch → exchange → output batch → report row: the
        // string was never copied.
        assert!(Arc::ptr_eq(
            shared(row.value(1)),
            shared(stored[&k].value(1))
        ));
        // Report → signed rows → cache entry → the scheduler's hit → a
        // hit asked for directly: one row.
        assert!(same_row(row, &first.report.signed_rows[i].0));
        assert!(same_row(row, &again.report.rows[i]));
        assert!(same_row(row, &again.report.signed_rows[i].0));
        assert!(same_row(row, &from_cache.rows[i]));
        assert!(same_row(row, &from_cache.signed_rows[i].0));
    }
}
