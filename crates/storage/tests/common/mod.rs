//! A seeded, churned store shared by the read-path tests: eight nodes,
//! replication 3, a partitioned relation `R` (bulk load plus four epochs
//! of modifies, deletes and inserts) and a small replicated relation `N`.

use orchestra_common::{rng, ColumnType, Epoch, NodeId, Relation, Schema, Tuple, Value};
use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};

pub const NODES: u16 = 8;
pub const BULK_ROWS: i64 = 600;
pub const CHURN_EPOCHS: usize = 4;

pub fn routing_over(nodes: u16) -> RoutingTable {
    RoutingTable::build(
        &(0..nodes).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    )
}

fn row(k: i64, generation: u64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(format!("name-{k}-g{generation}")),
        Value::Int(k * 7 + generation as i64),
    ])
}

/// The store and the epochs it was published at (bulk load first).
pub fn seeded_store() -> (DistributedStorage, Vec<Epoch>) {
    let mut storage = DistributedStorage::new(
        routing_over(NODES),
        StorageConfig {
            partitions_per_relation: 16,
        },
    );
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("name", ColumnType::Str),
            ("v", ColumnType::Int),
        ]),
    ));
    storage.register_relation(Relation::replicated(
        "N",
        Schema::keyed_on_first(vec![("id", ColumnType::Int), ("name", ColumnType::Str)]),
    ));

    let mut bulk = UpdateBatch::new();
    for k in 0..BULK_ROWS {
        bulk.insert("R", row(k, 0));
    }
    for id in 0..10 {
        bulk.insert(
            "N",
            Tuple::new(vec![Value::Int(id), Value::str(format!("nation-{id}"))]),
        );
    }
    let mut epochs = vec![storage.publish(&bulk).unwrap()];

    let mut r = rng::seeded(0x5ca9);
    let mut live: Vec<i64> = (0..BULK_ROWS).collect();
    let mut next_key = BULK_ROWS;
    for generation in 1..=CHURN_EPOCHS as u64 {
        let mut batch = UpdateBatch::new();
        for _ in 0..40 {
            let k = live[r.random_range(0..live.len())];
            batch.modify("R", row(k, generation));
        }
        for _ in 0..15 {
            let k = live.swap_remove(r.random_range(0..live.len()));
            batch.delete("R", vec![Value::Int(k)]);
        }
        for _ in 0..25 {
            batch.insert("R", row(next_key, generation));
            live.push(next_key);
            next_key += 1;
        }
        epochs.push(storage.publish(&batch).unwrap());
    }
    (storage, epochs)
}
