//! Probes: direct calls into layers that an operation only reaches
//! through the engine, so their cost can be read on its own.  They run in
//! the traced pass only, between operations, and never inside one.

use crate::harness::Tracer;
use crate::workload::Stats;
use orchestra_common::{Epoch, KeyRange, NodeId, TupleId, Value};
use orchestra_optimizer::LogicalQuery;
use orchestra_simnet::{ClusterProfile, SimTime, Simulator};
use orchestra_storage::DistributedStorage;
use std::hint::black_box;

/// What the engine's distributed scan costs in storage alone: every
/// node's `scan_partition` over the ranges it owns, as one span.
pub fn scan_sweep(
    t: &mut Tracer,
    stats: &mut Stats,
    storage: &DistributedStorage,
    relation: &str,
    epoch: Epoch,
) {
    let routing = storage.routing();
    let owned: Vec<(NodeId, Vec<KeyRange>)> = routing
        .nodes()
        .into_iter()
        .map(|node| (node, routing.ranges_of(node)))
        .collect();
    let scans = t.call("storage.scan_partition", || {
        owned
            .iter()
            .map(|(node, ranges)| storage.scan_partition(relation, epoch, *node, ranges))
            .collect::<Vec<_>>()
    });
    for scan in scans.into_iter().flatten() {
        stats.add("storage.scan_rows", scan.tuples_read as f64);
        stats.add("storage.scan_pages_read", scan.pages_read as f64);
        stats.add("storage.scan_remote_lookups", scan.remote_lookups as f64);
    }
}

/// An Algorithm-1 key lookup.
pub fn retrieve(t: &mut Tracer, storage: &DistributedStorage, relation: &str, epoch: Epoch) {
    let wanted = Value::Int(7);
    let _ = black_box(t.call("storage.retrieve", || {
        storage.retrieve(relation, epoch, NodeId(0), &|key| key[0] == wanted)
    }));
}

/// What every failure and stale-snapshot run pays before it starts.
pub fn clone_store(t: &mut Tracer, storage: &DistributedStorage) {
    let copy = t.call("storage.clone", || storage.clone());
    drop(copy);
}

pub fn fingerprint(t: &mut Tracer, logical: &LogicalQuery) {
    black_box(t.call("optimizer.fingerprint", || {
        orchestra_optimizer::fingerprint(logical)
    }));
}

/// The simulator's event loop on its own: batches of messages sent
/// around a six-node LAN and popped again.
pub fn simnet_events(t: &mut Tracer, stats: &mut Stats) {
    const NODES: u16 = 6;
    const BATCHES: usize = 4;
    const BATCH: usize = 10_000;
    let mut sim: Simulator<u64> = Simulator::new(NODES as usize, ClusterProfile::lan_cluster());
    for batch in 0..BATCHES {
        let ((), nanos) = t.call_timed("simnet.events", || {
            let now = sim.now();
            for m in 0..BATCH {
                let src = NodeId((m % NODES as usize) as u16);
                let dst = NodeId(((m + 1 + batch) % NODES as usize) as u16);
                sim.send(
                    src,
                    dst,
                    256,
                    now + SimTime::from_micros(m as u64),
                    m as u64,
                );
            }
            while let Some(delivery) = sim.next() {
                black_box(delivery.payload);
            }
        });
        stats.sample("simnet.event_ns", nanos as f64 / BATCH as f64);
        stats.add("simnet.events", BATCH as f64);
    }
}

/// The SHA-1 ring key of a tuple id, which every publish and every
/// routed row computes.
pub fn key_hash(t: &mut Tracer, stats: &mut Stats) {
    const IDS: usize = 10_000;
    let ids: Vec<TupleId> = (0..IDS as i64)
        .map(|k| TupleId::new(vec![Value::Int(k)], Epoch(0)))
        .collect();
    let ((), nanos) = t.call_timed("common.key_hash", || {
        for id in &ids {
            black_box(id.hash_key());
        }
    });
    stats.sample("common.key_hash_ns", nanos as f64 / IDS as f64);
}
