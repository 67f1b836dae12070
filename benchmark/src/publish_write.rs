//! `publish_write`: the storage layer used the other way — writes beside
//! reads, no engine, no simulator.  A gain for scans that costs
//! publication shows here.
//!
//! One round is: a fresh store, one bulk publication of the whole TPC-H
//! batch, a run of small churn epochs, then the repair after a node
//! departs.  Every publication is followed through the way a publishing
//! participant would: which relations changed, their deltas (cold memo),
//! fresh statistics, and the adaptive statistics absorbing the delta.

use crate::harness::Tracer;
use crate::probes;
use crate::workload::{Failure, OpResult, Plan, Scale, Stats, Workload};
use orchestra_common::{Epoch, KeyRange, NodeId, Result, Tuple};
use orchestra_optimizer::{AdaptiveStats, Statistics};
use orchestra_storage::{anti_entropy, DistributedStorage, StorageConfig, Update, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use orchestra_workloads::{
    epoch_stream, EpochSpec, EpochStream, TableSet, TpchQuery, TpchWorkload, Workload as Catalogue,
};

const NODES: u16 = 8;
const REPLICATION: usize = 3;
const LINEITEM_ROWS: usize = 40_000;
const CHURN_EPOCHS: usize = 16;
const CHURN: EpochSpec = EpochSpec {
    inserts: 400,
    modifies: 400,
    deletes: 200,
};

fn churn_epochs(scale: Scale) -> usize {
    scale.rows(CHURN_EPOCHS, 4)
}

/// One round is the bulk publication, the churn epochs and the repair;
/// the warm-up is one whole round.
pub fn plan(scale: Scale) -> Plan {
    let round = churn_epochs(scale) + 2;
    Plan {
        warm_up: round,
        round,
        ops_per_second: 9.9,
    }
}

/// Bytes a participant ships to publish `batch`: its rows and keys as
/// serialized.
fn serialized_size(batch: &UpdateBatch) -> u64 {
    batch
        .relations()
        .flat_map(|relation| batch.updates_for(relation))
        .map(|update| match update {
            Update::Insert(t) | Update::Modify(t) => t.serialized_size() as u64,
            Update::Delete(key) => Tuple::new(key.clone()).serialized_size() as u64,
        })
        .sum()
}

/// The store of the round in progress.
struct Round {
    storage: DistributedStorage,
    adaptive: AdaptiveStats,
    latest: Epoch,
}

pub struct PublishWrite {
    donor: TpchWorkload,
    base: UpdateBatch,
    stream: EpochStream,
    /// Serialized bytes of the base batch, then of each churn batch.
    batch_bytes: Vec<u64>,
    full: RoutingTable,
    /// The table after the highest node departs.
    shrunk: RoutingTable,
    churn_epochs: usize,
    round: Option<Round>,
}

impl PublishWrite {
    pub fn set_up(seed: u64, scale: Scale) -> Result<PublishWrite> {
        let donor = TpchWorkload::scaled(TpchQuery::Q1, seed, scale.rows(LINEITEM_ROWS, 400));
        let spec = EpochSpec {
            inserts: scale.rows(CHURN.inserts, 4),
            modifies: scale.rows(CHURN.modifies, 4),
            deletes: scale.rows(CHURN.deletes, 2),
        };
        let churn_epochs = churn_epochs(scale);
        let base = donor.batch();
        let stream = epoch_stream(&donor, seed, &vec![spec; churn_epochs])?;
        let mut batch_bytes = vec![serialized_size(&base)];
        batch_bytes.extend((0..stream.len()).map(|i| serialized_size(stream.batch(i))));
        let nodes: Vec<NodeId> = (0..NODES).map(NodeId).collect();
        Ok(PublishWrite {
            donor,
            base,
            stream,
            batch_bytes,
            full: RoutingTable::build(&nodes, AllocationScheme::Balanced, REPLICATION),
            shrunk: RoutingTable::build(
                &nodes[..nodes.len() - 1],
                AllocationScheme::Balanced,
                REPLICATION,
            ),
            churn_epochs,
            round: None,
        })
    }

    /// A publication and what a publishing participant does next.
    fn publish(
        t: &mut Tracer,
        stats: &mut Stats,
        round: &mut Round,
        span: &'static str,
        batch: &UpdateBatch,
    ) -> OpResult {
        let Round {
            storage,
            adaptive,
            latest,
        } = round;
        let from = *latest;
        let to = t.call(span, || storage.publish(batch))?;
        stats.add("storage.publish_rows", batch.len() as f64);
        let changed = t.call("storage.changed_relations", || {
            storage.changed_relations(from, to)
        });
        for relation in &changed {
            let delta = t.call("storage.delta", || storage.delta(relation, from, to))?;
            stats.add("storage.delta_signed_rows", delta.signed_row_count() as f64);
        }
        t.call("optimizer.stats_collect", || {
            Statistics::collect(storage, to)
        });
        t.call("optimizer.adaptive_absorb", || {
            adaptive.absorb(storage, from, to)
        })?;
        *latest = to;
        Ok(())
    }

    /// The oracle: coordinator cardinalities and a full sweep of every
    /// live node's partitions must equal the stream's tables.
    fn check(storage: &DistributedStorage, epoch: Epoch, expected: &TableSet) -> OpResult {
        let routing = storage.routing();
        for (relation, rows) in expected {
            let cardinality = storage.relation_cardinality(relation, epoch);
            if cardinality != rows.len() {
                return Err(Failure(format!(
                    "{relation} at {epoch}: coordinator counts {cardinality} rows, the stream has {}",
                    rows.len()
                )));
            }
            let mut stored: Vec<Tuple> = Vec::with_capacity(rows.len());
            for node in routing.nodes() {
                let ranges: Vec<KeyRange> = routing.ranges_of(node);
                stored.extend(
                    storage
                        .scan_partition(relation, epoch, node, &ranges)?
                        .tuples,
                );
            }
            stored.sort();
            let mut reference = rows.clone();
            reference.sort();
            if stored != reference {
                return Err(Failure(format!(
                    "{relation} at {epoch}: a full sweep returns {} rows that differ from the stream's {}",
                    stored.len(),
                    reference.len()
                )));
            }
        }
        Ok(())
    }
}

impl Workload for PublishWrite {
    fn run_op(&mut self, t: &mut Tracer, stats: &mut Stats, i: usize) -> OpResult {
        let step = i % (self.churn_epochs + 2);
        if step == 0 {
            // Tearing down the previous round's store is the harness's
            // cost, not the product's.
            t.untimed(|| self.round = None);
            // A fresh store, with an empty birth epoch so the base batch
            // arrives as a delta like every later publication.
            let relations = self.donor.relations();
            let mut storage = t.call("storage.new", || {
                let mut storage =
                    DistributedStorage::new(self.full.clone(), StorageConfig::default());
                for relation in relations {
                    storage.register_relation(relation);
                }
                storage
            });
            let birth = t.call("storage.publish_birth", || {
                storage.publish(&UpdateBatch::new())
            })?;
            let mut round = Round {
                storage,
                adaptive: AdaptiveStats::new(),
                latest: birth,
            };
            stats.sim_bytes(self.batch_bytes[0]);
            let outcome = Self::publish(t, stats, &mut round, "storage.publish_bulk", &self.base);
            self.round = Some(round);
            return outcome;
        }
        let Some(round) = self.round.as_mut() else {
            return Err(Failure("the round's bulk publication never ran".into()));
        };
        if step <= self.churn_epochs {
            let epoch = step - 1;
            stats.sim_bytes(self.batch_bytes[step]);
            Self::publish(
                t,
                stats,
                round,
                "storage.publish_epoch",
                self.stream.batch(epoch),
            )?;
            if step < self.churn_epochs {
                return Ok(());
            }
            return stats.verify(t, || {
                Self::check(&round.storage, round.latest, self.stream.tables(epoch))
            });
        }

        // The repair: the highest node departs, placement follows the
        // shrunk table, anti-entropy restores the replication invariant.
        let storage = &mut round.storage;
        let shrunk = self.shrunk.clone();
        t.call("storage.set_routing", || storage.set_routing(shrunk));
        t.call("storage.mark_failed", || {
            storage.mark_failed(NodeId(NODES - 1))
        });
        let repair = t.call("storage.anti_entropy", || anti_entropy(storage))?;
        stats.add(
            "storage.anti_entropy_tuples_copied",
            repair.tuples_copied as f64,
        );
        let expected = self.stream.tables(self.churn_epochs - 1);
        stats.verify(t, || Self::check(&round.storage, round.latest, expected))
    }

    fn probes(&mut self, t: &mut Tracer, stats: &mut Stats) {
        probes::key_hash(t, stats);
    }
}
