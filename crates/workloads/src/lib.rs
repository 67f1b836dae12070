//! # orchestra-workloads
//!
//! Workload generators and declarative queries for the evaluation.
//!
//! The paper evaluates two workloads, both reproduced here:
//!
//! * **STBenchmark mapping scenarios** (Section VI-B) — [`stbenchmark`]
//!   hosts the `Copy` and `Concatenate` scenario builders over synthetic
//!   source relations with 25-character alphanumeric fields, generated
//!   deterministically from [`orchestra_common::rng`] so every run sees
//!   identical data.
//! * **TPC-H-style OLAP queries** (Section VI-C) — [`tpch`] hosts
//!   scaled-down `lineitem` / `orders` / `customer` generators and the
//!   logical queries Q1, Q3 and Q6.
//!
//! Every catalogue entry implements the [`Workload`] trait — relations,
//! data batch and a [`orchestra_optimizer::LogicalQuery`] describing the
//! query declaratively — so the benchmark harness and the correctness
//! tests drive all of them uniformly.  A query is written once: its plan
//! is compiled from it ([`compiled_plan`]), the plans it was chosen
//! among come from [`orchestra_optimizer::plan_space`], and the
//! reference answer a distributed run must reproduce is
//! [`oracle::evaluate`]'s, interpreting the logical query on one node
//! over the generated rows, for the catalogue and for any other query
//! alike.  Generators publish through
//! [`orchestra_storage::UpdateBatch`] so data flows through the same
//! versioned-publication path the paper's participants use.

pub mod churn;
pub mod epochs;
pub mod oracle;
pub mod stbenchmark;
pub mod tpch;

use orchestra_common::{rng, Epoch, NodeId, OrchestraError, Relation, Result, Tuple, Value};
use orchestra_engine::PhysicalPlan;
use orchestra_optimizer::{LogicalQuery, Statistics};
use orchestra_storage::{DistributedStorage, StorageConfig, Update, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::collections::BTreeMap;

pub use churn::{churn_stream, ChurnSpec, ChurnStream};
pub use epochs::{epoch_stream, EpochSpec, EpochStream};
pub use stbenchmark::{ConcatenateScenario, CopyScenario};
pub use tpch::{TpchDataset, TpchQuery, TpchWorkload};

/// The rows of every relation of a workload at one point in time — the
/// single-node mirror of what the versioned store serves at one epoch.
/// Keyed by relation name; row order is not significant.
pub type TableSet = BTreeMap<String, Vec<Tuple>>;

/// Build the [`TableSet`] a base batch (inserts only) materializes.
/// The multi-epoch generator ([`epochs`]) evolves such a set through
/// modifies and deletes batch by batch.
pub fn tables_of(batch: &UpdateBatch) -> TableSet {
    let mut tables = TableSet::new();
    for relation in batch.relations() {
        let rows = batch
            .updates_for(relation)
            .iter()
            .map(|u| match u {
                Update::Insert(t) => t.clone(),
                other => panic!(
                    "tables_of is defined for insert-only base batches, got {other:?} \
                     for {relation}"
                ),
            })
            .collect();
        tables.insert(relation.to_string(), rows);
    }
    tables
}

/// One benchmark workload: source relations, deterministic data and a
/// declarative query.  The reference answer
/// the distributed run must reproduce tuple for tuple is the query
/// interpreted over the data ([`Workload::reference`]).
pub trait Workload {
    /// Short machine-readable name (used in experiment output).
    fn name(&self) -> String;
    /// The relations the workload reads, ready to register.
    fn relations(&self) -> Vec<Relation>;
    /// The deterministic data, as one publishable batch.
    fn batch(&self) -> UpdateBatch;
    /// The workload's query as a logical description, ready for
    /// [`orchestra_optimizer::compile`] (see [`compiled_plan`]) and for
    /// [`oracle::evaluate`].
    fn logical(&self) -> LogicalQuery;
    /// The single-node answer over the workload's own generated data,
    /// sorted like [`orchestra_engine::QueryReport::rows`].  Panics,
    /// naming the workload, if its own query is malformed.
    fn reference(&self) -> Vec<Tuple> {
        oracle::evaluate(&self.logical(), &tables_of(&self.batch()))
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }
}

/// Compile a workload's logical query against the statistics of a
/// deployed cluster — the plan the experiment harness executes.
pub fn compiled_plan(
    workload: &dyn Workload,
    storage: &DistributedStorage,
    epoch: Epoch,
) -> Result<PhysicalPlan> {
    let stats = Statistics::collect(storage, epoch);
    orchestra_optimizer::compile(&workload.logical(), &stats)
}

/// An empty `nodes`-node balanced cluster: replication factor 3, capped
/// at the cluster size.  Zero nodes is a `Config` error.
fn cluster(nodes: u16) -> Result<DistributedStorage> {
    if nodes == 0 {
        return Err(OrchestraError::Config("a cluster needs a node".into()));
    }
    let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let routing = RoutingTable::build(&ids, AllocationScheme::Balanced, 3.min(ids.len()));
    Ok(DistributedStorage::new(routing, StorageConfig::default()))
}

/// Stand up an `nodes`-node balanced cluster holding the workload's data:
/// register the relations, publish the batch, and return the storage
/// together with the epoch to query.
pub fn deploy(workload: &dyn Workload, nodes: u16) -> Result<(DistributedStorage, Epoch)> {
    deploy_all(&[workload], nodes)
}

/// [`deploy`], with an empty *birth* epoch published ahead of the
/// workload's data.  The returned `(storage, birth, base)` brackets the
/// base batch as the delta interval `(birth, base]`, so adaptive
/// statistics can absorb the initial contents exactly the way they
/// absorb every later publication — from the signed delta, never by
/// rescanning the base relations.
pub fn deploy_staged(
    workload: &dyn Workload,
    nodes: u16,
) -> Result<(DistributedStorage, Epoch, Epoch)> {
    let mut storage = cluster(nodes)?;
    for relation in workload.relations() {
        storage.register_relation(relation);
    }
    let birth = storage.publish(&UpdateBatch::new())?;
    let base = storage.publish(&workload.batch())?;
    Ok((storage, birth, base))
}

/// Stand up one cluster holding the data of *several* workloads — the
/// substrate of a concurrent session stream, where queries over
/// different datasets share links and storage nodes.
///
/// Relations are deduplicated by name: workloads that read the same
/// relation (the TPC-H queries all scan `lineitem`) contribute its
/// schema and rows exactly once.  A name reused with a *different*
/// schema — or with the same schema but different generated data, which
/// would silently invalidate the later workload's reference answer — is
/// a configuration error, not a silent overwrite.  All rows are
/// published as one batch, so a single epoch covers every workload's
/// data.
pub fn deploy_all(workloads: &[&dyn Workload], nodes: u16) -> Result<(DistributedStorage, Epoch)> {
    let mut storage = cluster(nodes)?;
    let mut registered: Vec<Relation> = Vec::new();
    let mut contributed: BTreeMap<String, Vec<Update>> = BTreeMap::new();
    let mut merged = UpdateBatch::new();
    for workload in workloads {
        let batch = workload.batch();
        for relation in workload.relations() {
            let name = relation.name().to_string();
            match registered.iter().find(|r| r.name() == name) {
                Some(existing) if existing == &relation => {
                    // Same schema — the data must be identical too, or
                    // queries of this workload would run over rows its
                    // reference answer was never computed from.
                    if contributed.get(&name).map(Vec::as_slice) != Some(batch.updates_for(&name)) {
                        return Err(OrchestraError::Execution(format!(
                            "workload {} re-publishes relation {name} with different data",
                            workload.name()
                        )));
                    }
                }
                Some(_) => {
                    return Err(OrchestraError::Execution(format!(
                        "workload {} re-registers relation {name} with a different schema",
                        workload.name()
                    )))
                }
                None => {
                    storage.register_relation(relation.clone());
                    registered.push(relation);
                    let updates = batch.updates_for(&name).to_vec();
                    for update in &updates {
                        if let Update::Insert(tuple) = update {
                            merged.insert(&name, tuple.clone());
                        } else {
                            return Err(OrchestraError::Execution(format!(
                                "workload {} publishes non-insert updates; deploy_all only \
                                 merges inserts",
                                workload.name()
                            )));
                        }
                    }
                    contributed.insert(name, updates);
                }
            }
        }
    }
    let epoch = storage.publish(&merged)?;
    Ok((storage, epoch))
}

/// A deterministic mixed stream of catalogue workloads — `copies`
/// interleavings of the STBenchmark scenarios (`Copy`, `Concatenate`)
/// and the TPC-H queries (Q1, Q3, Q6) over one shared dataset, in an
/// arrival order shuffled by the in-tree RNG.  The same `(seed, rows,
/// copies)` always yields the same stream, so throughput experiments
/// replay exactly.
pub fn mixed_stream(seed: u64, rows: usize, copies: usize) -> Vec<Box<dyn Workload>> {
    let mut stream: Vec<Box<dyn Workload>> = Vec::with_capacity(copies * 5);
    for _ in 0..copies {
        stream.push(Box::new(CopyScenario { seed, rows }));
        stream.push(Box::new(ConcatenateScenario { seed, rows }));
        stream.push(Box::new(TpchWorkload::scaled(TpchQuery::Q1, seed, rows)));
        stream.push(Box::new(TpchWorkload::scaled(TpchQuery::Q3, seed, rows)));
        stream.push(Box::new(TpchWorkload::scaled(TpchQuery::Q6, seed, rows)));
    }
    // Fisher–Yates over the arrival order, seeded independently of the
    // data generators.
    let mut r = rng::seeded_stream(seed, "session-stream");
    for i in (1..stream.len()).rev() {
        let j = r.random_range(0..(i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

/// Generate `rows` deterministic tuples `(id, field)` for a relation
/// named `relation`, with STBenchmark-style 25-character alphanumeric
/// payload fields.  The same `(seed, relation, rows)` always yields the
/// same data.
pub fn generated_relation(seed: u64, relation: &str, rows: usize) -> Vec<Tuple> {
    generated_relation_wide(seed, relation, rows, 1)
}

/// Like [`generated_relation`] but with `fields` independent 25-character
/// string columns after the integer key — the shape the STBenchmark
/// `Concatenate` scenario maps from.
pub fn generated_relation_wide(
    seed: u64,
    relation: &str,
    rows: usize,
    fields: usize,
) -> Vec<Tuple> {
    let mut r = rng::seeded_stream(seed, relation);
    (0..rows)
        .map(|i| {
            let mut values = Vec::with_capacity(fields + 1);
            values.push(Value::Int(i as i64));
            for _ in 0..fields {
                values.push(Value::str(rng::alphanumeric(&mut r, 25)));
            }
            Tuple::new(values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_relation() {
        let a = generated_relation(7, "source", 50);
        let b = generated_relation(7, "source", 50);
        let c = generated_relation(7, "target", 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
        assert_eq!(a[0].value(1).as_str().unwrap().len(), 25);
    }

    #[test]
    fn wide_generation_shapes_rows() {
        let rows = generated_relation_wide(7, "source", 20, 3);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].arity(), 4);
        for col in 1..4 {
            assert_eq!(rows[5].value(col).as_str().unwrap().len(), 25);
        }
        assert_eq!(rows, generated_relation_wide(7, "source", 20, 3));
    }

    #[test]
    fn deploy_all_dedups_shared_relations_and_answers_every_query() {
        // Q1 and Q6 share the whole TPC-H dataset; Copy brings its own
        // relation.  One cluster must answer all three exactly.
        let q1 = TpchWorkload::scaled(TpchQuery::Q1, 11, 160);
        let q6 = TpchWorkload::scaled(TpchQuery::Q6, 11, 160);
        let copy = CopyScenario { seed: 11, rows: 80 };
        let all: [&dyn Workload; 3] = [&q1, &q6, &copy];
        let (storage, epoch) = deploy_all(&all, 4).unwrap();
        let exec = orchestra_engine::QueryExecutor::new(
            &storage,
            orchestra_engine::EngineConfig::default(),
        );
        for w in all {
            let plan = compiled_plan(w, &storage, epoch).unwrap();
            let report = exec.execute(&plan, epoch, NodeId(0)).unwrap();
            assert_eq!(report.rows, w.reference(), "{} answer", w.name());
        }
    }

    #[test]
    fn deploy_all_rejects_conflicting_schemas() {
        // Two STBenchmark scenarios generate distinct relations, but a
        // second Copy with a different row count would regenerate
        // st_source with different *data* under the same schema — that
        // is fine.  A conflicting schema is simulated by two datasets
        // whose generated relation name collides at a different arity:
        // none exists in the catalogue, so assert the dedup path instead.
        let a = CopyScenario { seed: 1, rows: 40 };
        let b = CopyScenario { seed: 1, rows: 40 };
        let all: [&dyn Workload; 2] = [&a, &b];
        let (storage, epoch) = deploy_all(&all, 3).unwrap();
        // st_source registered exactly once with 40 rows, not 80.
        assert_eq!(storage.relation_cardinality("st_source", epoch), 40);

        // Same schema but different generated data must be rejected, or
        // the later workload's reference answer would silently describe
        // rows that were never deployed.
        let other_data = CopyScenario { seed: 2, rows: 40 };
        let conflicting: [&dyn Workload; 2] = [&a, &other_data];
        let Err(err) = deploy_all(&conflicting, 3) else {
            panic!("different data under the same relation name must be rejected");
        };
        assert!(err.message().contains("different data"), "{err}");
        let other_size = CopyScenario { seed: 1, rows: 50 };
        let conflicting: [&dyn Workload; 2] = [&a, &other_size];
        assert!(deploy_all(&conflicting, 3).is_err());
    }

    #[test]
    fn mixed_stream_is_deterministic_and_shuffled() {
        let names = |s: &[Box<dyn Workload>]| s.iter().map(|w| w.name()).collect::<Vec<_>>();
        let a = mixed_stream(5, 120, 2);
        let b = mixed_stream(5, 120, 2);
        assert_eq!(a.len(), 10);
        assert_eq!(names(&a), names(&b), "same seed, same arrival order");
        let submission: Vec<String> = names(&a);
        let c = mixed_stream(6, 120, 2);
        assert_ne!(names(&c), submission, "a different seed reshuffles");
        // All five catalogue entries appear in every copy.
        for expected in [
            "stbenchmark-copy",
            "stbenchmark-concatenate",
            "tpch-q1",
            "tpch-q3",
            "tpch-q6",
        ] {
            assert_eq!(
                submission.iter().filter(|n| n.as_str() == expected).count(),
                2,
                "{expected} must appear once per copy in {submission:?}"
            );
        }
    }

    #[test]
    fn deploy_builds_a_queryable_cluster() {
        let w = CopyScenario { seed: 1, rows: 40 };
        let (storage, epoch) = deploy(&w, 4).unwrap();
        assert_eq!(storage.routing().node_count(), 4);
        let exec = orchestra_engine::QueryExecutor::new(
            &storage,
            orchestra_engine::EngineConfig::default(),
        );
        let plan = compiled_plan(&w, &storage, epoch).unwrap();
        let report = exec.execute(&plan, epoch, NodeId(0)).unwrap();
        assert_eq!(report.rows, w.reference());
    }

    #[test]
    fn a_cluster_of_zero_nodes_is_a_config_error() {
        let w = CopyScenario { seed: 1, rows: 4 };
        let errors = [
            deploy(&w, 0).err(),
            deploy_staged(&w, 0).err(),
            deploy_all(&[&w], 0).err(),
        ];
        for err in errors {
            assert_eq!(err.map(|e| e.category()), Some("config"));
        }
    }

    #[test]
    fn observed_widths_tighten_q3_byte_estimates() {
        // The catalog prices every Str column at a fixed 30 bytes; the
        // TPC-H strings are much narrower.  An adaptive overlay built
        // from the publication delta must pull the Q3 cost estimate
        // toward the measured traffic of the actual run.
        use orchestra_optimizer::{estimate_plan_cost, AdaptiveStats};
        let q3 = TpchWorkload::scaled(TpchQuery::Q3, 7, 240);
        let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
        let routing = RoutingTable::build(&ids, AllocationScheme::Balanced, 3);
        let mut storage = DistributedStorage::new(routing, StorageConfig::default());
        for relation in q3.relations() {
            storage.register_relation(relation);
        }
        // A baseline epoch before the data, so the whole dataset arrives
        // as one observable delta.
        let base_epoch = storage.publish(&UpdateBatch::new()).unwrap();
        let epoch = storage.publish(&q3.batch()).unwrap();

        let mut adaptive = AdaptiveStats::new();
        adaptive.absorb(&storage, base_epoch, epoch).unwrap();
        let base = Statistics::collect(&storage, epoch);
        let enriched = adaptive.overlay(&base);

        let plan = compiled_plan(&q3, &storage, epoch).unwrap();
        let exec = orchestra_engine::QueryExecutor::new(
            &storage,
            orchestra_engine::EngineConfig::default(),
        );
        let report = exec.execute(&plan, epoch, NodeId(0)).unwrap();
        assert_eq!(report.rows, q3.reference());
        let measured = report.total_bytes as f64;

        let est_base = estimate_plan_cost(&plan, &base).unwrap().network_bytes;
        let est_enriched = estimate_plan_cost(&plan, &enriched).unwrap().network_bytes;
        assert!(
            (est_enriched - measured).abs() < (est_base - measured).abs(),
            "observed widths must tighten the estimate: \
             base {est_base:.0}, enriched {est_enriched:.0}, measured {measured:.0}"
        );
    }
}
