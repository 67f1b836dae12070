//! `epoch_serving`: many small sessions over mid-size data, so that
//! per-session and per-event overhead dominates — the scheduler, the
//! result cache, the view registry and the IVM fold, the simulator's
//! event loop, the optimizer's maintenance pricing — and per-row
//! operator work does not.
//!
//! One operation is one epoch of a serving deployment: publish a batch,
//! price maintenance for every standing-query shape, refresh all
//! registered views in one shared workload, then serve an open-loop burst
//! of requests through the epoch-keyed result cache.

use crate::harness::Tracer;
use crate::probes;
use crate::workload::{expect_rows, OpResult, Plan, Scale, Stats, Workload, SCHEDULE_SEED};
use orchestra_common::{rng, Epoch, NodeId, QueryFingerprint, Result, Tuple};
use orchestra_engine::{
    refresh_view, AdmissionPolicy, EngineConfig, EvictionPolicy, FailureSpec, MaintenanceMode,
    MaterializedView, PhysicalPlan, QueryExecutor, QuerySession, ResultCache, SchedulerConfig,
    SessionScheduler, ViewRegistry,
};
use orchestra_optimizer::{
    choose_maintenance, compile, compile_delta_legs, estimate_plan_cost, LogicalQuery, Statistics,
};
use orchestra_simnet::SimTime;
use orchestra_storage::{DistributedStorage, Update, UpdateBatch};
use orchestra_workloads::{
    deploy_all, epoch_stream, mixed_stream, EpochSpec, EpochStream, Workload as Catalogue,
};
use std::collections::BTreeMap;

const NODES: u16 = 6;
const ROWS: usize = 2_000;
const VIEWS: usize = 48;
const REQUESTS: usize = 100;
const ZIPF_EXPONENT: f64 = 1.2;
/// Offered load of a burst, as a multiple of the calibrated drain rate.
const LOAD_FACTOR: f64 = 1.5;
const CACHE_CAPACITY: usize = 3;
const MAX_CONCURRENT: usize = 4;
const QUEUE_CAPACITY: usize = 8;
const INITIATOR: NodeId = NodeId(0);
const VICTIM: NodeId = NodeId(NODES - 1);

const SMALL_DELTA: EpochSpec = EpochSpec {
    inserts: 8,
    modifies: 4,
    deletes: 4,
};
const HEAVY_CHURN: EpochSpec = EpochSpec {
    inserts: 0,
    modifies: 1_500,
    deletes: 0,
};
/// Epochs in a round: the last rewrites most of the data, the fourth
/// loses a node halfway through the refresh.
const ROUND: usize = 8;

/// The warm-up is the first round.
pub const PLAN: Plan = Plan {
    warm_up: ROUND,
    round: ROUND,
    ops_per_second: 2.8,
};

fn is_heavy(epoch: usize) -> bool {
    epoch % ROUND == ROUND - 1
}

fn is_failure(epoch: usize) -> bool {
    epoch % ROUND == 3
}

/// One standing-query shape of the catalogue.
struct Shape {
    name: String,
    logical: LogicalQuery,
    fingerprint: QueryFingerprint,
    /// The plan compiled at deployment, which the views of this shape
    /// stand on and fresh reference runs execute.
    plan: PhysicalPlan,
}

/// Every epoch's burst: which query each request asks for, and when.
struct Burst {
    identities: Vec<usize>,
    arrivals: Vec<SimTime>,
}

pub struct EpochServing {
    storage: DistributedStorage,
    config: EngineConfig,
    shapes: Vec<Shape>,
    /// Index of the churn donor's shape: its view is also checked against
    /// the stream's single-node reference.
    donor: usize,
    /// Index of the 3-way join's shape, which the IVM probes use.
    join: usize,
    stream: EpochStream,
    burst: Burst,
    registry: ViewRegistry,
    cache: ResultCache,
    scheduler: SessionScheduler,
    latest: Epoch,
    last_makespan: SimTime,
    /// The join view as it stood before the latest refresh.
    join_view_before: MaterializedView,
}

/// Signed delta rows per relation, as the publisher of `batch` knows
/// them: an insert or delete is one row, a modify two.
fn signed_rows(batch: &UpdateBatch) -> BTreeMap<String, usize> {
    batch
        .relations()
        .map(|relation| {
            let rows = batch
                .updates_for(relation)
                .iter()
                .map(|u| if matches!(u, Update::Modify(_)) { 2 } else { 1 })
                .sum();
            (relation.to_string(), rows)
        })
        .collect()
}

fn session(
    name: String,
    plan: PhysicalPlan,
    epoch: Epoch,
    initiator: NodeId,
    arrival: SimTime,
    fingerprint: Option<QueryFingerprint>,
    estimated_cost: f64,
) -> QuerySession {
    QuerySession {
        name,
        plan,
        epoch,
        initiator,
        arrival,
        fingerprint,
        estimated_cost,
        overrides: Default::default(),
        plan_resident: false,
    }
}

impl EpochServing {
    pub fn set_up(seed: u64, scale: Scale, ops: usize) -> Result<EpochServing> {
        let rows = scale.rows(ROWS, 120);
        // The mixed catalogue in name order: `mixed_stream` shuffles it by
        // seed, which would hand the Zipf head to a cheap query under one
        // seed and to ship-everything under the next.
        let mut catalogue = mixed_stream(seed, rows, 1);
        catalogue.sort_by_key(|w| w.name());
        let workloads: Vec<&dyn Catalogue> = catalogue.iter().map(|w| w.as_ref()).collect();
        let (storage, base_epoch) = deploy_all(&workloads, NODES)?;
        let config = EngineConfig::default();
        let statistics = Statistics::collect(&storage, base_epoch);

        let position = |name: &str| {
            catalogue
                .iter()
                .position(|w| w.name() == name)
                .expect("the mixed catalogue holds every TPC-H query")
        };
        // The churn donor registers the whole TPC-H trio, so one batch
        // reaches the Q1, Q3 and Q6 views and leaves the STBenchmark
        // views untouched.
        let (donor, join) = (position("tpch-q1"), position("tpch-q3"));

        let mut shapes = Vec::with_capacity(catalogue.len());
        let mut leg_inputs = Vec::with_capacity(catalogue.len());
        for w in &catalogue {
            let logical = w.logical();
            let plan = compile(&logical, &statistics)?;
            let legs = if MaterializedView::new(w.name(), &plan)?.supports_incremental() {
                Some(compile_delta_legs(&logical, &statistics)?)
            } else {
                None
            };
            leg_inputs.push(legs);
            shapes.push(Shape {
                name: w.name(),
                fingerprint: orchestra_optimizer::fingerprint(&logical),
                logical,
                plan,
            });
        }

        let mut registry = ViewRegistry::new(INITIATOR);
        for i in 0..VIEWS {
            let k = i % shapes.len();
            let mut view =
                MaterializedView::new(format!("{}#{i:02}", shapes[k].name), &shapes[k].plan)?;
            if let Some(legs) = &leg_inputs[k] {
                view.install_leg_plans(legs)?;
            }
            registry.register(view);
        }
        let priming = registry.refresh(&storage, &config, base_epoch, None)?;

        // The drain rate the bursts are offered against: the catalogue as
        // one closed batch at the serving concurrency.
        let calibration: Vec<QuerySession> = shapes
            .iter()
            .enumerate()
            .map(|(k, shape)| {
                session(
                    shape.name.clone(),
                    shape.plan.clone(),
                    base_epoch,
                    NodeId((k % NODES as usize) as u16),
                    SimTime::ZERO,
                    None,
                    0.0,
                )
            })
            .collect();
        let closed = SessionScheduler::new(SchedulerConfig {
            max_concurrent: MAX_CONCURRENT,
            queue_capacity: calibration.len(),
            policy: AdmissionPolicy::Fifo,
            slo: None,
        })
        .run(&storage, &config, &calibration)?;
        let mean_service = (closed.makespan.as_micros() / calibration.len() as u64).max(1);
        let mean_interarrival = (mean_service as f64 / LOAD_FACTOR).max(1.0);

        let specs: Vec<EpochSpec> = (0..ops)
            .map(|e| {
                if is_heavy(e) {
                    EpochSpec {
                        modifies: scale.rows(HEAVY_CHURN.modifies, 60),
                        ..HEAVY_CHURN
                    }
                } else {
                    SMALL_DELTA
                }
            })
            .collect();
        let stream = epoch_stream(catalogue[donor].as_ref(), seed, &specs)?;

        let requests = scale.rows(REQUESTS, 24);
        let popularity = rng::ZipfSampler::new(shapes.len(), ZIPF_EXPONENT);
        // One draw, replayed every epoch: a run is too short to average
        // fifty different bursts out, and their host time differs 3x.
        let mut r = rng::seeded_stream(SCHEDULE_SEED, "burst");
        let identities = (0..requests)
            .map(|_| r.sample_zipf(&popularity) - 1)
            .collect();
        let mut at = 0.0f64;
        let arrivals = (0..requests)
            .map(|_| {
                at += r.sample_exp(mean_interarrival).max(1.0);
                SimTime::from_micros(at as u64)
            })
            .collect();
        let burst = Burst {
            identities,
            arrivals,
        };

        Ok(EpochServing {
            join_view_before: registry.view(join).clone(),
            storage,
            config,
            shapes,
            donor,
            join,
            stream,
            burst,
            registry,
            cache: ResultCache::new(CACHE_CAPACITY, EvictionPolicy::Lru),
            scheduler: SessionScheduler::new(SchedulerConfig {
                max_concurrent: MAX_CONCURRENT,
                queue_capacity: QUEUE_CAPACITY,
                policy: AdmissionPolicy::Fifo,
                slo: Some(SimTime::from_micros(3 * mean_service)),
            }),
            latest: base_epoch,
            last_makespan: priming.makespan,
        })
    }
}

impl Workload for EpochServing {
    fn run_op(&mut self, t: &mut Tracer, stats: &mut Stats, e: usize) -> OpResult {
        let batch = self.stream.batch(e);
        let delta_rows = signed_rows(batch);
        let from = self.latest;

        let storage = &mut self.storage;
        let epoch = t.call("storage.publish_epoch", || storage.publish(batch))?;
        stats.add("storage.publish_rows", batch.len() as f64);
        self.latest = epoch;
        let storage = &self.storage;

        // Maintenance pricing, once per distinct shape.
        let old = t.call("optimizer.stats_collect", || {
            Statistics::collect(storage, from)
        });
        let new = t.call("optimizer.stats_collect", || {
            Statistics::collect(storage, epoch)
        });
        for k in 0..self.shapes.len() {
            let maintenance = self.registry.view(k).maintenance();
            if self.registry.view(k).supports_incremental() {
                t.call("optimizer.choose_maintenance", || {
                    choose_maintenance(
                        maintenance.plan(),
                        maintenance.legs(),
                        &old,
                        &new,
                        &delta_rows,
                    )
                })?;
            }
        }

        // One shared maintenance workload for all registered views.
        let join_view_before = t.untimed(|| self.registry.view(self.join).clone());
        let failure = is_failure(e).then(|| {
            FailureSpec::at_time(
                VICTIM,
                SimTime::from_micros((self.last_makespan.as_micros() / 2).max(1)),
            )
        });
        let (registry, config) = (&mut self.registry, &self.config);
        let refresh = t.call("engine.registry_refresh", || {
            registry.refresh(storage, config, epoch, failure)
        })?;
        self.join_view_before = join_view_before;
        self.last_makespan = refresh.makespan;
        stats.sim_bytes(refresh.shipped_bytes + refresh.diff_bytes);
        stats.add("engine.registry_sessions_run", refresh.sessions_run as f64);
        stats.add(
            "engine.registry_leg_instances",
            refresh.leg_instances as f64,
        );
        stats.add(
            "engine.registry_delta_derivations",
            refresh.delta_derivations as f64,
        );
        stats.add("engine.registry_diff_bytes", refresh.diff_bytes as f64);
        stats.add(
            "engine.registry_sketch_fallbacks",
            refresh.sketch_fallbacks as f64,
        );
        if failure.is_some() {
            stats.add("engine.recovery_runs", 1.0);
            stats.add("engine.recovered_runs", refresh.recovered as u8 as f64);
        }

        // The serving burst: plans compiled against the new epoch, then
        // an open-loop request stream through the result cache.
        let mut compiled = Vec::with_capacity(self.shapes.len());
        for shape in &self.shapes {
            let plan = t.call("optimizer.compile", || compile(&shape.logical, &new))?;
            let cost = t.call("optimizer.estimate_cost", || {
                estimate_plan_cost(&plan, &new)
            })?;
            compiled.push((plan, cost.total()));
        }
        let burst = &self.burst;
        let sessions: Vec<QuerySession> = t.untimed(|| {
            burst
                .identities
                .iter()
                .zip(&burst.arrivals)
                .enumerate()
                .map(|(i, (&k, &arrival))| {
                    session(
                        format!("{}#{i:03}", self.shapes[k].name),
                        compiled[k].0.clone(),
                        epoch,
                        NodeId((i % NODES as usize) as u16),
                        arrival,
                        Some(self.shapes[k].fingerprint),
                        compiled[k].1,
                    )
                })
                .collect()
        });
        let (scheduler, cache) = (&self.scheduler, &mut self.cache);
        let served = t.call("engine.scheduler_serve", || {
            scheduler.run_serving(storage, config, &sessions, cache)
        })?;
        stats.sim_bytes(served.total_bytes);
        stats.add("engine.messages", served.total_messages as f64);
        stats.add("engine.scheduler_requests", sessions.len() as f64);
        stats.add("engine.scheduler_sessions", served.sessions.len() as f64);
        stats.add("engine.scheduler_shed", served.shed.len() as f64);
        stats.add("engine.cache_hits", served.cache.hits as f64);
        stats.add(
            "engine.cache_lookups",
            (served.cache.hits + served.cache.misses) as f64,
        );
        stats.sample(
            "engine.scheduler_sim_p99_ms",
            served.latency_p99.as_micros() as f64 / 1e3,
        );
        for s in &served.sessions {
            stats.operator_clock(&s.report.wall_clock);
            stats.add("engine.tuples_scanned", s.report.tuples_scanned as f64);
        }

        // The oracle: a fresh failure-free run of every shape's plan at
        // the new epoch is what every view and every served answer —
        // cache hit or executed — must equal.
        let outcome = stats.verify(t, || {
            let executor = QueryExecutor::new(storage, config.clone());
            let fresh: Vec<Vec<Tuple>> = self
                .shapes
                .iter()
                .map(|shape| Ok(executor.execute(&shape.plan, epoch, INITIATOR)?.rows))
                .collect::<Result<_>>()?;
            expect_rows(
                "the stream reference of the churn donor",
                &fresh[self.donor],
                self.stream.reference(e),
            )?;
            for id in 0..self.registry.len() {
                let view = self.registry.view(id);
                expect_rows(view.name(), &view.answer(), &fresh[id % fresh.len()])?;
            }
            for s in &served.sessions {
                let k = burst.identities[s.session.0 as usize];
                expect_rows(&s.name, &s.report.rows, &fresh[k])?;
            }
            Ok(())
        });
        // Freeing the burst's sessions and the reports is not the epoch's
        // work either.
        t.untimed(|| drop((sessions, compiled, served, refresh)));
        outcome
    }

    fn probes(&mut self, t: &mut Tracer, stats: &mut Stats) {
        let (storage, config, epoch) = (&self.storage, &self.config, self.latest);
        // The latest epoch's delta folded into the join view both ways.
        for (span, mode) in [
            ("engine.ivm_incremental", MaintenanceMode::Incremental),
            ("engine.ivm_recompute", MaintenanceMode::Recompute),
        ] {
            let mut view = self.join_view_before.clone();
            let _ = t.call(span, || {
                refresh_view(&mut view, storage, config, mode, epoch, INITIATOR, None)
            });
        }
        let statistics = Statistics::collect(storage, epoch);
        let _ = t.call("optimizer.compile_delta_legs", || {
            compile_delta_legs(&self.shapes[self.join].logical, &statistics)
        });
        for shape in &self.shapes {
            probes::fingerprint(t, &shape.logical);
        }
        probes::clone_store(t, storage);
        probes::simnet_events(t, stats);
    }
}
