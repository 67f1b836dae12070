//! The open-loop serving experiment: Poisson arrivals, Zipf-skewed query
//! popularity, and the epoch-keyed result cache.
//!
//! Where [`crate::throughput`] measures a *closed* batch — every session
//! submitted at `t = 0`, makespan the figure of merit —
//! [`run_serving_experiment`] drives the scheduler the way a serving
//! system is driven: requests arrive on their own clock (exponential
//! inter-arrival times drawn from the in-tree RNG, or any explicit
//! trace via [`trace_arrivals`]), queue up when the executors are busy,
//! and are *shed* rather than erroring when the run queue overflows.
//! Query identities are drawn from a Zipf distribution over the mixed
//! catalogue, so a skewed popular set dominates — exactly the regime a
//! result cache exploits.
//!
//! Each sweep point fixes (Zipf exponent × offered load × cache
//! capacity) and reports tail latency (p50/p99/p999 of
//! arrival-to-answer time), SLO misses, shed arrivals, shipped bytes,
//! and the cache's hit/byte accounting.  Capacity 0 is the cache-off
//! control.  Every completed answer — cached or executed — is
//! cross-checked against the single-node reference of the workload the
//! request named, so a stale or corrupted cache entry fails the whole
//! experiment instead of flattering its latency figures.
//!
//! The sweep itself enforces the headline claim: at every skew ≥ 1.0,
//! the largest-cache point must beat the cache-off control *strictly*
//! on both p99 latency and total shipped bytes, or the run errors.

use crate::json::Json;
use orchestra_common::{rng, NodeId, OrchestraError, Result};
use orchestra_engine::{
    AdmissionPolicy, EngineConfig, EvictionPolicy, QuerySession, ResultCache, SchedulerConfig,
    SessionScheduler,
};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{deploy_all, mixed_stream};

/// Executor slots of the serving scheduler.
const MAX_CONCURRENT: usize = 4;
/// Run-queue depth; arrivals beyond it are shed.
const QUEUE_CAPACITY: usize = 8;
/// The SLO is this multiple of the measured per-query drain time.
const SLO_FACTOR: u64 = 3;

/// Draw `count` Poisson arrival instants: exponential inter-arrival
/// times with the given mean, accumulated from `t = 0`.
pub fn poisson_arrivals(r: &mut rng::StdRng, count: usize, mean: SimTime) -> Vec<SimTime> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += r.sample_exp(mean.as_micros() as f64).max(1.0);
            SimTime::from_micros(at as u64)
        })
        .collect()
}

/// The trace-driven arrival option: turn an explicit microsecond trace
/// (e.g. replayed from a production log) into the arrival instants a
/// session list carries.  Instants are sorted so any trace is a valid
/// open-loop submission order.
pub fn trace_arrivals(trace_us: &[u64]) -> Vec<SimTime> {
    let mut arrivals: Vec<SimTime> = trace_us.iter().map(|&t| SimTime::from_micros(t)).collect();
    arrivals.sort();
    arrivals
}

/// One compiled catalogue query with everything a request needs.
struct CompiledQuery {
    name: String,
    plan: orchestra_engine::PhysicalPlan,
    fingerprint: orchestra_common::QueryFingerprint,
    estimated_cost: f64,
    reference: Vec<orchestra_common::Tuple>,
}

/// Measure the cluster's drain time per query: run the distinct
/// catalogue queries as one closed batch at the serving concurrency and
/// divide the makespan by the query count.  Standalone latency badly
/// underestimates service under concurrency — the executors share one
/// network, so contended queries run several times longer — and an
/// arrival rate derived from it would saturate every sweep point.
fn drain_per_query(
    storage: &DistributedStorage,
    epoch: orchestra_common::Epoch,
    queries: &[CompiledQuery],
    nodes: u16,
    config: &EngineConfig,
) -> Result<SimTime> {
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: MAX_CONCURRENT,
        queue_capacity: queries.len(),
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });
    let sessions: Vec<QuerySession> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| QuerySession {
            name: query.name.clone(),
            plan: query.plan.clone(),
            epoch,
            initiator: NodeId((i % nodes as usize) as u16),
            arrival: SimTime::ZERO,
            fingerprint: None,
            estimated_cost: query.estimated_cost,
            overrides: Default::default(),
            plan_resident: false,
        })
        .collect();
    let report = scheduler.run(storage, config, &sessions)?;
    Ok(SimTime::from_micros(
        (report.makespan.as_micros() / queries.len() as u64).max(1),
    ))
}

/// The serving sweep's shape: data scale, request count, and the three
/// swept axes.  Groups what would otherwise be a nine-argument call to
/// [`run_serving_experiment`].
#[derive(Clone, Debug)]
pub struct ServingSpec<'a> {
    /// RNG seed for the catalogue data, identities and arrivals.
    pub seed: u64,
    /// Base row count handed to [`mixed_stream`].
    pub rows: usize,
    /// Cluster size.
    pub nodes: u16,
    /// Requests per sweep point.
    pub requests: usize,
    /// Offered loads as fractions of the measured drain rate.
    pub load_factors: &'a [f64],
    /// Zipf exponents of the query-popularity draw.
    pub zipf_exponents: &'a [f64],
    /// Result-cache capacities; must include the 0 (cache off) control.
    pub cache_capacities: &'a [usize],
    /// Eviction policy of every cache-on point.
    pub eviction: EvictionPolicy,
}

/// Open-loop serving over the mixed catalogue: deploy the five
/// workloads once, then sweep (Zipf exponent × offered load × cache
/// capacity).  Arrivals are Poisson at `load / drain_per_query` (the
/// drain measured by a closed calibration batch at the serving
/// concurrency); identities are Zipf over the catalogue; capacity 0 is
/// the cache-off control, every other capacity runs a fresh
/// [`ResultCache`] under the spec's eviction policy.  At the same
/// (skew, load) the arrival trace and identity draw are shared across
/// capacities, so cache-on and cache-off see the *identical* request
/// stream.
///
/// Fails if any answer — cached or executed — differs from its
/// workload's reference, or if at any skew ≥ 1.0 the largest cache does
/// not strictly beat the cache-off control on both p99 latency and
/// shipped bytes.
///
/// `mean_service_us` is the measured drain time per query the load
/// factors scale (a load of 1.0 offers exactly the uncached drain rate),
/// and the SLO is a multiple of it.  `points` come one per (skew, load,
/// capacity), in sweep order; `cache_hit_rate` is 0 with the cache off,
/// and `total_bytes` counts bytes between distinct nodes over all
/// requests.
pub fn run_serving_experiment(spec: &ServingSpec, config: &EngineConfig) -> Result<Json> {
    let &ServingSpec {
        seed,
        rows,
        nodes,
        requests,
        load_factors,
        zipf_exponents,
        cache_capacities,
        eviction,
    } = spec;
    if requests == 0 || load_factors.is_empty() || zipf_exponents.is_empty() {
        return Err(OrchestraError::Execution(
            "a serving sweep needs requests, load factors and zipf exponents".into(),
        ));
    }
    if !cache_capacities.contains(&0) {
        return Err(OrchestraError::Execution(
            "a serving sweep needs the capacity-0 (cache off) control point".into(),
        ));
    }
    let catalogue = mixed_stream(seed, rows, 1);
    let refs: Vec<&dyn orchestra_workloads::Workload> =
        catalogue.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&refs, nodes)?;
    let stats = Statistics::collect(&storage, epoch);
    let queries: Vec<CompiledQuery> = catalogue
        .iter()
        .map(|w| -> Result<CompiledQuery> {
            let logical = w.logical();
            let plan = orchestra_optimizer::compile(&logical, &stats)?;
            let estimated_cost = estimate_plan_cost(&plan, &stats)?.total();
            Ok(CompiledQuery {
                name: w.name(),
                plan,
                fingerprint: orchestra_optimizer::fingerprint(&logical),
                estimated_cost,
                reference: w.reference(),
            })
        })
        .collect::<Result<_>>()?;

    let mean_service = drain_per_query(&storage, epoch, &queries, nodes, config)?;
    let slo = SimTime::from_micros(SLO_FACTOR * mean_service.as_micros());
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: MAX_CONCURRENT,
        queue_capacity: QUEUE_CAPACITY,
        policy: AdmissionPolicy::Fifo,
        slo: Some(slo),
    });

    let mut points = Vec::new();
    for &zipf_exponent in zipf_exponents {
        let table = rng::ZipfSampler::new(queries.len(), zipf_exponent);
        for &load_factor in load_factors {
            // One request stream per (skew, load), shared verbatim by
            // every capacity so the cache is the only variable.
            let mut r = rng::seeded_stream(
                seed,
                &format!("serving-s{zipf_exponent:.2}-l{load_factor:.2}"),
            );
            let identities: Vec<usize> = (0..requests).map(|_| r.sample_zipf(&table) - 1).collect();
            let mean_interarrival = SimTime::from_micros(
                (mean_service.as_micros() as f64 / load_factor).max(1.0) as u64,
            );
            let arrivals = poisson_arrivals(&mut r, requests, mean_interarrival);
            let sessions: Vec<QuerySession> = identities
                .iter()
                .zip(&arrivals)
                .enumerate()
                .map(|(i, (&k, &arrival))| QuerySession {
                    name: format!("{}#{i:02}", queries[k].name),
                    plan: queries[k].plan.clone(),
                    epoch,
                    initiator: NodeId((i % nodes as usize) as u16),
                    arrival,
                    fingerprint: Some(queries[k].fingerprint),
                    estimated_cost: queries[k].estimated_cost,
                    overrides: Default::default(),
                    plan_resident: false,
                })
                .collect();

            for &capacity in cache_capacities {
                let report = if capacity == 0 {
                    scheduler.run(&storage, config, &sessions)?
                } else {
                    let mut cache = ResultCache::new(capacity, eviction);
                    scheduler.run_serving(&storage, config, &sessions, &mut cache)?
                };
                for sr in &report.sessions {
                    let expected = &queries[identities[sr.session.0 as usize]].reference;
                    if sr.report.rows != *expected {
                        return Err(OrchestraError::Execution(format!(
                            "serving run (skew {zipf_exponent}, load {load_factor}, capacity \
                             {capacity}) answered {} wrongly{}",
                            sr.name,
                            if sr.served_from_cache {
                                " from the cache"
                            } else {
                                ""
                            }
                        )));
                    }
                }
                let cache = &report.cache;
                points.push(Json::object(vec![
                    ("zipf_exponent", Json::Float(zipf_exponent)),
                    ("load_factor", Json::Float(load_factor)),
                    (
                        "mean_interarrival_us",
                        Json::UInt(mean_interarrival.as_micros()),
                    ),
                    ("cache_capacity", Json::UInt(capacity as u64)),
                    ("completed", Json::UInt(report.sessions.len() as u64)),
                    ("shed", Json::UInt(report.shed.len() as u64)),
                    ("slo_misses", Json::UInt(report.slo_misses as u64)),
                    ("cache_hits", Json::UInt(cache.hits)),
                    ("cache_misses", Json::UInt(cache.misses)),
                    ("cache_hit_rate", Json::Float(cache.hit_rate())),
                    ("cache_evictions", Json::UInt(cache.evictions)),
                    ("cache_bytes_saved", Json::UInt(cache.bytes_saved)),
                    ("latency_p50_us", Json::UInt(report.latency_p50.as_micros())),
                    ("latency_p99_us", Json::UInt(report.latency_p99.as_micros())),
                    (
                        "latency_p999_us",
                        Json::UInt(report.latency_p999.as_micros()),
                    ),
                    ("makespan_us", Json::UInt(report.makespan.as_micros())),
                    ("total_bytes", Json::UInt(report.total_bytes)),
                    ("total_messages", Json::UInt(report.total_messages)),
                ]));
            }
        }
    }

    // The headline claim, enforced: wherever popularity is skewed
    // (exponent ≥ 1.0), the biggest cache must strictly beat the
    // cache-off control on tail latency *and* shipped bytes.  Each
    // (skew, load) group holds one point per capacity, in spec order.
    let best_capacity = cache_capacities.iter().copied().max().unwrap_or(0);
    let position = |capacity| cache_capacities.iter().position(|&c| c == capacity);
    let off_at = position(0).expect("capacity 0 is mandatory");
    let on_at = position(best_capacity).expect("the sweep runs every capacity");
    for group in points.chunks(cache_capacities.len()) {
        let (off, on) = (&group[off_at], &group[on_at]);
        if off.num("zipf_exponent")? < 1.0 || best_capacity == 0 {
            continue;
        }
        let (p99, off_p99) = (on.num("latency_p99_us")?, off.num("latency_p99_us")?);
        let (bytes, off_bytes) = (on.num("total_bytes")?, off.num("total_bytes")?);
        if p99 >= off_p99 || bytes >= off_bytes {
            return Err(OrchestraError::Execution(format!(
                "caching must pay at skew {} load {}: p99 {p99} µs vs {off_p99} µs uncached, \
                 {bytes} bytes vs {off_bytes} uncached",
                on.num("zipf_exponent")?,
                on.num("load_factor")?,
            )));
        }
    }

    Ok(Json::object(vec![
        ("nodes", Json::UInt(nodes as u64)),
        ("requests", Json::UInt(requests as u64)),
        ("distinct_queries", Json::UInt(queries.len() as u64)),
        ("eviction", Json::str(format!("{eviction:?}"))),
        ("mean_service_us", Json::UInt(mean_service.as_micros())),
        ("slo_us", Json::UInt(slo.as_micros())),
        ("points", Json::Array(points)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_sweep_shows_the_cache_collapsing_the_tail() {
        let sweep = run_serving_experiment(
            &ServingSpec {
                seed: 11,
                rows: 100,
                nodes: 5,
                requests: 40,
                load_factors: &[0.35, 2.0],
                zipf_exponents: &[1.2],
                cache_capacities: &[0, 2, 5],
                eviction: EvictionPolicy::Lru,
            },
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(sweep.num("distinct_queries").unwrap(), 5.0);
        assert!(sweep.num("mean_service_us").unwrap() > 0.0);
        let points = sweep.get("points").unwrap().items().unwrap();
        assert_eq!(points.len(), 6);
        let num = |p: &Json, key| p.num(key).unwrap();

        // Per (load) group: off, small cache, full cache.
        for group in points.chunks(3) {
            let (off, small, full) = (&group[0], &group[1], &group[2]);
            assert_eq!(num(off, "cache_capacity"), 0.0);
            assert_eq!(num(off, "cache_hits"), 0.0);
            // Hit rate rises with capacity; the full cache never evicts.
            assert!(num(full, "cache_hit_rate") >= num(small, "cache_hit_rate"));
            assert!(num(full, "cache_hit_rate") > 0.5, "{full}");
            assert_eq!(num(full, "cache_evictions"), 0.0);
            assert!(num(small, "cache_evictions") > 0.0, "capacity 2 must churn");
            // The acceptance claim (also enforced inside the run).
            assert!(num(full, "latency_p99_us") < num(off, "latency_p99_us"));
            assert!(num(full, "total_bytes") < num(off, "total_bytes"));
            assert!(num(full, "cache_bytes_saved") > 0.0);
        }

        // The knee: overload saturates the uncached system but not the
        // cached one.  Median latency (robust against the cold-start
        // misses that dominate the short stream's p99) must blow up
        // uncached but stay collapsed cached, and only the uncached run
        // sheds arrivals at the high load.
        let (low_off, low_full) = (&points[0], &points[2]);
        let (high_off, high_full) = (&points[3], &points[5]);
        assert!(num(high_off, "latency_p99_us") > num(low_off, "latency_p99_us"));
        let growth = |low, high| num(high, "latency_p50_us") / num(low, "latency_p50_us").max(1.0);
        let (off_growth, full_growth) = (growth(low_off, high_off), growth(low_full, high_full));
        assert!(
            off_growth > full_growth,
            "uncached must saturate faster: {off_growth} vs {full_growth}"
        );
        assert!(
            num(high_off, "shed") > 0.0,
            "overload must shed uncached arrivals"
        );
        assert!(num(high_full, "shed") < num(high_off, "shed"));
    }

    #[test]
    fn serving_sweep_is_deterministic_and_renders_json() {
        // Skew 0.9 stays below the ≥ 1.0 acceptance threshold: a
        // 10-request stream is too short for its p99 (= max, dominated
        // by the identical cold-start prefix) to strictly improve.
        let run = || {
            run_serving_experiment(
                &ServingSpec {
                    seed: 11,
                    rows: 80,
                    nodes: 4,
                    requests: 10,
                    load_factors: &[1.0],
                    zipf_exponents: &[0.9],
                    cache_capacities: &[0, 5],
                    eviction: EvictionPolicy::CostAware,
                },
                &EngineConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.render(), run().render());
        assert!(a.num("points.1.cache_hit_rate").unwrap() > 0.0, "{a}");
        assert!(a.num("points.0.latency_p99_us").unwrap() > 0.0, "{a}");
        assert!(a.num("slo_us").unwrap() > 0.0, "{a}");
    }

    #[test]
    fn arrival_helpers_are_monotone() {
        let mut r = rng::seeded_stream(3, "arrivals");
        let poisson = poisson_arrivals(&mut r, 16, SimTime::from_micros(500));
        assert_eq!(poisson.len(), 16);
        assert!(poisson.windows(2).all(|w| w[0] <= w[1]));
        assert!(poisson[0] > SimTime::ZERO);
        let trace = trace_arrivals(&[40, 10, 10, 90]);
        assert_eq!(
            trace,
            vec![
                SimTime::from_micros(10),
                SimTime::from_micros(10),
                SimTime::from_micros(40),
                SimTime::from_micros(90)
            ]
        );
    }
}
