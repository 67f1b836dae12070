//! The concurrent-workload throughput/latency experiment.
//!
//! Where every other experiment measures one query over a dedicated
//! simulated network, [`run_throughput`] drives a *mixed stream* of
//! catalogue sessions — the STBenchmark scenarios plus TPC-H Q1/Q3/Q6,
//! in the deterministic arrival order of
//! [`orchestra_workloads::mixed_stream`] — through the engine's
//! [`SessionScheduler`] over **one** shared cluster, swept across
//! concurrency levels.  Each session's plan is compiled by the System-R
//! optimizer against the deployed statistics, and its estimated cost
//! feeds the scheduler's cost-first admission policy.
//!
//! Every concurrent answer is cross-checked against the workload's
//! single-node reference before any number is reported, so contention
//! bugs fail loudly.  Each sweep point records makespan, per-query
//! latency and queue wait, aggregate traffic, and the shared network's
//! link utilization — the quantity that must *rise* with concurrency if
//! interleaving actually fills the idle links.

use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{
    AdmissionPolicy, EngineConfig, QuerySession, SchedulerConfig, SessionScheduler,
};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{deploy_all, mixed_stream};

/// Throughput under concurrency: deploy the mixed stream's datasets onto
/// one `nodes`-node cluster, compile every session through the
/// optimizer, and run the stream at each of `concurrency_levels`,
/// cross-checking every answer against its workload's reference.
///
/// `seed` fixes both the generated data and the arrival order; `rows`
/// scales each workload; `copies` repeats the five-workload mix.
///
/// One object per concurrency level: `total_bytes` counts bytes between
/// distinct nodes, `link_utilization` is aggregate over the makespan
/// window, `peak_concurrency` the most sessions executing at once, and
/// the latencies run from admission to answer.  `queries` lists each
/// session in submission order with the bytes it alone put on the wire.
pub fn run_throughput(
    seed: u64,
    rows: usize,
    copies: usize,
    nodes: u16,
    concurrency_levels: &[usize],
    policy: AdmissionPolicy,
    config: &EngineConfig,
) -> Result<Json> {
    if concurrency_levels.is_empty() {
        return Err(OrchestraError::Execution(
            "a throughput sweep needs at least one concurrency level".into(),
        ));
    }
    let stream = mixed_stream(seed, rows, copies);
    let refs: Vec<&dyn orchestra_workloads::Workload> = stream.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&refs, nodes)?;
    let stats = Statistics::collect(&storage, epoch);

    // Compile once per session; the estimated cost feeds cost-first
    // admission.  Initiators round-robin over the cluster so the answer
    // streams do not all converge on one downlink.
    let mut sessions = Vec::with_capacity(stream.len());
    let mut expected = Vec::with_capacity(stream.len());
    for (i, workload) in stream.iter().enumerate() {
        let plan = orchestra_optimizer::compile(&workload.logical(), &stats)?;
        let cost = estimate_plan_cost(&plan, &stats)?.total();
        sessions.push(QuerySession {
            name: workload.name(),
            plan,
            epoch,
            initiator: NodeId((i % nodes as usize) as u16),
            arrival: SimTime::ZERO,
            fingerprint: Some(orchestra_optimizer::fingerprint(&workload.logical())),
            estimated_cost: cost,
            overrides: Default::default(),
            plan_resident: false,
        });
        expected.push(workload.reference());
    }

    let mut points = Vec::with_capacity(concurrency_levels.len());
    for &concurrency in concurrency_levels {
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: concurrency,
            queue_capacity: sessions.len().max(1),
            policy,
            slo: None,
        });
        let workload = scheduler.run(&storage, config, &sessions)?;
        for (i, sr) in workload.sessions.iter().enumerate() {
            if sr.report.rows != expected[i] {
                return Err(OrchestraError::Execution(format!(
                    "throughput run of {} at concurrency {concurrency} returned a wrong \
                     answer for session {i}",
                    sr.name
                )));
            }
        }
        let mut latencies: Vec<SimTime> = workload.sessions.iter().map(|sr| sr.latency).collect();
        latencies.sort();
        let median_latency = latencies[latencies.len() / 2];
        let max_latency = *latencies.last().expect("at least one session");
        let total_wait: u64 = workload
            .sessions
            .iter()
            .map(|sr| sr.queue_wait.as_micros())
            .sum();
        let queries = workload
            .sessions
            .iter()
            .map(|sr| {
                Json::object(vec![
                    ("workload", Json::str(sr.name.clone())),
                    ("queue_wait_us", Json::UInt(sr.queue_wait.as_micros())),
                    ("latency_us", Json::UInt(sr.latency.as_micros())),
                    ("bytes", Json::UInt(sr.report.total_bytes)),
                ])
            })
            .collect();
        points.push(Json::object(vec![
            ("concurrency", Json::UInt(concurrency as u64)),
            ("makespan_us", Json::UInt(workload.makespan.as_micros())),
            ("total_bytes", Json::UInt(workload.total_bytes)),
            ("total_messages", Json::UInt(workload.total_messages)),
            ("link_utilization", Json::Float(workload.link_utilization)),
            (
                "peak_concurrency",
                Json::UInt(workload.peak_concurrency as u64),
            ),
            (
                "mean_queue_wait_us",
                Json::UInt(total_wait / workload.sessions.len() as u64),
            ),
            ("median_latency_us", Json::UInt(median_latency.as_micros())),
            ("max_latency_us", Json::UInt(max_latency.as_micros())),
            ("queries", Json::Array(queries)),
        ]));
    }
    Ok(Json::object(vec![
        ("policy", Json::str(format!("{policy:?}"))),
        ("nodes", Json::UInt(nodes as u64)),
        ("sessions", Json::UInt(sessions.len() as u64)),
        ("levels", Json::Array(points)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sweeps_concurrency_and_fills_the_links() {
        let sweep = run_throughput(
            7,
            120,
            1,
            6,
            &[1, 2, 5],
            AdmissionPolicy::Fifo,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(sweep.num("sessions").unwrap(), 5.0);
        assert_eq!(sweep.get("levels").unwrap().items().unwrap().len(), 3);
        // Every answer was cross-checked inside the run; here we check
        // the aggregate shape: concurrency shortens the makespan and
        // fills the shared links.
        let first = |key: &str| sweep.num(&format!("levels.0.{key}")).unwrap();
        let last = |key: &str| sweep.num(&format!("levels.2.{key}")).unwrap();
        assert!(
            last("makespan_us") < first("makespan_us"),
            "concurrency must pay off"
        );
        assert!(
            last("link_utilization") > first("link_utilization"),
            "higher concurrency must raise link utilization: {sweep}"
        );
        assert_eq!(first("peak_concurrency"), 1.0);
        assert!(last("peak_concurrency") > 1.0);
        assert!(first("mean_queue_wait_us") > 0.0);
    }

    #[test]
    fn cost_first_policy_runs_and_stays_deterministic() {
        let run = || {
            run_throughput(
                7,
                100,
                1,
                5,
                &[2],
                AdmissionPolicy::ShortestCostFirst,
                &EngineConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.render(), run().render());
        // Under cost-first the cheapest estimate is admitted first:
        // its queue wait is zero.
        let queries = a.get("levels").unwrap().items().unwrap()[0]
            .get("queries")
            .unwrap();
        assert!(queries
            .items()
            .unwrap()
            .iter()
            .any(|q| q.num("queue_wait_us").unwrap() == 0.0));
    }
}
