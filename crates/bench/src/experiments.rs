//! The experiments that reproduce the paper's figures.
//!
//! Each experiment deploys a [`Workload`] onto a simulated cluster via
//! [`orchestra_workloads::deploy`], drives the
//! [`orchestra_engine::QueryExecutor`], and returns its section of the
//! bench document: the [`Json`] it builds where it reads the returned
//! [`orchestra_engine::QueryReport`]s.
//!
//! * [`run_scale_out`] (Figures 7–12) — running time and traffic as the
//!   participant count grows;
//! * [`run_recovery_sweep`] (Figures 13–14) — the added running time of
//!   Restart versus Incremental recovery as a function of when the
//!   failure strikes, swept over [`crate::failure_sweep_points`];
//! * [`run_tagging_overhead`] — traffic with and without recovery
//!   support, validating the paper's "at most 2%" claim;
//! * [`run_plan_quality`] — the optimizer-compiled plan versus the
//!   hand-built oracle: estimated cost under the shared network model,
//!   and measured traffic and simulated running time for both.
//!
//! Every workload executes through the System-R optimizer
//! ([`orchestra_workloads::compiled_plan`]): each deployment compiles
//! the workload's logical query against the cluster's live coordinator
//! statistics, exactly as an initiator would.

use crate::failure_sweep_points;
use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, QueryReport, RecoveryStrategy};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_workloads::{compiled_plan, deploy, Workload};

/// Every experiment initiates queries from node 0.
pub const INITIATOR: NodeId = NodeId(0);

/// Scale-out: run the workload failure-free on each cluster size and
/// record running time and traffic (Figures 7–12).  One object per size;
/// `total_bytes` counts bytes between distinct nodes and
/// `tuples_scanned` the tuple versions all scans fetched.
pub fn run_scale_out(
    workload: &dyn Workload,
    node_counts: &[u16],
    config: &EngineConfig,
) -> Result<Json> {
    let expected = workload.reference();
    let mut points = Vec::with_capacity(node_counts.len());
    for &nodes in node_counts {
        let (storage, epoch) = deploy(workload, nodes)?;
        // Re-plan per cluster size: the optimizer's choices depend on the
        // routing snapshot's participant count.
        let plan = compiled_plan(workload, &storage, epoch)?;
        let report =
            QueryExecutor::new(&storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "scale-out of {} on {nodes} nodes returned a wrong answer",
                workload.name()
            )));
        }
        points.push(Json::object(vec![
            ("nodes", Json::UInt(nodes as u64)),
            (
                "running_time_us",
                Json::UInt(report.running_time.as_micros()),
            ),
            ("total_bytes", Json::UInt(report.total_bytes)),
            ("total_messages", Json::UInt(report.total_messages)),
            ("tuples_scanned", Json::UInt(report.tuples_scanned as u64)),
        ]));
    }
    Ok(Json::Array(points))
}

/// Recovery cost (Figures 13–14): kill `victim` at each of
/// `sweep_points` instants spread across the failure-free running time
/// and measure the added running time under both Section V-D strategies.
/// `points` are ordered by failure instant, then strategy; `overhead_us`
/// is the running time over the failure-free baseline, `recovered` says
/// whether a recovery round ran (a failure can land after the victim did
/// all its work), and `purged` / `retransmitted` count the rows and
/// sub-groups Incremental recovery purged and re-sent from output caches.
pub fn run_recovery_sweep(
    workload: &dyn Workload,
    nodes: u16,
    victim: NodeId,
    sweep_points: usize,
    config: &EngineConfig,
) -> Result<Json> {
    if victim == INITIATOR {
        return Err(OrchestraError::Execution(
            "the sweep victim cannot be the query initiator".into(),
        ));
    }
    let (storage, epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, epoch)?;
    let baseline = QueryExecutor::new(&storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
    let expected = workload.reference();
    if baseline.rows != expected {
        return Err(OrchestraError::Execution(format!(
            "recovery sweep of {} returned a wrong baseline answer",
            workload.name()
        )));
    }

    let mut points = Vec::new();
    for failure_at in failure_sweep_points(baseline.running_time, sweep_points) {
        for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
            let run_config = EngineConfig {
                strategy,
                ..config.clone()
            };
            let report = QueryExecutor::new(&storage, run_config).execute_with_failure(
                &plan,
                epoch,
                INITIATOR,
                FailureSpec::at_time(victim, failure_at),
            )?;
            if report.rows != expected {
                return Err(OrchestraError::Execution(format!(
                    "{} under {strategy:?} at t={failure_at} returned a wrong answer",
                    workload.name()
                )));
            }
            let overhead = report.running_time.saturating_sub(baseline.running_time);
            points.push(Json::object(vec![
                ("strategy", Json::str(format!("{strategy:?}"))),
                ("failure_at_us", Json::UInt(failure_at.as_micros())),
                (
                    "running_time_us",
                    Json::UInt(report.running_time.as_micros()),
                ),
                ("overhead_us", Json::UInt(overhead.as_micros())),
                ("recovered", Json::Bool(report.recovered)),
                ("purged", Json::UInt(report.purged as u64)),
                ("retransmitted", Json::UInt(report.retransmitted as u64)),
            ]));
        }
    }
    Ok(Json::object(vec![
        ("nodes", Json::UInt(nodes as u64)),
        ("victim", Json::UInt(victim.index() as u64)),
        (
            "baseline_running_time_us",
            Json::UInt(baseline.running_time.as_micros()),
        ),
        ("points", Json::Array(points)),
    ]))
}

/// Tagging overhead: run the workload failure-free with recovery support
/// (provenance tags and output caches) on and off and compare total
/// traffic — the paper reports "at most 2%".  `overhead_fraction` is
/// `bytes_with_tags / bytes_without_tags - 1`.
pub fn run_tagging_overhead(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<Json> {
    let (storage, epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, epoch)?;
    let expected = workload.reference();
    let mut bytes = [0u64; 2];
    for (i, recovery) in [true, false].into_iter().enumerate() {
        let run_config = EngineConfig {
            recovery,
            // Restart is the only strategy valid without recovery
            // support; the run is failure-free so it never engages.
            strategy: RecoveryStrategy::Restart,
            ..config.clone()
        };
        let report = QueryExecutor::new(&storage, run_config).execute(&plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "tagging-overhead run of {} (recovery={recovery}) returned a wrong answer",
                workload.name()
            )));
        }
        bytes[i] = report.total_bytes;
    }
    let [with_tags, without_tags] = bytes;
    Ok(Json::object(vec![
        ("bytes_with_tags", Json::UInt(with_tags)),
        ("bytes_without_tags", Json::UInt(without_tags)),
        (
            "overhead_fraction",
            Json::Float(with_tags as f64 / without_tags.max(1) as f64 - 1.0),
        ),
    ]))
}

/// Plan quality: compile the workload's logical query against the
/// deployed cluster's statistics, execute both the compiled plan and the
/// hand-built oracle (each cross-checked against the reference), and
/// report estimated network bytes, `Rehash` operator counts, measured
/// traffic and simulated running time for both.  Fails if the
/// optimizer's estimated cost exceeds the hand-built plan's.
pub fn run_plan_quality(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<Json> {
    let (storage, epoch) = deploy(workload, nodes)?;
    // One statistics snapshot drives both the compilation and the cost
    // comparison, so the plan is costed against exactly the statistics
    // it was chosen under.
    let stats = Statistics::collect(&storage, epoch);
    let optimized = orchestra_optimizer::compile(&workload.logical(), &stats)?;
    let hand = workload.reference_plan();
    let optimized_cost = estimate_plan_cost(&optimized, &stats)?;
    let hand_cost = estimate_plan_cost(&hand, &stats)?;
    if optimized_cost.total() > hand_cost.total() {
        return Err(OrchestraError::Execution(format!(
            "the optimizer compiled {} to a plan estimated at {} bytes, worse than the \
             hand-built plan's {} bytes",
            workload.name(),
            optimized_cost.total(),
            hand_cost.total()
        )));
    }

    let expected = workload.reference();
    let run = |label: &str, plan| -> Result<QueryReport> {
        let report =
            QueryExecutor::new(&storage, config.clone()).execute(plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "plan-quality run of {} ({label} plan) returned a wrong answer",
                workload.name()
            )));
        }
        Ok(report)
    };
    let optimized_report = run("optimizer", &optimized)?;
    let hand_report = run("hand-built", &hand)?;
    Ok(Json::object(vec![
        ("nodes", Json::UInt(nodes as u64)),
        (
            "optimized_estimated_bytes",
            Json::Float(optimized_cost.total()),
        ),
        ("hand_estimated_bytes", Json::Float(hand_cost.total())),
        (
            "optimized_rehash_count",
            Json::UInt(optimized.rehash_count() as u64),
        ),
        ("hand_rehash_count", Json::UInt(hand.rehash_count() as u64)),
        ("optimized_bytes", Json::UInt(optimized_report.total_bytes)),
        ("hand_bytes", Json::UInt(hand_report.total_bytes)),
        (
            "optimized_running_time_us",
            Json::UInt(optimized_report.running_time.as_micros()),
        ),
        (
            "hand_running_time_us",
            Json::UInt(hand_report.running_time.as_micros()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::{CopyScenario, TpchQuery, TpchWorkload};

    #[test]
    fn scale_out_covers_every_cluster_size() {
        let w = CopyScenario { seed: 3, rows: 120 };
        let points = run_scale_out(&w, &[4, 6, 8], &EngineConfig::default()).unwrap();
        assert_eq!(points.items().unwrap().len(), 3);
        for i in 0..3 {
            assert!(points.num(&format!("{i}.total_bytes")).unwrap() > 0.0);
            assert!(points.num(&format!("{i}.running_time_us")).unwrap() > 0.0);
        }
        assert_eq!(points.num("0.nodes").unwrap(), 4.0);
        // Host time never enters the byte-compared output.
        let json = points.render();
        assert!(!json.contains("wall_clock"), "{json}");
    }

    #[test]
    fn recovery_sweep_compares_both_strategies() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 5, 160);
        let sweep = run_recovery_sweep(&w, 6, NodeId(5), 2, &EngineConfig::default()).unwrap();
        let points = sweep.get("points").unwrap().items().unwrap();
        assert_eq!(points.len(), 4, "2 instants × 2 strategies");
        for strategy in ["Restart", "Incremental"] {
            assert!(points
                .iter()
                .any(|p| p.get("strategy") == Some(&Json::str(strategy))));
        }
        // Every cell was verified against the reference inside the run.
        assert!(sweep.num("baseline_running_time_us").unwrap() > 0.0);
    }

    #[test]
    fn sweeping_the_initiator_is_rejected() {
        let w = CopyScenario { seed: 3, rows: 40 };
        let err = run_recovery_sweep(&w, 4, INITIATOR, 2, &EngineConfig::default()).unwrap_err();
        assert!(err.message().contains("initiator"));
    }

    #[test]
    fn plan_quality_reports_both_plans_and_renders_json() {
        let w = TpchWorkload::scaled(TpchQuery::Q3, 5, 200);
        let quality = run_plan_quality(&w, 6, &EngineConfig::default()).unwrap();
        let num = |key| quality.num(key).unwrap();
        assert!(num("optimized_estimated_bytes") <= num("hand_estimated_bytes"));
        assert!(num("optimized_rehash_count") < num("hand_rehash_count"));
        assert_eq!(num("hand_rehash_count"), 4.0);
        assert!(num("optimized_bytes") > 0.0 && num("hand_bytes") > 0.0);
        assert!(
            num("optimized_bytes") < num("hand_bytes"),
            "fewer rehashes and pruned columns must show up in measured traffic: {quality}"
        );
    }

    #[test]
    fn tagging_overhead_is_positive_and_consistent() {
        // At these scaled-down cardinalities the fixed 36-byte tag is
        // large relative to a tuple, so the fraction is far above the
        // paper's production-scale "at most 2%" — the experiment's job
        // is to measure it, not to hit a constant.
        let w = CopyScenario { seed: 9, rows: 300 };
        let overhead = run_tagging_overhead(&w, 6, &EngineConfig::default()).unwrap();
        let num = |key| overhead.num(key).unwrap();
        let (with_tags, without_tags) = (num("bytes_with_tags"), num("bytes_without_tags"));
        assert!(with_tags > without_tags, "tags must cost something");
        let expected = with_tags / without_tags - 1.0;
        assert!((num("overhead_fraction") - expected).abs() < 1e-12);
        assert!(num("overhead_fraction") > 0.0);
    }
}
