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
//! * [`run_plan_quality`] — the optimizer-compiled plan within its plan
//!   space: every plan the planner considered executed, the compiled
//!   plan's estimated cost, measured traffic and simulated running time,
//!   its ranks among them, and how well estimates order running times.
//!
//! Every workload executes through the System-R optimizer
//! ([`orchestra_workloads::compiled_plan`]): each deployment compiles
//! the workload's logical query against the cluster's live coordinator
//! statistics, exactly as an initiator would.

use crate::failure_sweep_points;
use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, RecoveryStrategy};
use orchestra_optimizer::{estimate_plan_cost, plan_space, Statistics};
use orchestra_workloads::{compiled_plan, deploy, Workload};
use std::cmp::Ordering;

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
/// deployed cluster's statistics and execute every plan of its plan
/// space ([`plan_space`], which holds the compiled plan), each
/// cross-checked against the reference.  Reports the space's size, the
/// compiled plan's estimated network bytes, `Rehash` count, measured
/// traffic and simulated running time, its rank in the space by traffic
/// and by running time (1 is best; tied plans share the better rank),
/// and the Kendall τ between estimated cost and running time over the
/// space's pairs of plans (`null` when every pair ties on one side).
/// Fails if any plan of the space is estimated cheaper than the
/// compiled one.
pub fn run_plan_quality(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<Json> {
    let (storage, epoch) = deploy(workload, nodes)?;
    // One statistics snapshot drives the compilation, the space and the
    // cost comparison, so every plan is costed against exactly the
    // statistics the compiled one was chosen under.
    let stats = Statistics::collect(&storage, epoch);
    let logical = workload.logical();
    let compiled = orchestra_optimizer::compile(&logical, &stats)?;
    let space = plan_space(&logical, &stats)?;
    let at = space.iter().position(|p| *p == compiled).ok_or_else(|| {
        OrchestraError::Execution(format!(
            "the compiled plan of {} is not in its plan space",
            workload.name()
        ))
    })?;

    let expected = workload.reference();
    let exec = QueryExecutor::new(&storage, config.clone());
    // (estimated bytes, measured bytes, running time in µs) per plan.
    let mut measured = Vec::with_capacity(space.len());
    for plan in &space {
        let report = exec.execute(plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "plan-quality run of {} returned a wrong answer for:\n{}",
                workload.name(),
                plan.render()
            )));
        }
        let estimate = estimate_plan_cost(plan, &stats)?.total();
        measured.push((
            estimate,
            report.total_bytes as f64,
            report.running_time.as_micros() as f64,
        ));
    }
    let (estimate, bytes, running_time) = measured[at];
    if let Some((cheaper, _, _)) = measured.iter().find(|m| m.0 < estimate) {
        return Err(OrchestraError::Execution(format!(
            "the optimizer compiled {} to a plan estimated at {estimate} bytes, worse than \
             the {cheaper} bytes of a plan in its space",
            workload.name(),
        )));
    }
    let estimated_vs_time: Vec<(f64, f64)> = measured.iter().map(|m| (m.0, m.2)).collect();
    let rank = |of: fn(&(f64, f64, f64)) -> f64| {
        let compiled = of(&measured[at]);
        Json::UInt(1 + measured.iter().filter(|m| of(m) < compiled).count() as u64)
    };
    Ok(Json::object(vec![
        ("nodes", Json::UInt(nodes as u64)),
        ("space_size", Json::UInt(space.len() as u64)),
        ("estimated_bytes", Json::Float(estimate)),
        ("rehash_count", Json::UInt(compiled.rehash_count() as u64)),
        ("bytes", Json::UInt(bytes as u64)),
        ("running_time_us", Json::UInt(running_time as u64)),
        ("rank_by_bytes", rank(|m| m.1)),
        ("rank_by_running_time", rank(|m| m.2)),
        ("kendall_tau", kendall_tau(&estimated_vs_time)),
    ]))
}

/// Kendall's τ over `(x, y)` pairs: (concordant − discordant) / (pairs
/// untied on both), or `null` when no pair is untied on both.  Values
/// within a relative 1e-9 of each other tie: two estimates of one cost
/// summed in a different order differ in the last bits only.
fn kendall_tau(points: &[(f64, f64)]) -> Json {
    let order = |a: f64, b: f64| {
        if (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) {
            Ordering::Equal
        } else {
            a.total_cmp(&b)
        }
    };
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for (i, &(xi, yi)) in points.iter().enumerate() {
        for &(xj, yj) in &points[i + 1..] {
            match (order(xi, xj), order(yi, yj)) {
                (Ordering::Equal, _) | (_, Ordering::Equal) => {}
                (a, b) if a == b => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    match concordant + discordant {
        0 => Json::Null,
        untied => Json::Float((concordant - discordant) as f64 / untied as f64),
    }
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
    fn plan_quality_ranks_the_compiled_plan_in_its_space() {
        let w = TpchWorkload::scaled(TpchQuery::Q3, 5, 200);
        let quality = run_plan_quality(&w, 6, &EngineConfig::default()).unwrap();
        let num = |key| quality.num(key).unwrap();
        assert_eq!(num("space_size"), 16.0, "eight join trees, two placements");
        assert!(num("estimated_bytes") > 0.0 && num("bytes") > 0.0);
        assert!(num("rehash_count") < 4.0, "{quality}");
        for rank in ["rank_by_bytes", "rank_by_running_time"] {
            assert!((1.0..=16.0).contains(&num(rank)), "{quality}");
        }
        let tau = num("kendall_tau");
        assert!((-1.0..=1.0).contains(&tau), "{quality}");
    }

    #[test]
    fn kendall_tau_counts_only_pairs_untied_on_both_sides() {
        assert_eq!(
            kendall_tau(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
            Json::Float(1.0)
        );
        assert_eq!(
            kendall_tau(&[(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]),
            Json::Float(-1.0)
        );
        // (1,2) is concordant, (1,3) discordant, (2,3) tied on x.
        assert_eq!(
            kendall_tau(&[(1.0, 1.0), (2.0, 2.0), (2.0, 0.0)]),
            Json::Float(0.0)
        );
        assert_eq!(kendall_tau(&[(1.0, 1.0), (1.0, 2.0)]), Json::Null);
        assert_eq!(kendall_tau(&[(0.1 + 0.2, 1.0), (0.3, 2.0)]), Json::Null);
        assert_eq!(kendall_tau(&[(1.0, 1.0)]), Json::Null);
    }

    #[test]
    fn tagging_overhead_is_positive_and_consistent() {
        // The fraction is far above the paper's "at most 2%", and not
        // because the cardinalities are small: it grows with scale (Q1's
        // is 0.12 at 240 rows and 1.35 at 60,000), since every row pays
        // the full 36-byte tag although a batch carries few distinct
        // tags (ROADMAP item 6 prices them as a dictionary).  The
        // experiment's job is to measure it, not to hit a constant.
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
