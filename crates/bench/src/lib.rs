//! # orchestra-bench
//!
//! The experiment harness that reproduces the paper's figures.
//!
//! Each experiment ([`experiments`]) drives
//! [`orchestra_engine::QueryExecutor`] over a cluster deployed through
//! [`orchestra_workloads::deploy`], reads the measurements off the
//! returned [`orchestra_engine::QueryReport`] and returns them as its
//! section of the bench document, a [`Json`] value built where the
//! reports are read (no result struct sits in between):
//!
//! * **scale-out** (Figures 7–12) — [`run_scale_out`]: running time and
//!   traffic as the participant count grows;
//! * **recovery cost** (Figures 13–14) — [`run_recovery_sweep`]: the
//!   added running time of [`orchestra_engine::RecoveryStrategy::Restart`]
//!   versus [`orchestra_engine::RecoveryStrategy::Incremental`] as a
//!   function of when the failure strikes, swept over
//!   [`failure_sweep_points`];
//! * **tagging overhead** — [`run_tagging_overhead`]: traffic with and
//!   without recovery support, validating the paper's "at most 2%" claim;
//! * **plan quality** — [`run_plan_quality`]: the System-R
//!   optimizer-compiled plan within its plan space, every plan of which
//!   runs: the compiled plan's estimated cost, measured traffic and
//!   simulated running time, its ranks among the space's plans, and the
//!   rank correlation of estimated cost with running time;
//! * **publication & maintenance** — [`run_maintenance`]: materialized
//!   workload answers maintained across multi-epoch update streams,
//!   sweeping delta size × epoch count, with the cost model's
//!   incremental-vs-recompute decision judged against both measured
//!   shipped-byte figures and every maintained answer cross-checked
//!   against a fresh full run (one epoch per sweep is maintained while
//!   a node fails mid-maintenance);
//! * **open-loop serving** — [`run_serving_experiment`]: Poisson
//!   arrivals with Zipf-skewed query popularity driven through the
//!   scheduler's epoch-keyed result cache, swept over arrival rate ×
//!   cache capacity × skew, with p99/p999 tail latency, SLO-miss and
//!   shed accounting, every answer (cached or executed) cross-checked;
//! * **standing-query fan-out** — [`run_subscriptions`]: many
//!   registered views kept exact by one shared
//!   [`orchestra_engine::ViewRegistry`] workload per epoch, swept over
//!   subscriber count × churn against a per-view-independent control,
//!   with per-epoch delta derivations held to O(changed relations) and
//!   subscriber diffs accounted under their own key;
//! * **membership churn** — [`run_churn`]: epidemic membership under a
//!   burst (convergence within `3·⌈log2 n⌉ + 4` rounds at fanout 2,
//!   enforced for n = 100 and n = 1000) and under sustained Poisson
//!   churn, where each epoch's query runs against the initiator's
//!   possibly stale gossip view and must still match the reference;
//! * **adaptive statistics** — [`run_adaptivity`]: the full adaptive
//!   loop per workload — a churned calibration stream whose measured
//!   cardinalities and bytes fold into
//!   [`orchestra_optimizer::CostFeedback`] (predicted-vs-actual error
//!   must never rise, and broadcast joins switch on once calibrated), a
//!   growth stream where a [`orchestra_optimizer::DriftMonitor`]
//!   triggers delta-leg recompilation whose steady-state refresh bytes
//!   must not exceed the stale legs it replaced (dissemination paid by
//!   the reinstall epoch, reported explicitly), and an
//!   incremental-vs-recompute crossover sweep over delta fractions from
//!   0.1% to 200% where calibrated byte estimates must track the
//!   measured figures at least as closely as cold ones.
//!
//! Queries reach the executor through the optimizer: every experiment
//! compiles the workload's [`orchestra_optimizer::LogicalQuery`] against
//! the deployed cluster's coordinator statistics
//! ([`orchestra_workloads::compiled_plan`]); no physical plan is
//! written by hand.  Every experiment also cross-checks each
//! distributed answer against the workload's single-node reference
//! before reporting measurements, so a wrong answer fails loudly instead
//! of producing plausible numbers.
//!
//! The `orchestra-bench` binary (`src/main.rs`) runs a small
//! configuration of every experiment over two TPC-H queries and one
//! STBenchmark scenario and prints the sections as they are, as one JSON
//! document on stdout — the machine-readable form the figures are
//! plotted from.  The in-run gates and the tests read figures back out
//! of a section with [`Json::num`], which fails on a key that was never
//! written.  Bandwidth-sensitivity sweeps (Figure 17) reuse
//! [`run_scale_out`] with WAN [`orchestra_simnet::ClusterProfile`]s.

pub mod adaptivity;
pub mod churn;
pub mod equiv;
pub mod experiments;
pub mod json;
pub mod maintenance;
pub mod serving;
pub mod subscriptions;
pub mod throughput;

use orchestra_simnet::SimTime;

pub use adaptivity::{run_adaptivity, AdaptivitySpec};
pub use churn::{run_churn, ChurnBenchSpec};
pub use experiments::{
    run_plan_quality, run_recovery_sweep, run_scale_out, run_tagging_overhead, INITIATOR,
};
pub use json::Json;
pub use maintenance::{run_maintenance, MaintenanceSweepSpec};
pub use serving::{poisson_arrivals, run_serving_experiment, trace_arrivals, ServingSpec};
pub use subscriptions::{run_subscriptions, SubscriptionsSpec};
pub use throughput::run_throughput;

/// Evenly spaced virtual failure instants across a baseline running
/// time, excluding the endpoints — the x-axis of a recovery-cost sweep.
///
/// When the baseline is shorter than `points + 1` microseconds there are
/// fewer interior instants than requested; the result then contains only
/// the distinct interior points (possibly none), never `t = 0` or
/// duplicates.
pub fn failure_sweep_points(baseline: SimTime, points: usize) -> Vec<SimTime> {
    let step = (baseline.as_micros() / (points as u64 + 1)).max(1);
    (1..=points as u64)
        .map(|i| SimTime::from_micros(i * step))
        .filter(|t| *t < baseline)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_are_interior_and_ordered() {
        let baseline = SimTime::from_millis(100);
        let pts = failure_sweep_points(baseline, 4);
        assert_eq!(pts.len(), 4);
        assert!(pts[0] > SimTime::ZERO);
        assert!(*pts.last().unwrap() < baseline);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_baselines_never_yield_zero_or_duplicate_points() {
        // Regression: a baseline shorter than points + 1 µs used to
        // produce `points` copies of t = 0.
        for micros in 1..8u64 {
            let pts = failure_sweep_points(SimTime::from_micros(micros), 4);
            assert!(
                pts.iter().all(|t| *t > SimTime::ZERO),
                "{micros}µs: {pts:?}"
            );
            assert!(
                pts.iter().all(|t| *t < SimTime::from_micros(micros)),
                "{micros}µs: {pts:?}"
            );
            assert!(pts.windows(2).all(|w| w[0] < w[1]), "{micros}µs: {pts:?}");
        }
    }
}
