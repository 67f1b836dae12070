//! The adaptive-statistics experiment: measured feedback, drift-fired
//! re-optimization, and the incremental-vs-recompute crossover.
//!
//! [`run_adaptivity`] drives the full adaptive loop over each workload
//! of the TPC-H trio, in three phases per workload:
//!
//! 1. **Feedback stream** — a churned multi-epoch stream is queried
//!    ad-hoc every epoch.  The first compilation runs cold (catalog
//!    statistics only); every later epoch first absorbs the published
//!    signed delta into [`orchestra_optimizer::AdaptiveStats`], overlays
//!    the enriched snapshot, recompiles, and executes.  Predicted output
//!    cardinality and network bytes are scored against the measured
//!    [`orchestra_engine::QueryReport`], folded into
//!    [`orchestra_optimizer::CostFeedback`], and the running
//!    predicted-vs-actual error must never rise across the stream (it
//!    shrinks strictly wherever the cold compile started wrong).  Once
//!    enough ad-hoc observations accumulate, calibration turns broadcast
//!    joins on for ad-hoc plans — every answer, before and after the
//!    switch, is cross-checked against the stream's exact reference.
//! 2. **Drift-fired re-optimization** — the same deployment continues
//!    into a growth stream watched by a
//!    [`orchestra_optimizer::DriftMonitor`].  Two identical
//!    [`orchestra_engine::ViewRegistry`]s refresh every epoch: a *stale*
//!    control that keeps its compile-time delta legs forever, and an
//!    adaptive registry that, when the monitor fires, recompiles its
//!    legs ([`orchestra_optimizer::compile_delta_legs_with`] at the
//!    observed delta-size EWMA) and reinstalls them through
//!    [`orchestra_engine::ViewRegistry::reinstall_legs`].  The reinstall
//!    epoch pays the new dataflows' dissemination (reported explicitly);
//!    every steady epoch after it must ship **no more** bytes than the
//!    stale control.
//! 3. **Crossover sweep** — per delta fraction (0.1% … 200% of the base
//!    rows), a fresh deployment maintains the view while both refresh
//!    strategies are measured on their own state copy.  The cost model's
//!    *cold* incremental/recompute estimates and their
//!    feedback-*calibrated* counterparts are each judged against the
//!    measured shipped bytes; as byte observations accumulate across the
//!    sweep, the calibrated predictions must track the measured figures
//!    at least as closely as the cold ones (and their decisions agree
//!    with the measured winner at least as often).

use crate::experiments::INITIATOR;
use crate::json::Json;
use crate::maintenance::{maintain_epoch, materialize};
use orchestra_common::{Epoch, OrchestraError, Result};
use orchestra_engine::{EngineConfig, MaterializedView, QueryExecutor, ViewRegistry};
use orchestra_optimizer::{
    compile, compile_delta_legs, compile_delta_legs_with, compile_with,
    estimate_plan_cost_and_rows, AdaptiveStats, CostChannel, CostFeedback, DriftConfig,
    DriftMonitor, MaintenanceDecision, Statistics,
};
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{deploy_staged, epoch_stream, EpochSpec, EpochStream, Workload};

/// Tolerance for "never rises" comparisons between floats that are
/// bitwise-reproducible but accumulate through EWMAs.
const EPS: f64 = 1e-9;

/// The adaptivity experiment's tunables.
#[derive(Clone, Copy, Debug)]
pub struct AdaptivitySpec<'a> {
    /// Seed of the data and every churn stream.
    pub seed: u64,
    /// Rows per relation of each workload.
    pub rows: usize,
    /// Cluster size.
    pub nodes: u16,
    /// Epochs of the calibration (feedback) stream.
    pub feedback_epochs: usize,
    /// Per-epoch churn of the calibration stream.
    pub feedback_churn: EpochSpec,
    /// Drift-monitor tunables of the re-optimization phase.
    pub drift: DriftConfig,
    /// Per-epoch churn of the growth stream the monitor watches.
    pub drift_churn: EpochSpec,
    /// Epochs of the growth stream.
    pub drift_epochs: usize,
    /// Signed-delta fractions of the crossover sweep, relative to
    /// `rows` (`0.001` … `2.0` spans 0.1%–200%).
    pub delta_fractions: &'a [f64],
    /// Maintained epochs per crossover fraction.
    pub crossover_epochs: usize,
    /// Extra long calibration stream (`--heavy`; `0` disables it), run
    /// over the trio's join workload on its own fresh deployment.
    pub heavy_epochs: usize,
}

/// Run the adaptivity experiment over `workloads` (the TPC-H trio in
/// the binary).  Every phase cross-checks every answer — ad-hoc,
/// maintained stale, maintained adaptive, incremental and recompute —
/// against the stream's exact reference, and the adaptive loop's three
/// promises are enforced in-run: the predicted-vs-actual error never
/// rises across the calibration stream, drift-recompiled legs never
/// ship more steady-state bytes than the stale legs they replaced, and
/// calibrated byte estimates track the measured figures at least as
/// closely as the cold ones.
///
/// Per workload: `feedback` holds one object per calibration epoch, the
/// first the cold compile at the deployment epoch.  `calibrated_rows` is
/// the row estimate after the loop's learned bias correction, and
/// `cardinality_error` the running EWMA of `|log2(actual / predicted)|`
/// after folding the epoch in.  `drift` reports both registries' bytes
/// per epoch.  Its `dissemination_bytes` are what the reinstall epoch
/// shipped beyond the stale control.  `steady_*_bytes` sum the epochs
/// after it.  `crossover` scores decisions on its `decisive_points`
/// only, where the measured strategies differ by more than 10%.  Its
/// `*_log_error`s sum `|ln(predicted + 1) − ln(measured + 1)|` over both
/// channels.  `heavy` (with `--heavy`) is the long stream's first and
/// last error.
pub fn run_adaptivity(
    workloads: &[&dyn Workload],
    spec: &AdaptivitySpec,
    config: &EngineConfig,
) -> Result<Json> {
    let mut sections = Vec::with_capacity(workloads.len());
    for workload in workloads {
        sections.push(run_workload(*workload, spec, config)?);
    }
    // Figure (b) of the drift story needs at least one workload whose
    // recompiled legs strictly beat the stale ones — the join workload,
    // where leg shape genuinely depends on the statistics.
    let beats_stale =
        |w: &Json| w.get("drift").and_then(|d| d.get("beats_stale")) == Some(&Json::Bool(true));
    if !sections.iter().any(beats_stale) {
        return Err(OrchestraError::Execution(
            "no drift-triggered recompilation beat its stale legs anywhere in the trio".into(),
        ));
    }
    let mut fields = vec![
        ("nodes", Json::UInt(spec.nodes as u64)),
        ("workloads", Json::Array(sections)),
    ];
    if spec.heavy_epochs > 0 {
        let heavy_workload = workloads.get(1).copied().unwrap_or(workloads[0]);
        fields.push(("heavy", run_heavy(heavy_workload, spec, config)?));
    }
    Ok(Json::object(fields))
}

fn run_workload(
    workload: &dyn Workload,
    spec: &AdaptivitySpec,
    config: &EngineConfig,
) -> Result<Json> {
    // Phases 1 and 2 share one deployment and one churn stream: the
    // calibration epochs first, the growth epochs after.
    let mut specs = vec![spec.feedback_churn; spec.feedback_epochs];
    specs.extend(vec![spec.drift_churn; spec.drift_epochs]);
    let stream = epoch_stream(workload, spec.seed, &specs)?;
    let (mut storage, birth, base) = deploy_staged(workload, spec.nodes)?;

    let mut adaptive = AdaptiveStats::new();
    let mut feedback = CostFeedback::new();
    let feedback_points = run_feedback_stream(
        workload,
        &mut storage,
        &stream,
        0..spec.feedback_epochs,
        birth,
        base,
        &mut adaptive,
        &mut feedback,
        config,
    )?;
    // The adaptive promise: once the loop is live (every point after
    // the cold compile), accumulating feedback never makes the
    // calibrated predictions worse.  A stream that starts exact (the
    // copy scenario predicts its scan cardinality perfectly) is allowed
    // to stay flat at zero.
    for pair in feedback_points[1..].windows(2) {
        let (before, after) = (error(&pair[0])?, error(&pair[1])?);
        if after > before + EPS {
            return Err(OrchestraError::Execution(format!(
                "{}: cardinality error rose from {before:.6} to {after:.6} at epoch {}",
                workload.name(),
                pair[1].num("epoch")?
            )));
        }
    }

    let drift = run_drift_phase(
        workload,
        &mut storage,
        &stream,
        spec.feedback_epochs..spec.feedback_epochs + spec.drift_epochs,
        &mut adaptive,
        spec.drift,
        config,
    )?;

    let crossover = run_crossover_sweep(workload, spec, &mut feedback, config)?;

    Ok(Json::object(vec![
        ("workload", Json::str(workload.name())),
        (
            "initial_cardinality_error",
            Json::Float(error(&feedback_points[0])?),
        ),
        (
            "final_cardinality_error",
            Json::Float(error(&feedback_points[feedback_points.len() - 1])?),
        ),
        ("broadcast_enabled", Json::Bool(feedback.broadcast_ready())),
        ("recompiles", Json::UInt(drift.num("recompiles")? as u64)),
        ("feedback", Json::Array(feedback_points)),
        ("drift", drift),
        ("crossover", crossover),
    ]))
}

/// The running cardinality error a feedback point reports.
fn error(point: &Json) -> Result<f64> {
    point.num("cardinality_error")
}

/// Phase 1: the calibration stream.  `epochs` indexes into `stream`;
/// the first point is the *cold* compile at the deployment epoch.
#[allow(clippy::too_many_arguments)]
fn run_feedback_stream(
    workload: &dyn Workload,
    storage: &mut DistributedStorage,
    stream: &EpochStream,
    epochs: std::ops::Range<usize>,
    birth: Epoch,
    base: Epoch,
    adaptive: &mut AdaptiveStats,
    feedback: &mut CostFeedback,
    config: &EngineConfig,
) -> Result<Vec<Json>> {
    let mut points = Vec::with_capacity(epochs.len() + 1);

    // The cold point: catalog statistics, default planner options.
    let cold_stats = Statistics::collect(storage, base);
    let reference = workload.reference();
    points.push(observe_adhoc(
        workload,
        storage,
        base,
        &cold_stats,
        feedback,
        config,
        Observation::Cold(&reference),
    )?);
    // Absorb the base contents from their birth delta — from here on
    // the overlay knows the real histograms, widths and distincts.
    adaptive.absorb(storage, birth, base)?;

    let mut prev = base;
    for i in epochs {
        let epoch = storage.publish(stream.batch(i))?;
        adaptive.absorb(storage, prev, epoch)?;
        prev = epoch;
        let enriched = adaptive.overlay(&Statistics::collect(storage, epoch));
        points.push(observe_adhoc(
            workload,
            storage,
            epoch,
            &enriched,
            feedback,
            config,
            Observation::Calibrated(stream.reference(i)),
        )?);
    }
    Ok(points)
}

/// How one ad-hoc observation folds into the feedback state, carrying
/// the reference answer the execution must reproduce.
///
/// The `Cold` point — the catalog-statistics compile before any delta
/// was absorbed — reports its raw error but is *not* folded into the
/// cardinality bias: the signed log-ratio calibrates the enriched
/// estimator, and the cold estimator's differently-signed error would
/// poison it.  Its byte observation still counts (the ad-hoc channel's
/// broadcast trust is about traffic, not about which estimator ran).
enum Observation<'a> {
    /// The catalog-statistics compile at the base epoch.
    Cold(&'a [orchestra_common::Tuple]),
    /// An enriched-overlay compile; its error feeds the calibration.
    Calibrated(&'a [orchestra_common::Tuple]),
}

impl<'a> Observation<'a> {
    fn reference(&self) -> &'a [orchestra_common::Tuple] {
        match self {
            Observation::Cold(r) | Observation::Calibrated(r) => r,
        }
    }
}

/// Compile, predict, execute and cross-check one ad-hoc query; fold the
/// measured rows and bytes into `feedback` as `observation` dictates.
fn observe_adhoc(
    workload: &dyn Workload,
    storage: &DistributedStorage,
    epoch: Epoch,
    stats: &Statistics,
    feedback: &mut CostFeedback,
    config: &EngineConfig,
    observation: Observation<'_>,
) -> Result<Json> {
    let options = feedback.planner_options();
    let plan = compile_with(&workload.logical(), stats, options)?;
    let (cost, predicted_rows) = estimate_plan_cost_and_rows(&plan, stats)?;
    let report = QueryExecutor::new(storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
    if report.rows != observation.reference() {
        return Err(OrchestraError::Execution(format!(
            "ad-hoc answer of {} at {epoch} disagrees with the reference",
            workload.name()
        )));
    }
    let actual = report.output_rows() as f64;
    let calibrated_rows = feedback.calibrate_rows(predicted_rows);
    let cardinality_error = match observation {
        Observation::Cold(_) => ((actual + 1.0) / (predicted_rows.max(0.0) + 1.0))
            .log2()
            .abs(),
        Observation::Calibrated(_) => {
            feedback.observe_rows(predicted_rows, actual);
            feedback.cardinality_error()
        }
    };
    feedback.observe_bytes(
        CostChannel::Adhoc,
        cost.network_bytes,
        report.total_bytes as f64,
    );
    Ok(Json::object(vec![
        ("epoch", Json::UInt(epoch.0)),
        ("predicted_rows", Json::Float(predicted_rows)),
        ("calibrated_rows", Json::Float(calibrated_rows)),
        ("actual_rows", Json::UInt(report.output_rows() as u64)),
        ("predicted_bytes", Json::Float(cost.network_bytes)),
        ("actual_bytes", Json::UInt(report.total_bytes)),
        ("cardinality_error", Json::Float(cardinality_error)),
        ("broadcast_joins", Json::Bool(options.broadcast_joins)),
    ]))
}

/// Phase 2: the growth stream, watched by the drift monitor, refreshing
/// a stale control registry and an adaptive registry side by side.
fn run_drift_phase(
    workload: &dyn Workload,
    storage: &mut DistributedStorage,
    stream: &EpochStream,
    epochs: std::ops::Range<usize>,
    adaptive: &mut AdaptiveStats,
    drift_config: DriftConfig,
    config: &EngineConfig,
) -> Result<Json> {
    let start_epoch = storage
        .latest_epoch()
        .expect("the calibration stream published at least the base batch");
    let compile_stats = adaptive.overlay(&Statistics::collect(storage, start_epoch));
    let plan = compile(&workload.logical(), &compile_stats)?;
    let mut template = MaterializedView::new(workload.name(), &plan)?;
    if !template.supports_incremental() {
        return Err(OrchestraError::Execution(format!(
            "workload {} compiled to a recompute-only view",
            workload.name()
        )));
    }
    let legs = compile_delta_legs(&workload.logical(), &compile_stats)?;
    template.install_leg_plans(&legs)?;

    let mut stale = ViewRegistry::new(INITIATOR);
    stale.register(template.clone());
    let mut adaptive_reg = ViewRegistry::new(INITIATOR);
    adaptive_reg.register(template);
    stale.refresh(storage, config, start_epoch, None)?;
    adaptive_reg.refresh(storage, config, start_epoch, None)?;

    let mut monitor = DriftMonitor::new(drift_config);
    monitor.rebase(&compile_stats);

    let mut points = Vec::with_capacity(epochs.len());
    let mut fired_epoch = None;
    let (mut dissemination_bytes, mut steady_stale_bytes, mut steady_adaptive_bytes) = (0, 0, 0);
    let mut beats_stale = false;
    let mut prev = start_epoch;
    let mut reinstall_pending = false;
    for i in epochs {
        let epoch = storage.publish(stream.batch(i))?;
        let stale_refresh = stale.refresh(storage, config, epoch, None)?;
        let adaptive_refresh = adaptive_reg.refresh(storage, config, epoch, None)?;
        for (label, registry) in [("stale", &stale), ("adaptive", &adaptive_reg)] {
            if registry.view(0).answer() != stream.reference(i) {
                return Err(OrchestraError::Execution(format!(
                    "{label} registry of {} diverged at {epoch}",
                    workload.name()
                )));
            }
        }

        if reinstall_pending {
            // The first refresh after a reinstall pays the recompiled
            // dataflows' dissemination; account it explicitly and keep
            // it out of the steady-state comparison.
            dissemination_bytes = adaptive_refresh
                .shipped_bytes
                .saturating_sub(stale_refresh.shipped_bytes);
            reinstall_pending = false;
        } else if fired_epoch.is_some() {
            // Steady state after the recompile: the new legs must not
            // cost more than the stale ones they replaced.
            steady_stale_bytes += stale_refresh.shipped_bytes;
            steady_adaptive_bytes += adaptive_refresh.shipped_bytes;
            if adaptive_refresh.shipped_bytes > stale_refresh.shipped_bytes {
                return Err(OrchestraError::Execution(format!(
                    "{}: recompiled legs shipped {} bytes at {epoch}, more than the stale \
                     legs' {}",
                    workload.name(),
                    adaptive_refresh.shipped_bytes,
                    stale_refresh.shipped_bytes
                )));
            }
            if adaptive_refresh.shipped_bytes < stale_refresh.shipped_bytes {
                beats_stale = true;
            }
        }

        adaptive.absorb(storage, prev, epoch)?;
        prev = epoch;
        let enriched = adaptive.overlay(&Statistics::collect(storage, epoch));
        let score = monitor.drift(&enriched);
        let fired = monitor.observe(&enriched);
        if fired && fired_epoch.is_none() {
            let new_legs = compile_delta_legs_with(
                &workload.logical(),
                &enriched,
                &adaptive.delta_rows_estimate(),
            )?;
            adaptive_reg.reinstall_legs(0, &new_legs)?;
            monitor.rebase(&enriched);
            fired_epoch = Some(epoch.0);
            reinstall_pending = true;
        }
        points.push(Json::object(vec![
            ("epoch", Json::UInt(epoch.0)),
            ("drift_score", Json::Float(score)),
            ("stale_bytes", Json::UInt(stale_refresh.shipped_bytes)),
            ("adaptive_bytes", Json::UInt(adaptive_refresh.shipped_bytes)),
            ("fired", Json::Bool(fired)),
        ]));
    }
    let Some(fired_epoch) = fired_epoch else {
        return Err(OrchestraError::Execution(format!(
            "{}: the growth stream never fired the drift monitor",
            workload.name()
        )));
    };
    Ok(Json::object(vec![
        ("points", Json::Array(points)),
        ("recompiles", Json::UInt(adaptive_reg.recompiles())),
        ("fired_epoch", Json::UInt(fired_epoch)),
        ("dissemination_bytes", Json::UInt(dissemination_bytes)),
        ("steady_stale_bytes", Json::UInt(steady_stale_bytes)),
        ("steady_adaptive_bytes", Json::UInt(steady_adaptive_bytes)),
        ("beats_stale", Json::Bool(beats_stale)),
    ]))
}

/// Phase 3: the crossover sweep.  Each fraction maintains a fresh
/// deployment for `crossover_epochs` epochs, measuring both refresh
/// strategies and judging the cold and calibrated predictions against
/// the measured shipped bytes.
fn run_crossover_sweep(
    workload: &dyn Workload,
    spec: &AdaptivitySpec,
    feedback: &mut CostFeedback,
    config: &EngineConfig,
) -> Result<Json> {
    let mut points = Vec::new();
    let (mut decisive_points, mut cold_agreements, mut calibrated_agreements) = (0, 0, 0);
    let (mut cold_log_error, mut calibrated_log_error) = (0.0, 0.0);
    for &fraction in spec.delta_fractions {
        let target = ((fraction * spec.rows as f64).round() as usize).max(1);
        let churn = EpochSpec::new(target % 2, target / 2, 0);
        let (mut storage, _, mut view) = materialize(workload, spec.nodes, config)?;
        let stream = epoch_stream(workload, spec.seed, &vec![churn; spec.crossover_epochs])?;

        for i in 0..spec.crossover_epochs {
            let step = maintain_epoch(
                workload,
                &mut storage,
                &view,
                stream.batch(i),
                stream.reference(i),
                config,
            )?;
            let choice = &step.choice;
            let calibrated_inc =
                feedback.calibrate(CostChannel::Incremental, choice.incremental_bytes);
            let calibrated_rec = feedback.calibrate(CostChannel::Recompute, choice.recompute_bytes);
            let calibrated_decision = if choice.legs > 0 && calibrated_inc < calibrated_rec {
                MaintenanceDecision::Incremental
            } else {
                MaintenanceDecision::Recompute
            };
            let inc_bytes = step.incremental.1.shipped_bytes;
            let rec_bytes = step.recompute.1.shipped_bytes;
            let measured_decision = if inc_bytes < rec_bytes {
                MaintenanceDecision::Incremental
            } else {
                MaintenanceDecision::Recompute
            };
            let hi = inc_bytes.max(rec_bytes) as f64;
            let lo = inc_bytes.min(rec_bytes) as f64;
            if hi > 0.0 && (hi - lo) / hi > 0.1 {
                decisive_points += 1;
                cold_agreements += u64::from(choice.decision == measured_decision);
                calibrated_agreements += u64::from(calibrated_decision == measured_decision);
            }
            cold_log_error += log_error(choice.incremental_bytes, inc_bytes)
                + log_error(choice.recompute_bytes, rec_bytes);
            calibrated_log_error +=
                log_error(calibrated_inc, inc_bytes) + log_error(calibrated_rec, rec_bytes);

            // Fold the measured bytes back in — later fractions run
            // against a better-calibrated model.
            if choice.legs > 0 {
                feedback.observe_bytes(
                    CostChannel::Incremental,
                    choice.incremental_bytes,
                    inc_bytes as f64,
                );
            }
            feedback.observe_bytes(
                CostChannel::Recompute,
                choice.recompute_bytes,
                rec_bytes as f64,
            );

            let decision = |d: MaintenanceDecision| Json::str(format!("{d:?}"));
            points.push(Json::object(vec![
                ("fraction", Json::Float(fraction)),
                ("delta_rows", Json::UInt(step.delta_rows as u64)),
                ("cold_decision", decision(choice.decision)),
                ("calibrated_decision", decision(calibrated_decision)),
                ("measured_decision", decision(measured_decision)),
                (
                    "cold_incremental_bytes",
                    Json::Float(choice.incremental_bytes),
                ),
                ("cold_recompute_bytes", Json::Float(choice.recompute_bytes)),
                ("calibrated_incremental_bytes", Json::Float(calibrated_inc)),
                ("calibrated_recompute_bytes", Json::Float(calibrated_rec)),
                ("measured_incremental_bytes", Json::UInt(inc_bytes)),
                ("measured_recompute_bytes", Json::UInt(rec_bytes)),
            ]));
            view = step.keep(calibrated_decision);
        }
    }

    // Calibration must move the predictions toward the measured truth:
    // at least as many decision agreements, and byte estimates at least
    // as close on the log scale.
    if calibrated_agreements < cold_agreements {
        return Err(OrchestraError::Execution(format!(
            "{}: calibrated decisions agree with the measured winner less often than cold \
             ones ({calibrated_agreements} vs {cold_agreements})",
            workload.name(),
        )));
    }
    if calibrated_log_error > cold_log_error + EPS {
        return Err(OrchestraError::Execution(format!(
            "{}: calibrated byte estimates drifted further from the measured figures than \
             cold ones ({calibrated_log_error:.4} vs {cold_log_error:.4})",
            workload.name(),
        )));
    }
    Ok(Json::object(vec![
        ("points", Json::Array(points)),
        ("decisive_points", Json::UInt(decisive_points)),
        ("cold_agreements", Json::UInt(cold_agreements)),
        ("calibrated_agreements", Json::UInt(calibrated_agreements)),
        ("cold_log_error", Json::Float(cold_log_error)),
        ("calibrated_log_error", Json::Float(calibrated_log_error)),
    ]))
}

/// `|ln(predicted + 1) − ln(measured + 1)|` — the scale-free distance
/// between one byte estimate and its measured figure.
fn log_error(predicted: f64, measured: u64) -> f64 {
    ((predicted.max(0.0) + 1.0).ln() - (measured as f64 + 1.0).ln()).abs()
}

/// The `--heavy` long calibration stream over one workload.
fn run_heavy(
    workload: &dyn Workload,
    spec: &AdaptivitySpec,
    config: &EngineConfig,
) -> Result<Json> {
    let stream = epoch_stream(
        workload,
        spec.seed,
        &vec![spec.feedback_churn; spec.heavy_epochs],
    )?;
    let (mut storage, birth, base) = deploy_staged(workload, spec.nodes)?;
    let mut adaptive = AdaptiveStats::new();
    let mut feedback = CostFeedback::new();
    let points = run_feedback_stream(
        workload,
        &mut storage,
        &stream,
        0..spec.heavy_epochs,
        birth,
        base,
        &mut adaptive,
        &mut feedback,
        config,
    )?;
    let initial = error(&points[0])?;
    let final_err = error(&points[points.len() - 1])?;
    if final_err > initial + EPS {
        return Err(OrchestraError::Execution(format!(
            "heavy stream of {}: cardinality error rose from {initial:.6} to {final_err:.6}",
            workload.name()
        )));
    }
    Ok(Json::object(vec![
        ("workload", Json::str(workload.name())),
        ("epochs", Json::UInt(spec.heavy_epochs as u64)),
        ("initial_cardinality_error", Json::Float(initial)),
        ("final_cardinality_error", Json::Float(final_err)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::{CopyScenario, TpchQuery, TpchWorkload};

    fn small_spec() -> AdaptivitySpec<'static> {
        AdaptivitySpec {
            seed: 42,
            rows: 600,
            nodes: 6,
            feedback_epochs: 4,
            feedback_churn: EpochSpec::new(3, 2, 2),
            drift: DriftConfig::default(),
            drift_churn: EpochSpec::new(900, 0, 0),
            drift_epochs: 5,
            delta_fractions: &[2.0, 0.5, 0.01],
            crossover_epochs: 1,
            heavy_epochs: 0,
        }
    }

    #[test]
    fn join_workload_learns_drifts_and_calibrates() {
        let q3 = TpchWorkload::scaled(TpchQuery::Q3, 42, 600);
        let report = run_adaptivity(&[&q3], &small_spec(), &EngineConfig::default()).unwrap();
        let num = |key: &str| report.num(&format!("workloads.0.{key}")).unwrap();
        let w = &report.get("workloads").unwrap().items().unwrap()[0];
        // Feedback: the cold compile starts wrong, the enriched ones end
        // strictly better (the in-run check already enforced "never
        // rises" pointwise).
        assert!(
            num("final_cardinality_error") < num("initial_cardinality_error"),
            "error must shrink: {w}"
        );
        assert_eq!(
            w.get("broadcast_enabled"),
            Some(&Json::Bool(true)),
            "ad-hoc samples enable broadcast joins"
        );
        // Drift: exactly one recompilation, and the steady-state bytes
        // of the recompiled legs beat the stale ones.
        assert_eq!(num("drift.recompiles"), 1.0);
        assert!(num("drift.fired_epoch") > 0.0);
        let drift = w.get("drift").unwrap();
        assert_eq!(drift.get("beats_stale"), Some(&Json::Bool(true)));
        assert!(num("drift.steady_adaptive_bytes") <= num("drift.steady_stale_bytes"));
        // Crossover: calibration never scores worse than cold.
        assert!(num("crossover.calibrated_agreements") >= num("crossover.cold_agreements"));
        assert!(num("crossover.calibrated_log_error") <= num("crossover.cold_log_error") + EPS);
        assert!(num("crossover.points.0.calibrated_incremental_bytes") > 0.0);
        assert!(num("feedback.0.cardinality_error") > 0.0);
    }

    #[test]
    fn single_relation_workloads_stay_flat_but_never_regress() {
        // The copy scenario's cold prediction is already exact: the
        // error sequence must stay flat (never rise), drift must still
        // fire on growth, and the recompiled leg — identical in shape —
        // must cost exactly what the stale one does.
        let copy = CopyScenario {
            seed: 42,
            rows: 600,
        };
        let spec = small_spec();
        let err = run_adaptivity(&[&copy], &spec, &EngineConfig::default());
        // A trio-wide run requires one strict beat; a lone copy scenario
        // can't provide it, which is itself the expected outcome.
        match err {
            Err(e) => assert!(
                e.to_string().contains("beat its stale legs"),
                "unexpected failure: {e}"
            ),
            Ok(report) => {
                // If the planner does find a strictly better leg, that
                // is fine too — the invariants below still hold.
                let num = |key: &str| report.num(&format!("workloads.0.{key}")).unwrap();
                assert!(num("final_cardinality_error") <= num("initial_cardinality_error") + EPS);
                assert_eq!(num("drift.recompiles"), 1.0);
            }
        }
    }
}
