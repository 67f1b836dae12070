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
use orchestra_common::{Epoch, OrchestraError, Result};
use orchestra_engine::{
    refresh_view, EngineConfig, MaintenanceMode, MaterializedView, QueryExecutor, ViewRegistry,
};
use orchestra_optimizer::{
    choose_maintenance, compile_delta_legs, compile_delta_legs_with, estimate_plan_cost_and_rows,
    AdaptiveStats, CostChannel, CostFeedback, DriftConfig, DriftMonitor, MaintenanceDecision,
    PlannerOptions, Statistics,
};
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{
    compiled_plan, compiled_plan_with, deploy, deploy_staged, epoch_stream, EpochSpec, EpochStream,
    Workload,
};
use std::collections::BTreeMap;

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

/// One calibration epoch's predicted-vs-measured figures.
#[derive(Clone, Debug)]
pub struct FeedbackPoint {
    /// The queried epoch.
    pub epoch: u64,
    /// The optimizer's output-cardinality estimate for the plan it
    /// compiled this epoch.
    pub predicted_rows: f64,
    /// The estimate after the feedback loop's learned bias correction
    /// (identity at the cold point and until the first observation).
    pub calibrated_rows: f64,
    /// The measured answer cardinality.
    pub actual_rows: usize,
    /// The optimizer's network-byte estimate for the plan.
    pub predicted_bytes: f64,
    /// The measured inter-node bytes.
    pub actual_bytes: u64,
    /// Running predicted-vs-actual cardinality error after folding this
    /// observation (EWMA of `|log2(actual / predicted)|`).
    pub cardinality_error: f64,
    /// Were broadcast joins enabled for this epoch's ad-hoc compile?
    pub broadcast_joins: bool,
}

impl FeedbackPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("epoch", Json::UInt(self.epoch)),
            ("predicted_rows", Json::Float(self.predicted_rows)),
            ("calibrated_rows", Json::Float(self.calibrated_rows)),
            ("actual_rows", Json::UInt(self.actual_rows as u64)),
            ("predicted_bytes", Json::Float(self.predicted_bytes)),
            ("actual_bytes", Json::UInt(self.actual_bytes)),
            ("cardinality_error", Json::Float(self.cardinality_error)),
            ("broadcast_joins", Json::Bool(self.broadcast_joins)),
        ])
    }
}

/// One drift epoch: both registries' refresh traffic and the monitor's
/// view of the statistics.
#[derive(Clone, Debug)]
pub struct DriftEpochPoint {
    /// The refreshed epoch.
    pub epoch: u64,
    /// The monitor's drift score at this epoch.
    pub drift_score: f64,
    /// Bytes the stale-leg control registry shipped.
    pub stale_bytes: u64,
    /// Bytes the adaptive registry shipped.
    pub adaptive_bytes: u64,
    /// Did the monitor fire after this epoch's refresh?
    pub fired: bool,
}

impl DriftEpochPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("epoch", Json::UInt(self.epoch)),
            ("drift_score", Json::Float(self.drift_score)),
            ("stale_bytes", Json::UInt(self.stale_bytes)),
            ("adaptive_bytes", Json::UInt(self.adaptive_bytes)),
            ("fired", Json::Bool(self.fired)),
        ])
    }
}

/// The drift phase's outcome for one workload.
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// Per-epoch traffic of both registries.
    pub points: Vec<DriftEpochPoint>,
    /// Leg recompilations the adaptive registry performed.
    pub recompiles: u64,
    /// The epoch whose observation fired the monitor (`None` if it
    /// never fired).
    pub fired_epoch: Option<u64>,
    /// Extra bytes the reinstall epoch shipped beyond the stale control
    /// — the recompiled dataflows' dissemination cost, accounted
    /// explicitly.
    pub dissemination_bytes: u64,
    /// Steady-state (post-dissemination) bytes of the stale control.
    pub steady_stale_bytes: u64,
    /// Steady-state bytes of the adaptive registry.
    pub steady_adaptive_bytes: u64,
    /// Did the recompiled legs ship strictly fewer steady-state bytes
    /// than the stale legs they replaced?
    pub beats_stale: bool,
}

impl DriftReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "points",
                Json::Array(self.points.iter().map(DriftEpochPoint::to_json).collect()),
            ),
            ("recompiles", Json::UInt(self.recompiles)),
            (
                "fired_epoch",
                match self.fired_epoch {
                    Some(e) => Json::UInt(e),
                    None => Json::Null,
                },
            ),
            ("dissemination_bytes", Json::UInt(self.dissemination_bytes)),
            ("steady_stale_bytes", Json::UInt(self.steady_stale_bytes)),
            (
                "steady_adaptive_bytes",
                Json::UInt(self.steady_adaptive_bytes),
            ),
            ("beats_stale", Json::Bool(self.beats_stale)),
        ])
    }
}

/// One crossover point: both predictions and the measured truth at one
/// delta fraction.
#[derive(Clone, Debug)]
pub struct CrossoverPoint {
    /// Signed-delta fraction of the base rows.
    pub fraction: f64,
    /// Signed delta rows actually published this epoch (all relations).
    pub delta_rows: usize,
    /// The cost model's uncalibrated decision.
    pub cold_decision: MaintenanceDecision,
    /// The decision after per-channel byte calibration.
    pub calibrated_decision: MaintenanceDecision,
    /// The strategy that actually shipped fewer bytes.
    pub measured_decision: MaintenanceDecision,
    /// Uncalibrated incremental estimate (bytes).
    pub cold_incremental_bytes: f64,
    /// Uncalibrated recompute estimate (bytes).
    pub cold_recompute_bytes: f64,
    /// Calibrated incremental estimate (bytes).
    pub calibrated_incremental_bytes: f64,
    /// Calibrated recompute estimate (bytes).
    pub calibrated_recompute_bytes: f64,
    /// Measured incremental refresh bytes.
    pub measured_incremental_bytes: u64,
    /// Measured recompute bytes.
    pub measured_recompute_bytes: u64,
}

impl CrossoverPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("fraction", Json::Float(self.fraction)),
            ("delta_rows", Json::UInt(self.delta_rows as u64)),
            (
                "cold_decision",
                Json::str(format!("{:?}", self.cold_decision)),
            ),
            (
                "calibrated_decision",
                Json::str(format!("{:?}", self.calibrated_decision)),
            ),
            (
                "measured_decision",
                Json::str(format!("{:?}", self.measured_decision)),
            ),
            (
                "cold_incremental_bytes",
                Json::Float(self.cold_incremental_bytes),
            ),
            (
                "cold_recompute_bytes",
                Json::Float(self.cold_recompute_bytes),
            ),
            (
                "calibrated_incremental_bytes",
                Json::Float(self.calibrated_incremental_bytes),
            ),
            (
                "calibrated_recompute_bytes",
                Json::Float(self.calibrated_recompute_bytes),
            ),
            (
                "measured_incremental_bytes",
                Json::UInt(self.measured_incremental_bytes),
            ),
            (
                "measured_recompute_bytes",
                Json::UInt(self.measured_recompute_bytes),
            ),
        ])
    }
}

/// The crossover sweep's aggregate scores.
#[derive(Clone, Debug)]
pub struct CrossoverReport {
    /// One point per (fraction, epoch), in sweep order.
    pub points: Vec<CrossoverPoint>,
    /// Points whose measured strategies differ by more than 10% — the
    /// points where picking a winner is meaningful.  Right at the
    /// crossover both strategies cost the same and either answer is
    /// fine, so agreement is scored on decisive points only.
    pub decisive_points: usize,
    /// Decisive points where the cold decision matched the measured
    /// winner.
    pub cold_agreements: usize,
    /// Decisive points where the calibrated decision matched the
    /// measured winner.
    pub calibrated_agreements: usize,
    /// Summed `|ln(predicted+1) − ln(measured+1)|` of the cold byte
    /// estimates, both channels.
    pub cold_log_error: f64,
    /// The same sum for the calibrated estimates.
    pub calibrated_log_error: f64,
}

impl CrossoverReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "points",
                Json::Array(self.points.iter().map(CrossoverPoint::to_json).collect()),
            ),
            ("decisive_points", Json::UInt(self.decisive_points as u64)),
            ("cold_agreements", Json::UInt(self.cold_agreements as u64)),
            (
                "calibrated_agreements",
                Json::UInt(self.calibrated_agreements as u64),
            ),
            ("cold_log_error", Json::Float(self.cold_log_error)),
            (
                "calibrated_log_error",
                Json::Float(self.calibrated_log_error),
            ),
        ])
    }
}

/// One workload's full adaptivity result.
#[derive(Clone, Debug)]
pub struct AdaptivityWorkload {
    /// The workload.
    pub workload: String,
    /// The calibration stream's per-epoch points.
    pub feedback: Vec<FeedbackPoint>,
    /// The cardinality error after the cold first compile.
    pub initial_cardinality_error: f64,
    /// The cardinality error after the last calibration epoch.
    pub final_cardinality_error: f64,
    /// Was broadcast-join compilation enabled for ad-hoc plans by the
    /// end of the stream?
    pub broadcast_enabled: bool,
    /// The drift phase's outcome.
    pub drift: DriftReport,
    /// The crossover sweep's outcome.
    pub crossover: CrossoverReport,
}

impl AdaptivityWorkload {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("workload", Json::str(self.workload.clone())),
            (
                "initial_cardinality_error",
                Json::Float(self.initial_cardinality_error),
            ),
            (
                "final_cardinality_error",
                Json::Float(self.final_cardinality_error),
            ),
            ("broadcast_enabled", Json::Bool(self.broadcast_enabled)),
            ("recompiles", Json::UInt(self.drift.recompiles)),
            (
                "feedback",
                Json::Array(self.feedback.iter().map(FeedbackPoint::to_json).collect()),
            ),
            ("drift", self.drift.to_json()),
            ("crossover", self.crossover.to_json()),
        ])
    }
}

/// The adaptivity experiment's full result.
#[derive(Clone, Debug)]
pub struct AdaptivityReport {
    /// Cluster size.
    pub nodes: u16,
    /// One entry per workload of the trio.
    pub workloads: Vec<AdaptivityWorkload>,
    /// The `--heavy` long-stream calibration point (`None` unless
    /// requested).
    pub heavy: Option<HeavyFeedbackPoint>,
}

/// The `--heavy` long-stream figure: the calibration error at the start
/// and end of a stream several times longer than the gated one.
#[derive(Clone, Debug)]
pub struct HeavyFeedbackPoint {
    /// The workload the long stream ran over.
    pub workload: String,
    /// Calibration epochs run.
    pub epochs: usize,
    /// The cardinality error after the cold first compile.
    pub initial_cardinality_error: f64,
    /// The cardinality error after the last epoch.
    pub final_cardinality_error: f64,
}

impl HeavyFeedbackPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("workload", Json::str(self.workload.clone())),
            ("epochs", Json::UInt(self.epochs as u64)),
            (
                "initial_cardinality_error",
                Json::Float(self.initial_cardinality_error),
            ),
            (
                "final_cardinality_error",
                Json::Float(self.final_cardinality_error),
            ),
        ])
    }
}

impl AdaptivityReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "workloads",
                Json::Array(
                    self.workloads
                        .iter()
                        .map(AdaptivityWorkload::to_json)
                        .collect(),
                ),
            ),
        ];
        if let Some(heavy) = &self.heavy {
            fields.push(("heavy", heavy.to_json()));
        }
        Json::object(fields)
    }
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
pub fn run_adaptivity(
    workloads: &[&dyn Workload],
    spec: &AdaptivitySpec,
    config: &EngineConfig,
) -> Result<AdaptivityReport> {
    let mut report = AdaptivityReport {
        nodes: spec.nodes,
        workloads: Vec::with_capacity(workloads.len()),
        heavy: None,
    };
    for workload in workloads {
        report
            .workloads
            .push(run_workload(*workload, spec, config)?);
    }
    // Figure (b) of the drift story needs at least one workload whose
    // recompiled legs strictly beat the stale ones — the join workload,
    // where leg shape genuinely depends on the statistics.
    if !report.workloads.iter().any(|w| w.drift.beats_stale) {
        return Err(OrchestraError::Execution(
            "no drift-triggered recompilation beat its stale legs anywhere in the trio".into(),
        ));
    }
    if spec.heavy_epochs > 0 {
        let heavy_workload = workloads.get(1).copied().unwrap_or(workloads[0]);
        report.heavy = Some(run_heavy(heavy_workload, spec, config)?);
    }
    Ok(report)
}

fn run_workload(
    workload: &dyn Workload,
    spec: &AdaptivitySpec,
    config: &EngineConfig,
) -> Result<AdaptivityWorkload> {
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
    let initial = feedback_points
        .first()
        .map(|p| p.cardinality_error)
        .unwrap_or(0.0);
    let final_err = feedback_points
        .last()
        .map(|p| p.cardinality_error)
        .unwrap_or(0.0);
    // The adaptive promise: once the loop is live (every point after
    // the cold compile), accumulating feedback never makes the
    // calibrated predictions worse.  A stream that starts exact (the
    // copy scenario predicts its scan cardinality perfectly) is allowed
    // to stay flat at zero.
    for pair in feedback_points[1..].windows(2) {
        if pair[1].cardinality_error > pair[0].cardinality_error + EPS {
            return Err(OrchestraError::Execution(format!(
                "{}: cardinality error rose from {:.6} to {:.6} at epoch {}",
                workload.name(),
                pair[0].cardinality_error,
                pair[1].cardinality_error,
                pair[1].epoch
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

    Ok(AdaptivityWorkload {
        workload: workload.name(),
        feedback: feedback_points,
        initial_cardinality_error: initial,
        final_cardinality_error: final_err,
        broadcast_enabled: feedback.broadcast_ready(),
        drift,
        crossover,
    })
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
) -> Result<Vec<FeedbackPoint>> {
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
) -> Result<FeedbackPoint> {
    let options = feedback.planner_options();
    let plan = compiled_plan_with(workload, stats, options)?;
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
    Ok(FeedbackPoint {
        epoch: epoch.0,
        predicted_rows,
        calibrated_rows,
        actual_rows: report.output_rows(),
        predicted_bytes: cost.network_bytes,
        actual_bytes: report.total_bytes,
        cardinality_error,
        broadcast_joins: options.broadcast_joins,
    })
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
) -> Result<DriftReport> {
    let start_epoch = storage
        .latest_epoch()
        .expect("the calibration stream published at least the base batch");
    let compile_stats = adaptive.overlay(&Statistics::collect(storage, start_epoch));
    let plan = compiled_plan_with(workload, &compile_stats, PlannerOptions::default())?;
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

    let mut out = DriftReport {
        points: Vec::with_capacity(epochs.len()),
        recompiles: 0,
        fired_epoch: None,
        dissemination_bytes: 0,
        steady_stale_bytes: 0,
        steady_adaptive_bytes: 0,
        beats_stale: false,
    };
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
            out.dissemination_bytes = adaptive_refresh
                .shipped_bytes
                .saturating_sub(stale_refresh.shipped_bytes);
            reinstall_pending = false;
        } else if out.fired_epoch.is_some() {
            // Steady state after the recompile: the new legs must not
            // cost more than the stale ones they replaced.
            out.steady_stale_bytes += stale_refresh.shipped_bytes;
            out.steady_adaptive_bytes += adaptive_refresh.shipped_bytes;
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
                out.beats_stale = true;
            }
        }

        adaptive.absorb(storage, prev, epoch)?;
        prev = epoch;
        let enriched = adaptive.overlay(&Statistics::collect(storage, epoch));
        let score = monitor.drift(&enriched);
        let fired = monitor.observe(&enriched);
        if fired && out.fired_epoch.is_none() {
            let new_legs = compile_delta_legs_with(
                &workload.logical(),
                &enriched,
                &adaptive.delta_rows_estimate(),
            )?;
            adaptive_reg.reinstall_legs(0, &new_legs)?;
            monitor.rebase(&enriched);
            out.fired_epoch = Some(epoch.0);
            reinstall_pending = true;
        }
        out.points.push(DriftEpochPoint {
            epoch: epoch.0,
            drift_score: score,
            stale_bytes: stale_refresh.shipped_bytes,
            adaptive_bytes: adaptive_refresh.shipped_bytes,
            fired,
        });
    }
    out.recompiles = adaptive_reg.recompiles();
    if out.fired_epoch.is_none() {
        return Err(OrchestraError::Execution(format!(
            "{}: the growth stream never fired the drift monitor",
            workload.name()
        )));
    }
    Ok(out)
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
) -> Result<CrossoverReport> {
    let mut out = CrossoverReport {
        points: Vec::new(),
        decisive_points: 0,
        cold_agreements: 0,
        calibrated_agreements: 0,
        cold_log_error: 0.0,
        calibrated_log_error: 0.0,
    };
    for &fraction in spec.delta_fractions {
        let target = ((fraction * spec.rows as f64).round() as usize).max(1);
        let churn = EpochSpec::new(target % 2, target / 2, 0);
        let (mut storage, base) = deploy(workload, spec.nodes)?;
        let plan = compiled_plan(workload, &storage, base)?;
        let mut view = MaterializedView::new(workload.name(), &plan)?;
        let base_stats = Statistics::collect(&storage, base);
        view.install_leg_plans(&compile_delta_legs(&workload.logical(), &base_stats)?)?;
        refresh_view(
            &mut view,
            &storage,
            config,
            MaintenanceMode::Recompute,
            base,
            INITIATOR,
            None,
        )?;
        if view.answer() != workload.reference() {
            return Err(OrchestraError::Execution(format!(
                "initial materialization of {} disagrees with the reference",
                workload.name()
            )));
        }
        let stream = epoch_stream(workload, spec.seed, &vec![churn; spec.crossover_epochs])?;

        for i in 0..spec.crossover_epochs {
            let from = view.epoch().expect("view is materialized");
            let epoch = storage.publish(stream.batch(i))?;
            let stats_old = Statistics::collect(&storage, from);
            let stats_new = Statistics::collect(&storage, epoch);
            let mut delta_rows: BTreeMap<String, usize> = BTreeMap::new();
            for leg in view.maintenance().legs() {
                if !delta_rows.contains_key(&leg.relation) {
                    let delta = storage.delta(&leg.relation, from, epoch)?;
                    delta_rows.insert(leg.relation.clone(), delta.signed_row_count());
                }
            }
            let choice = choose_maintenance(
                view.maintenance().plan(),
                view.maintenance().legs(),
                &stats_old,
                &stats_new,
                &delta_rows,
            )?;
            let calibrated_inc =
                feedback.calibrate(CostChannel::Incremental, choice.incremental_bytes);
            let calibrated_rec = feedback.calibrate(CostChannel::Recompute, choice.recompute_bytes);
            let calibrated_decision = if choice.legs > 0 && calibrated_inc < calibrated_rec {
                MaintenanceDecision::Incremental
            } else {
                MaintenanceDecision::Recompute
            };

            let mut incremental_view = view.clone();
            let inc_run = refresh_view(
                &mut incremental_view,
                &storage,
                config,
                MaintenanceMode::Incremental,
                epoch,
                INITIATOR,
                None,
            )?;
            let mut recompute_view = view.clone();
            let rec_run = refresh_view(
                &mut recompute_view,
                &storage,
                config,
                MaintenanceMode::Recompute,
                epoch,
                INITIATOR,
                None,
            )?;
            for (label, maintained) in [
                ("incremental", &incremental_view),
                ("recompute", &recompute_view),
            ] {
                if maintained.answer() != stream.reference(i) {
                    return Err(OrchestraError::Execution(format!(
                        "{label} maintenance of {} diverged at {epoch}",
                        workload.name()
                    )));
                }
            }
            let measured_decision = if inc_run.shipped_bytes < rec_run.shipped_bytes {
                MaintenanceDecision::Incremental
            } else {
                MaintenanceDecision::Recompute
            };
            let hi = inc_run.shipped_bytes.max(rec_run.shipped_bytes) as f64;
            let lo = inc_run.shipped_bytes.min(rec_run.shipped_bytes) as f64;
            if hi > 0.0 && (hi - lo) / hi > 0.1 {
                out.decisive_points += 1;
                out.cold_agreements += usize::from(choice.decision == measured_decision);
                out.calibrated_agreements += usize::from(calibrated_decision == measured_decision);
            }
            out.cold_log_error += log_error(choice.incremental_bytes, inc_run.shipped_bytes)
                + log_error(choice.recompute_bytes, rec_run.shipped_bytes);
            out.calibrated_log_error += log_error(calibrated_inc, inc_run.shipped_bytes)
                + log_error(calibrated_rec, rec_run.shipped_bytes);

            // Fold the measured bytes back in — later fractions run
            // against a better-calibrated model.
            if choice.legs > 0 {
                feedback.observe_bytes(
                    CostChannel::Incremental,
                    choice.incremental_bytes,
                    inc_run.shipped_bytes as f64,
                );
            }
            feedback.observe_bytes(
                CostChannel::Recompute,
                choice.recompute_bytes,
                rec_run.shipped_bytes as f64,
            );

            out.points.push(CrossoverPoint {
                fraction,
                delta_rows: delta_rows.values().sum(),
                cold_decision: choice.decision,
                calibrated_decision,
                measured_decision,
                cold_incremental_bytes: choice.incremental_bytes,
                cold_recompute_bytes: choice.recompute_bytes,
                calibrated_incremental_bytes: calibrated_inc,
                calibrated_recompute_bytes: calibrated_rec,
                measured_incremental_bytes: inc_run.shipped_bytes,
                measured_recompute_bytes: rec_run.shipped_bytes,
            });
            view = match calibrated_decision {
                MaintenanceDecision::Incremental => incremental_view,
                MaintenanceDecision::Recompute => recompute_view,
            };
        }
    }

    // Calibration must move the predictions toward the measured truth:
    // at least as many decision agreements, and byte estimates at least
    // as close on the log scale.
    if out.calibrated_agreements < out.cold_agreements {
        return Err(OrchestraError::Execution(format!(
            "{}: calibrated decisions agree with the measured winner less often than cold \
             ones ({} vs {})",
            workload.name(),
            out.calibrated_agreements,
            out.cold_agreements
        )));
    }
    if out.calibrated_log_error > out.cold_log_error + EPS {
        return Err(OrchestraError::Execution(format!(
            "{}: calibrated byte estimates drifted further from the measured figures than \
             cold ones ({:.4} vs {:.4})",
            workload.name(),
            out.calibrated_log_error,
            out.cold_log_error
        )));
    }
    Ok(out)
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
) -> Result<HeavyFeedbackPoint> {
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
    let initial = points.first().map(|p| p.cardinality_error).unwrap_or(0.0);
    let final_err = points.last().map(|p| p.cardinality_error).unwrap_or(0.0);
    if final_err > initial + EPS {
        return Err(OrchestraError::Execution(format!(
            "heavy stream of {}: cardinality error rose from {initial:.6} to {final_err:.6}",
            workload.name()
        )));
    }
    Ok(HeavyFeedbackPoint {
        workload: workload.name(),
        epochs: spec.heavy_epochs,
        initial_cardinality_error: initial,
        final_cardinality_error: final_err,
    })
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
        let w = &report.workloads[0];
        // Feedback: the cold compile starts wrong, the enriched ones end
        // strictly better (the in-run check already enforced "never
        // rises" pointwise).
        assert!(
            w.final_cardinality_error < w.initial_cardinality_error,
            "error must shrink: {} -> {}",
            w.initial_cardinality_error,
            w.final_cardinality_error
        );
        assert!(w.broadcast_enabled, "ad-hoc samples enable broadcast joins");
        // Drift: exactly one recompilation, and the steady-state bytes
        // of the recompiled legs beat the stale ones.
        assert_eq!(w.drift.recompiles, 1);
        assert!(w.drift.fired_epoch.is_some());
        assert!(w.drift.beats_stale);
        assert!(w.drift.steady_adaptive_bytes <= w.drift.steady_stale_bytes);
        // Crossover: calibration never scores worse than cold.
        assert!(w.crossover.calibrated_agreements >= w.crossover.cold_agreements);
        assert!(w.crossover.calibrated_log_error <= w.crossover.cold_log_error + EPS);
        let json = report.to_json().render();
        assert!(json.contains("\"cardinality_error\""), "{json}");
        assert!(json.contains("\"beats_stale\""), "{json}");
        assert!(json.contains("\"calibrated_decision\""), "{json}");
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
                let w = &report.workloads[0];
                assert!(w.final_cardinality_error <= w.initial_cardinality_error + EPS);
                assert_eq!(w.drift.recompiles, 1);
            }
        }
    }
}
