//! The publication/incremental-maintenance experiment.
//!
//! [`run_maintenance`] drives the full CDSS lifecycle the paper opens
//! with: a workload is deployed and its answer materialized, then a
//! deterministic multi-epoch update stream
//! ([`orchestra_workloads::epoch_stream`]) publishes batch after batch,
//! and after every epoch the materialized answer is refreshed.  Each
//! sweep point fixes a per-epoch delta size ([`EpochSpec`]) and an epoch
//! count; for every published epoch the experiment
//!
//! 1. refreshes the optimizer statistics at the new epoch and asks the
//!    maintenance cost model
//!    ([`orchestra_optimizer::choose_maintenance`]) whether to absorb
//!    the batch incrementally or recompute;
//! 2. *measures both paths* — the incremental delta legs and the full
//!    recomputation each run on their own copy of the view state, so
//!    the JSON always reports both shipped-byte figures and the
//!    decision can be judged against ground truth;
//! 3. cross-checks the maintained answer of **both** paths against the
//!    stream's single-node reference, and a fresh full run of the view's
//!    plan at the new epoch against it too — a wrong maintained answer
//!    fails the experiment, it never becomes a plausible number;
//! 4. carries the cost model's chosen state forward to the next epoch.
//!
//! The view comes from `materialize`, and steps 1–3 but the fresh run
//! are `maintain_epoch`: the adaptivity experiment's crossover sweep
//! runs the same two functions.
//!
//! Each sweep ends with a *failure epoch*: one more published batch is
//! maintained while a node is killed mid-maintenance, and the refreshed
//! answer must still be exact — the legs recover through the engine's
//! ordinary Restart/Incremental machinery.

use crate::json::Json;
use orchestra_common::{Epoch, NodeId, OrchestraError, Result, Tuple};
use orchestra_engine::{
    refresh_view, EngineConfig, FailureSpec, MaintenanceMode, MaintenanceRun, MaterializedView,
    PhysicalPlan, QueryExecutor,
};
use orchestra_optimizer::{choose_maintenance, MaintenanceChoice, MaintenanceDecision, Statistics};
use orchestra_simnet::SimTime;
use orchestra_storage::{DistributedStorage, UpdateBatch};
use orchestra_workloads::{compiled_plan, deploy, epoch_stream, EpochSpec, Workload};
use std::collections::BTreeMap;

use crate::experiments::INITIATOR;

/// One sweep point: how much churn each epoch publishes, and how many
/// epochs the stream runs before the failure epoch.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceSweepSpec {
    /// Label carried into the JSON (`"small-delta"`, `"heavy-churn"`…).
    pub label: &'static str,
    /// Per-epoch, per-relation churn.
    pub spec: EpochSpec,
    /// Failure-free epochs to publish and maintain.
    pub epochs: usize,
}

/// Run the maintenance experiment for one workload over `sweeps` (delta
/// size × epoch count), from a fresh deployment per sweep.
///
/// Each sweep reports its churn, both paths' measured bytes summed over
/// its epochs and one object per epoch: `delta_rows` is the batch's
/// signed delta rows over every relation of the view, `legs` the delta
/// legs the incremental refresh ran.  Its `failure` object names the
/// node killed halfway through one more epoch's incremental refresh;
/// `shipped_bytes` there includes the recovery.
pub fn run_maintenance(
    workload: &dyn Workload,
    nodes: u16,
    seed: u64,
    sweeps: &[MaintenanceSweepSpec],
    config: &EngineConfig,
) -> Result<Json> {
    let sweeps = sweeps
        .iter()
        .map(|sweep| run_sweep(workload, nodes, seed, sweep, config))
        .collect::<Result<_>>()?;
    Ok(Json::object(vec![
        ("workload", Json::str(workload.name())),
        ("nodes", Json::UInt(nodes as u64)),
        ("sweeps", Json::Array(sweeps)),
    ]))
}

/// Deploy `workload` on `nodes` nodes and materialize its
/// optimizer-compiled view with delta-first legs: the optimizer re-plans
/// the query per pivot with the pivot relation at delta cardinality, so
/// each leg's join order starts from the delta instead of re-running a
/// full off-path join.  The answer must equal the workload's reference.
pub(crate) fn materialize(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<(DistributedStorage, PhysicalPlan, MaterializedView)> {
    let (storage, base_epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, base_epoch)?;
    let mut view = MaterializedView::new(workload.name(), &plan)?;
    if !view.supports_incremental() {
        return Err(OrchestraError::Execution(format!(
            "workload {} compiled to a recompute-only view: {}",
            workload.name(),
            view.maintenance().recompute_only().unwrap_or("unknown")
        )));
    }
    let base_stats = Statistics::collect(&storage, base_epoch);
    let leg_inputs = orchestra_optimizer::compile_delta_legs(&workload.logical(), &base_stats)?;
    view.install_leg_plans(&leg_inputs)?;
    refresh_view(
        &mut view,
        &storage,
        config,
        MaintenanceMode::Recompute,
        base_epoch,
        INITIATOR,
        None,
    )?;
    if view.answer() != workload.reference() {
        return Err(OrchestraError::Execution(format!(
            "initial materialization of {} disagrees with the reference",
            workload.name()
        )));
    }
    Ok((storage, plan, view))
}

/// One epoch [`maintain_epoch`] published, priced and refreshed both
/// ways.
pub(crate) struct MaintainedEpoch {
    pub epoch: Epoch,
    /// Signed delta rows of the batch, summed over the view's relations.
    pub delta_rows: usize,
    pub choice: MaintenanceChoice,
    pub incremental: (MaterializedView, MaintenanceRun),
    pub recompute: (MaterializedView, MaintenanceRun),
}

impl MaintainedEpoch {
    /// The refreshed view `decision` carries forward.
    pub fn keep(self, decision: MaintenanceDecision) -> MaterializedView {
        match decision {
            MaintenanceDecision::Incremental => self.incremental.0,
            MaintenanceDecision::Recompute => self.recompute.0,
        }
    }
}

/// Publish `batch`, collect statistics at the view's epoch and the new
/// one, price both strategies with [`choose_maintenance`] on the batch's
/// signed delta rows, and refresh one clone of `view` each way; both
/// maintained answers must equal `reference`.
pub(crate) fn maintain_epoch(
    workload: &dyn Workload,
    storage: &mut DistributedStorage,
    view: &MaterializedView,
    batch: &UpdateBatch,
    reference: &[Tuple],
    config: &EngineConfig,
) -> Result<MaintainedEpoch> {
    let from = view.epoch().expect("view is materialized");
    let epoch = storage.publish(batch)?;
    let storage = &*storage;
    let stats_old = Statistics::collect(storage, from);
    let stats_new = Statistics::collect(storage, epoch);
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
    let refresh = |mode| -> Result<(MaterializedView, MaintenanceRun)> {
        let mut maintained = view.clone();
        let run = refresh_view(
            &mut maintained,
            storage,
            config,
            mode,
            epoch,
            INITIATOR,
            None,
        )?;
        Ok((maintained, run))
    };
    let incremental = refresh(MaintenanceMode::Incremental)?;
    let recompute = refresh(MaintenanceMode::Recompute)?;
    for (label, (maintained, _)) in [("incremental", &incremental), ("recompute", &recompute)] {
        if maintained.answer() != reference {
            return Err(OrchestraError::Execution(format!(
                "{label} maintenance of {} diverged at epoch {epoch}",
                workload.name()
            )));
        }
    }
    Ok(MaintainedEpoch {
        epoch,
        delta_rows: delta_rows.values().sum(),
        choice,
        incremental,
        recompute,
    })
}

fn run_sweep(
    workload: &dyn Workload,
    nodes: u16,
    seed: u64,
    sweep: &MaintenanceSweepSpec,
    config: &EngineConfig,
) -> Result<Json> {
    let (mut storage, plan, mut view) = materialize(workload, nodes, config)?;
    // One extra epoch beyond the sweep's count: the failure epoch.
    let specs = vec![sweep.spec; sweep.epochs + 1];
    let stream = epoch_stream(workload, seed, &specs)?;

    let mut points = Vec::with_capacity(sweep.epochs);
    let (mut total_incremental_bytes, mut total_recompute_bytes) = (0, 0);
    for i in 0..sweep.epochs {
        let expected = stream.reference(i);
        let step = maintain_epoch(
            workload,
            &mut storage,
            &view,
            stream.batch(i),
            expected,
            config,
        )?;
        let epoch = step.epoch;
        let fresh = QueryExecutor::new(&storage, config.clone())
            .execute(&plan, epoch, INITIATOR)?
            .rows;
        if fresh != expected {
            return Err(OrchestraError::Execution(format!(
                "fresh run of {} at epoch {epoch} disagrees with the stream reference",
                workload.name()
            )));
        }
        let (choice, inc_run, rec_run) = (&step.choice, &step.incremental.1, &step.recompute.1);
        total_incremental_bytes += inc_run.shipped_bytes;
        total_recompute_bytes += rec_run.shipped_bytes;
        points.push(Json::object(vec![
            ("epoch", Json::UInt(epoch.0)),
            ("delta_rows", Json::UInt(step.delta_rows as u64)),
            ("decision", Json::str(format!("{:?}", choice.decision))),
            (
                "estimated_incremental_bytes",
                Json::Float(choice.incremental_bytes),
            ),
            (
                "estimated_recompute_bytes",
                Json::Float(choice.recompute_bytes),
            ),
            ("incremental_bytes", Json::UInt(inc_run.shipped_bytes)),
            ("recompute_bytes", Json::UInt(rec_run.shipped_bytes)),
            ("legs", Json::UInt(inc_run.legs as u64)),
            ("answer_rows", Json::UInt(expected.len() as u64)),
        ]));
        let decision = choice.decision;
        view = step.keep(decision);
    }

    // The failure epoch: publish one more batch and kill a node halfway
    // through the (failure-free-calibrated) incremental refresh.
    let failure_idx = sweep.epochs;
    let epoch = storage.publish(stream.batch(failure_idx))?;
    let mut probe = view.clone();
    let probe_run = refresh_view(
        &mut probe,
        &storage,
        config,
        MaintenanceMode::Incremental,
        epoch,
        INITIATOR,
        None,
    )?;
    let failure_at = SimTime::from_micros(probe_run.makespan.as_micros() / 2);
    let failure = FailureSpec::at_time(NodeId(nodes - 1), failure_at);
    let run = refresh_view(
        &mut view,
        &storage,
        config,
        MaintenanceMode::Incremental,
        epoch,
        INITIATOR,
        Some(failure),
    )?;
    if view.answer() != stream.reference(failure_idx) {
        return Err(OrchestraError::Execution(format!(
            "failure-interrupted maintenance of {} diverged at epoch {epoch}",
            workload.name()
        )));
    }
    Ok(Json::object(vec![
        ("label", Json::str(sweep.label)),
        ("inserts", Json::UInt(sweep.spec.inserts as u64)),
        ("modifies", Json::UInt(sweep.spec.modifies as u64)),
        ("deletes", Json::UInt(sweep.spec.deletes as u64)),
        (
            "total_incremental_bytes",
            Json::UInt(total_incremental_bytes),
        ),
        ("total_recompute_bytes", Json::UInt(total_recompute_bytes)),
        ("epochs", Json::Array(points)),
        (
            "failure",
            Json::object(vec![
                ("victim", Json::UInt(failure.node.index() as u64)),
                ("failure_at_us", Json::UInt(failure_at.as_micros())),
                ("recovered", Json::Bool(run.recovered)),
                ("shipped_bytes", Json::UInt(run.shipped_bytes)),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::{CopyScenario, TpchQuery, TpchWorkload};

    const SWEEPS: [MaintenanceSweepSpec; 2] = [
        MaintenanceSweepSpec {
            label: "small-delta",
            spec: EpochSpec {
                inserts: 4,
                modifies: 2,
                deletes: 2,
            },
            epochs: 3,
        },
        MaintenanceSweepSpec {
            label: "heavy-churn",
            spec: EpochSpec {
                inserts: 0,
                modifies: 400,
                deletes: 0,
            },
            epochs: 2,
        },
    ];

    /// The `decision` of every epoch of sweep `i`.
    fn decisions(report: &Json, i: usize) -> Vec<&str> {
        let epochs = report.get("sweeps").unwrap().items().unwrap()[i]
            .get("epochs")
            .unwrap();
        epochs
            .items()
            .unwrap()
            .iter()
            .map(|p| p.get("decision").unwrap().as_str_val().unwrap())
            .collect()
    }

    #[test]
    fn small_deltas_ship_less_and_heavy_churn_flips_to_recompute() {
        for workload in [
            &TpchWorkload::scaled(TpchQuery::Q1, 17, 200) as &dyn Workload,
            &CopyScenario {
                seed: 17,
                rows: 200,
            },
        ] {
            let report =
                run_maintenance(workload, 6, 23, &SWEEPS, &EngineConfig::default()).unwrap();
            let name = workload.name();
            assert_eq!(report.get("sweeps").unwrap().items().unwrap().len(), 2);
            let num = |key| report.num(key).unwrap();
            assert!(
                num("sweeps.0.total_incremental_bytes") < num("sweeps.0.total_recompute_bytes"),
                "{name}: small deltas must ship fewer bytes incrementally: {report}"
            );
            assert!(decisions(&report, 0).iter().all(|d| *d == "Incremental"));
            assert!(
                decisions(&report, 1).iter().all(|d| *d == "Recompute"),
                "{name}: churn that rewrites the relations must flip to recompute: {report}"
            );
            // The failure epoch recovered to the exact answer (verified
            // inside the run) after genuinely being interrupted.
            let failure = report.get("sweeps").unwrap().items().unwrap()[0]
                .get("failure")
                .unwrap();
            assert_eq!(failure.get("recovered"), Some(&Json::Bool(true)), "{name}");
        }
    }

    #[test]
    fn join_views_maintain_across_epochs_and_render_json() {
        let w = TpchWorkload::scaled(TpchQuery::Q3, 19, 600);
        let sweeps = [MaintenanceSweepSpec {
            label: "small-delta",
            spec: EpochSpec::new(2, 1, 1),
            epochs: 5,
        }];
        let report = run_maintenance(&w, 6, 29, &sweeps, &EngineConfig::default()).unwrap();
        assert_eq!(decisions(&report, 0).len(), 5);
        for i in 0..5 {
            assert!(report.num(&format!("sweeps.0.epochs.{i}.legs")).unwrap() >= 1.0);
        }
        let num = |key| report.num(key).unwrap();
        assert!(num("sweeps.0.total_incremental_bytes") < num("sweeps.0.total_recompute_bytes"));
        assert!(num("sweeps.0.failure.shipped_bytes") > 0.0);
        // Host time never enters the byte-compared output.
        let json = report.render();
        assert!(!json.contains("wall_clock"), "{json}");
    }
}
