//! The standing-query fan-out experiment: many subscribers, one shared
//! maintenance workload per epoch.
//!
//! [`run_subscriptions`] registers `subscribers` materialized views over
//! the mixed catalogue (each subscriber standing on one of the five
//! catalogue queries, round-robin) in a single
//! [`orchestra_engine::ViewRegistry`], publishes a churn stream against
//! the shared base relations, and refreshes every view after every
//! epoch **twice**:
//!
//! * **shared** — one [`ViewRegistry::refresh`]: deltas derived once per
//!   changed relation (the storage memo's derivation counter proves it),
//!   delta legs deduplicated across views by canonical plan fingerprint,
//!   one scheduler workload, and per-subscriber signed result diffs with
//!   exact byte accounting;
//! * **independent** — the pre-registry control: every view refreshed on
//!   its own through [`orchestra_engine::refresh_view`], with the delta
//!   memo cleared before each so every view re-derives its own deltas,
//!   exactly as N separate maintenance jobs would.
//!
//! The churn stream is driven by the first catalogue workload (TPC-H
//! Q1, whose relation set is the shared TPC-H trio `customer`/`orders`/
//! `lineitem`), so one published batch touches the three TPC-H standing
//! query shapes and leaves the STBenchmark views unchanged — per-epoch
//! derivations must stay O(changed relations) however many views are
//! registered, and the unaffected subscribers must receive empty diffs.
//!
//! Enforced inside the run (an experiment that can't show its claim
//! errors instead of emitting plausible numbers):
//!
//! * every epoch, shared-path delta derivations ≤ the churned relation
//!   count — never O(views);
//! * at 64+ subscribers, the shared path ships strictly fewer bytes
//!   than the independent control at *every* churn point;
//! * every view's answer — shared and independent alike — is checked
//!   against a fresh full run of its plan at the new epoch (and the
//!   churn donor additionally against its single-node stream
//!   reference); each sweep ends with one mid-maintenance node-failure
//!   epoch whose refreshed answers must still be exact.
//!
//! Diff bytes are reported under their own `view_diff_bytes` key — they
//! are subscriber notification traffic, never folded into the
//! maintenance `shared_bytes` nor into any result-cache figure.

use crate::json::Json;
use crate::maintenance::MaintenanceSweepSpec;
use orchestra_common::{Epoch, NodeId, OrchestraError, Result, Tuple};
use orchestra_engine::{
    refresh_view, EngineConfig, FailureSpec, MaintenanceMode, MaterializedView, QueryExecutor,
    ViewRegistry,
};
use orchestra_optimizer::Statistics;
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{
    compiled_plan, deploy_all, epoch_stream, ConcatenateScenario, CopyScenario, TpchQuery,
    TpchWorkload, Workload,
};

use crate::experiments::INITIATOR;

/// Subscriber count at and beyond which the run *enforces* that shared
/// maintenance ships strictly fewer bytes than the independent control.
const ENFORCE_SHARING_AT: usize = 64;

/// The experiment's shape: data scale plus the two swept axes
/// (subscriber count × churn).
#[derive(Clone, Debug)]
pub struct SubscriptionsSpec<'a> {
    /// Seed of the catalogue data and the churn stream.
    pub seed: u64,
    /// Base row count of every catalogue workload.
    pub rows: usize,
    /// Cluster size.
    pub nodes: u16,
    /// Registered-view counts to sweep (e.g. 1/8/64/256).
    pub subscriber_counts: &'a [usize],
    /// Churn points: per-epoch delta size × epoch count, reusing the
    /// maintenance experiment's sweep shape.
    pub sweeps: &'a [MaintenanceSweepSpec],
}

/// The standing-query catalogue: the five mixed-catalogue workloads
/// with the churn donor (TPC-H Q1, registering the shared TPC-H trio)
/// first, so the donor is always registered — even at one subscriber —
/// and one published batch fans out to the Q1/Q3/Q6 views while
/// leaving the STBenchmark views untouched.
fn catalogue(seed: u64, rows: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(TpchWorkload::scaled(TpchQuery::Q1, seed, rows)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q3, seed, rows)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q6, seed, rows)),
        Box::new(CopyScenario { seed, rows }),
        Box::new(ConcatenateScenario { seed, rows }),
    ]
}

/// Run the fan-out experiment: for every churn point and subscriber
/// count, a fresh deployment, `subscribers` registered views, and the
/// shared-vs-independent comparison per published epoch.
///
/// `sweeps` come churn-major.  `priming_sessions` is what the shared
/// priming refresh ran, at most one per distinct shape.  Per epoch,
/// `leg_instances` is what the views would have run one by one, the
/// `shared_*` figures are the registry's refresh after fingerprint dedup
/// and the `independent_*` ones the control's, summed over views with
/// the delta memo cleared before each.  `*_derivations` count memo
/// misses.  `view_diff_bytes` is subscriber notification traffic, never
/// part of `shared_bytes`.  `failure` is the closing mid-refresh failure
/// epoch; its `shipped_bytes` include the recovery.
pub fn run_subscriptions(spec: &SubscriptionsSpec, config: &EngineConfig) -> Result<Json> {
    if spec.subscriber_counts.is_empty() || spec.sweeps.is_empty() {
        return Err(OrchestraError::Execution(
            "a subscriptions sweep needs subscriber counts and churn points".into(),
        ));
    }
    let workloads = catalogue(spec.seed, spec.rows);
    let names = workloads.iter().map(|w| Json::str(w.name())).collect();
    let churn_relations = workloads[0]
        .relations()
        .iter()
        .map(|r| Json::str(r.name()))
        .collect();
    let mut sweeps = Vec::new();
    for sweep in spec.sweeps {
        for &subscribers in spec.subscriber_counts {
            sweeps.push(run_sweep(spec, subscribers, sweep, config)?);
        }
    }
    Ok(Json::object(vec![
        ("nodes", Json::UInt(spec.nodes as u64)),
        ("catalogue", Json::Array(names)),
        ("churn_relations", Json::Array(churn_relations)),
        ("sweeps", Json::Array(sweeps)),
    ]))
}

/// One distinct standing query: its compiled plan and, for incremental
/// views, the delta-first leg plans every subscriber of this shape
/// installs.
struct StandingQuery {
    name: String,
    plan: orchestra_engine::PhysicalPlan,
    leg_inputs: Option<Vec<(String, orchestra_engine::PhysicalPlan)>>,
}

/// Every view's answer — in `registry` and in the `independent` control
/// — must equal a fresh full run of its plan at `epoch`.  The churn
/// donor (catalogue index 0) is additionally checked against
/// `donor_reference`, the stream's single-node ground truth.
fn cross_check(
    storage: &DistributedStorage,
    config: &EngineConfig,
    queries: &[StandingQuery],
    registry: &ViewRegistry,
    independent: Option<&[MaterializedView]>,
    epoch: Epoch,
    donor_reference: Option<&[Tuple]>,
) -> Result<()> {
    let mut fresh: Vec<Vec<Tuple>> = Vec::with_capacity(queries.len());
    for query in queries {
        let run =
            QueryExecutor::new(storage, config.clone()).execute(&query.plan, epoch, INITIATOR)?;
        fresh.push(run.rows);
    }
    if let Some(reference) = donor_reference {
        if fresh[0] != reference {
            return Err(OrchestraError::Execution(format!(
                "fresh run of {} at {epoch} disagrees with the stream reference",
                queries[0].name
            )));
        }
    }
    for id in 0..registry.len() {
        let expected = &fresh[id % queries.len()];
        if registry.view(id).answer() != *expected {
            return Err(OrchestraError::Execution(format!(
                "shared maintenance of {} diverged at {epoch}",
                registry.view(id).name()
            )));
        }
        if let Some(views) = independent {
            if views[id].answer() != *expected {
                return Err(OrchestraError::Execution(format!(
                    "independent maintenance of {} diverged at {epoch}",
                    views[id].name()
                )));
            }
        }
    }
    Ok(())
}

fn run_sweep(
    spec: &SubscriptionsSpec,
    subscribers: usize,
    sweep: &MaintenanceSweepSpec,
    config: &EngineConfig,
) -> Result<Json> {
    let workloads = catalogue(spec.seed, spec.rows);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let (mut storage, base_epoch) = deploy_all(&refs, spec.nodes)?;
    let stats = Statistics::collect(&storage, base_epoch);

    // Compile each distinct standing query once; every subscriber of the
    // same shape installs a clone (the registry's fingerprint dedup is
    // what collapses their sessions again at refresh time).
    let queries: Vec<StandingQuery> = workloads
        .iter()
        .map(|w| -> Result<StandingQuery> {
            let plan = compiled_plan(w.as_ref(), &storage, base_epoch)?;
            let probe = MaterializedView::new(w.name(), &plan)?;
            let leg_inputs = if probe.supports_incremental() {
                Some(orchestra_optimizer::compile_delta_legs(
                    &w.logical(),
                    &stats,
                )?)
            } else {
                None
            };
            Ok(StandingQuery {
                name: w.name(),
                plan,
                leg_inputs,
            })
        })
        .collect::<Result<_>>()?;

    let mut registry = ViewRegistry::new(INITIATOR);
    for i in 0..subscribers {
        let query = &queries[i % queries.len()];
        let mut view = MaterializedView::new(format!("{}#{i:03}", query.name), &query.plan)?;
        if let Some(legs) = &query.leg_inputs {
            view.install_leg_plans(legs)?;
        }
        registry.register(view);
    }

    // Prime every subscriber at the deployment epoch: one shared
    // workload, and identical recomputations collide to at most one
    // session per distinct shape.
    let priming = registry.refresh(&storage, config, base_epoch, None)?;
    if priming.sessions_run > queries.len() {
        return Err(OrchestraError::Execution(format!(
            "priming {subscribers} subscribers ran {} sessions — recompute sharing across \
             identical views is broken (expected at most {})",
            priming.sessions_run,
            queries.len()
        )));
    }
    cross_check(
        &storage, config, &queries, &registry, None, base_epoch, None,
    )?;

    // The independent control starts from the same primed state: what N
    // separate maintenance jobs would hold after materialization.
    let mut independent: Vec<MaterializedView> =
        (0..subscribers).map(|i| registry.view(i).clone()).collect();

    // One extra epoch beyond the sweep's count: the failure epoch.
    let specs = vec![sweep.spec; sweep.epochs + 1];
    let stream = epoch_stream(refs[0], spec.seed, &specs)?;

    let mut points = Vec::with_capacity(sweep.epochs);
    let (mut total_shared_bytes, mut total_independent_bytes, mut total_view_diff_bytes) =
        (0, 0, 0);
    let (mut total_shared_derivations, mut total_independent_derivations) = (0, 0);
    let changed_relations = report_changed_relations(refs[0]);

    for i in 0..sweep.epochs {
        let epoch = storage.publish(stream.batch(i))?;

        // Shared path first: the publish created a fresh epoch interval,
        // so the memo is cold and the refresh's derivation counter is an
        // honest miss count.
        let refresh = registry.refresh(&storage, config, epoch, None)?;
        if refresh.delta_derivations > changed_relations as u64 {
            return Err(OrchestraError::Execution(format!(
                "shared refresh of {subscribers} subscribers derived {} deltas at {epoch} — \
                 derivations must be O(changed relations) (= {changed_relations}), not O(views)",
                refresh.delta_derivations
            )));
        }

        // Independent control: clear the memo before every view so each
        // re-derives its own deltas, exactly as N separate jobs against
        // N separate maintenance processes would.
        let mut independent_sessions = 0usize;
        let mut independent_bytes = 0u64;
        let mut independent_derivations = 0u64;
        let mut independent_makespan = SimTime::ZERO;
        for view in &mut independent {
            storage.clear_delta_memo();
            let before = storage.delta_derivations();
            let mode = if view.supports_incremental() {
                MaintenanceMode::Incremental
            } else {
                MaintenanceMode::Recompute
            };
            let run = refresh_view(view, &storage, config, mode, epoch, INITIATOR, None)?;
            independent_sessions += run.legs;
            independent_bytes += run.shipped_bytes;
            independent_derivations += storage.delta_derivations() - before;
            independent_makespan =
                SimTime::from_micros(independent_makespan.as_micros() + run.makespan.as_micros());
        }
        storage.clear_delta_memo();

        cross_check(
            &storage,
            config,
            &queries,
            &registry,
            Some(&independent),
            epoch,
            Some(stream.reference(i)),
        )?;

        if subscribers >= ENFORCE_SHARING_AT && refresh.shipped_bytes >= independent_bytes {
            return Err(OrchestraError::Execution(format!(
                "sharing must pay at {subscribers} subscribers ({} churn, {epoch}): shared \
                 shipped {} bytes vs {independent_bytes} independent",
                sweep.label, refresh.shipped_bytes
            )));
        }

        total_shared_bytes += refresh.shipped_bytes;
        total_independent_bytes += independent_bytes;
        total_view_diff_bytes += refresh.diff_bytes;
        total_shared_derivations += refresh.delta_derivations;
        total_independent_derivations += independent_derivations;
        points.push(Json::object(vec![
            ("epoch", Json::UInt(epoch.0)),
            ("leg_instances", Json::UInt(refresh.leg_instances as u64)),
            ("shared_sessions", Json::UInt(refresh.sessions_run as u64)),
            ("shared_bytes", Json::UInt(refresh.shipped_bytes)),
            ("shared_derivations", Json::UInt(refresh.delta_derivations)),
            (
                "shared_makespan_us",
                Json::UInt(refresh.makespan.as_micros()),
            ),
            ("view_diff_bytes", Json::UInt(refresh.diff_bytes)),
            (
                "independent_sessions",
                Json::UInt(independent_sessions as u64),
            ),
            ("independent_bytes", Json::UInt(independent_bytes)),
            (
                "independent_derivations",
                Json::UInt(independent_derivations),
            ),
            (
                "independent_makespan_us",
                Json::UInt(independent_makespan.as_micros()),
            ),
        ]));
    }

    // The failure epoch: publish one more batch, calibrate the failure
    // instant on a throwaway clone of the whole registry, then kill a
    // node halfway through the real shared refresh.  (The probe warms
    // the delta memo, so the interrupted refresh reports 0 derivations —
    // recovery correctness is what this epoch checks.)
    let failure_idx = sweep.epochs;
    let epoch = storage.publish(stream.batch(failure_idx))?;
    let mut probe = registry.clone();
    let probe_refresh = probe.refresh(&storage, config, epoch, None)?;
    let failure_at = SimTime::from_micros((probe_refresh.makespan.as_micros() / 2).max(1));
    let failure = FailureSpec::at_time(NodeId(spec.nodes - 1), failure_at);
    let interrupted = registry.refresh(&storage, config, epoch, Some(failure))?;
    cross_check(
        &storage,
        config,
        &queries,
        &registry,
        None,
        epoch,
        Some(stream.reference(failure_idx)),
    )?;
    Ok(Json::object(vec![
        ("label", Json::str(sweep.label)),
        ("subscribers", Json::UInt(subscribers as u64)),
        ("priming_sessions", Json::UInt(priming.sessions_run as u64)),
        ("total_shared_bytes", Json::UInt(total_shared_bytes)),
        (
            "total_independent_bytes",
            Json::UInt(total_independent_bytes),
        ),
        ("total_view_diff_bytes", Json::UInt(total_view_diff_bytes)),
        (
            "total_shared_derivations",
            Json::UInt(total_shared_derivations),
        ),
        (
            "total_independent_derivations",
            Json::UInt(total_independent_derivations),
        ),
        ("epochs", Json::Array(points)),
        (
            "failure",
            Json::object(vec![
                ("victim", Json::UInt(failure.node.index() as u64)),
                ("failure_at_us", Json::UInt(failure_at.as_micros())),
                ("recovered", Json::Bool(interrupted.recovered)),
                ("shipped_bytes", Json::UInt(interrupted.shipped_bytes)),
            ]),
        ),
    ]))
}

/// How many relations one churn batch publishes against — the bound the
/// shared path's per-epoch derivation count is held to.
fn report_changed_relations(donor: &dyn Workload) -> usize {
    donor.relations().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::EpochSpec;

    #[test]
    fn fan_out_shares_deltas_and_stays_exact() {
        let report = run_subscriptions(
            &SubscriptionsSpec {
                seed: 13,
                rows: 80,
                nodes: 5,
                subscriber_counts: &[1, 8],
                sweeps: &[MaintenanceSweepSpec {
                    label: "small-delta",
                    spec: EpochSpec {
                        inserts: 2,
                        modifies: 1,
                        deletes: 1,
                    },
                    epochs: 2,
                }],
            },
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(report.get("catalogue").unwrap().items().unwrap().len(), 5);
        // The churn donor registers the shared TPC-H trio.
        let churn_relations = report.get("churn_relations").unwrap().items().unwrap();
        assert_eq!(churn_relations.len(), 3);
        assert!(churn_relations.contains(&Json::str("lineitem")));
        let sweeps = report.get("sweeps").unwrap().items().unwrap();
        assert_eq!(sweeps.len(), 2);
        let num = |sweep: &Json, key| sweep.num(key).unwrap();

        let solo = &sweeps[0];
        assert_eq!(num(solo, "subscribers"), 1.0);
        // One subscriber: nothing to share, the control and the registry
        // run the same sessions.
        assert_eq!(
            num(solo, "total_shared_bytes"),
            num(solo, "total_independent_bytes")
        );

        let fanned = &sweeps[1];
        assert_eq!(num(fanned, "subscribers"), 8.0);
        // Eight subscribers over five shapes: 2× Q1, 2× Q3, 2× Q6 are
        // hit by the TPC-H churn — the shared path runs one leg per
        // distinct (shape, pivot) while the control runs one per view,
        // so sharing already pays below the enforcement threshold.
        assert!(
            num(fanned, "total_shared_bytes") < num(fanned, "total_independent_bytes"),
            "{fanned}"
        );
        // Derivations: O(changed relations) shared, O(views) independent.
        for point in fanned.get("epochs").unwrap().items().unwrap() {
            assert!(num(point, "shared_derivations") <= 3.0, "{point}");
            assert!(
                num(point, "independent_derivations") > num(point, "shared_derivations"),
                "{point}"
            );
            assert!(
                num(point, "shared_sessions") < num(point, "leg_instances"),
                "{point}"
            );
            // Diff bytes live under their own key and are not part of
            // the maintenance traffic.
            assert!(num(point, "view_diff_bytes") > 0.0, "{point}");
        }
        // Priming collapsed eight recomputations onto five shapes.
        assert!(num(fanned, "priming_sessions") <= 5.0);
        // The failure epoch genuinely interrupted and recovered.
        let failure = fanned.get("failure").unwrap();
        assert_eq!(failure.get("recovered"), Some(&Json::Bool(true)));
        assert!(num(failure, "failure_at_us") > 0.0);
    }

    #[test]
    fn subscriptions_report_is_deterministic() {
        let run = || {
            run_subscriptions(
                &SubscriptionsSpec {
                    seed: 7,
                    rows: 60,
                    nodes: 4,
                    subscriber_counts: &[4],
                    sweeps: &[MaintenanceSweepSpec {
                        label: "small-delta",
                        spec: EpochSpec {
                            inserts: 1,
                            modifies: 1,
                            deletes: 0,
                        },
                        epochs: 1,
                    }],
                },
                &EngineConfig::default(),
            )
            .unwrap()
            .render()
        };
        assert_eq!(run(), run());
    }
}
