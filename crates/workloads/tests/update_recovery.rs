//! Modify/Delete coverage for distributed queries under failure.
//!
//! The publication tests elsewhere are insert-dominated; here a
//! multi-epoch stream applies *modifies and deletes* to the TPC-H
//! relations and to the STBenchmark source, and the catalogue queries
//! must reproduce the per-epoch reference answers exactly — including
//! when a node dies mid-query, under both Section V-D recovery
//! strategies.  This pins down that superseded tuple versions are never
//! resurrected (a modify must not yield both the old and the new row)
//! and that deleted rows never leak back through a recovery rescan.
//! The same harness checks a materialized view's refresh over one such
//! epoch, incremental or recompute, with a node killed at any instant of
//! it; the `#[ignore]`d sweep at the bottom kills every victim every
//! 7 µs, and CI runs it in release mode.

use orchestra_common::{Epoch, NodeId, Result, Tuple};
use orchestra_engine::{
    refresh_view, EngineConfig, FailureSpec, MaintenanceMode, MaterializedView, PhysicalPlan,
    QueryExecutor, RecoveryStrategy,
};
use orchestra_optimizer::{compile_delta_legs, Statistics};
use orchestra_simnet::SimTime;
use orchestra_storage::{DistributedStorage, Update};
use orchestra_workloads::{
    compiled_plan, deploy, epoch_stream, CopyScenario, EpochSpec, TpchQuery, TpchWorkload, Workload,
};

const NODES: u16 = 6;
const VICTIM: NodeId = NodeId(4);
const INITIATOR: NodeId = NodeId(0);
const BOTH: [RecoveryStrategy; 2] = [RecoveryStrategy::Restart, RecoveryStrategy::Incremental];

/// What one run of the work under test left behind.
struct Outcome {
    /// The answer.
    rows: Vec<Tuple>,
    /// Simulated time from the start to the answer.
    makespan: SimTime,
    /// Did a recovery round run?
    recovered: bool,
}

/// What [`check_under_failures`] found.
#[derive(Default)]
struct Checked {
    /// Runs made, the failure-free one included.
    runs: usize,
    /// One line per answer that differs from the expected one, and per
    /// run that returned an error.
    mismatches: Vec<String>,
    /// Failure runs that completed without a recovery round.
    unrecovered: usize,
}

/// Run `work` failure-free, then once per victim, failure instant and
/// strategy, `instants` drawing the instants from the failure-free
/// makespan; every answer must equal `expected`.
fn check_under_failures(
    work: &dyn Fn(&EngineConfig, Option<FailureSpec>) -> Result<Outcome>,
    expected: &[Tuple],
    victims: &[NodeId],
    instants: &dyn Fn(SimTime) -> Vec<SimTime>,
    strategies: &[RecoveryStrategy],
    context: &str,
) -> Checked {
    let baseline = work(&EngineConfig::default(), None).unwrap();
    let mut checked = Checked {
        runs: 1,
        ..Checked::default()
    };
    if baseline.rows != expected {
        checked.mismatches.push(format!(
            "{context}, failure-free: {} rows",
            baseline.rows.len()
        ));
    }
    for &victim in victims {
        for killed_at in instants(baseline.makespan) {
            for &strategy in strategies {
                let run = format!(
                    "{context}, {victim} killed at {} µs under {strategy:?}",
                    killed_at.as_micros()
                );
                let config = EngineConfig {
                    strategy,
                    ..EngineConfig::default()
                };
                checked.runs += 1;
                match work(&config, Some(FailureSpec::at_time(victim, killed_at))) {
                    Ok(outcome) if outcome.rows != expected => checked
                        .mismatches
                        .push(format!("{run}: {} rows", outcome.rows.len())),
                    Ok(outcome) => checked.unrecovered += usize::from(!outcome.recovered),
                    Err(err) => checked.mismatches.push(format!("{run}: {err}")),
                }
            }
        }
    }
    checked
}

/// Kill the victim halfway through the failure-free makespan.
fn halfway(makespan: SimTime) -> Vec<SimTime> {
    vec![SimTime::from_micros(makespan.as_micros() / 2)]
}

/// Kill the victim at `us` µs, whatever the makespan.
fn at(us: u64) -> impl Fn(SimTime) -> Vec<SimTime> {
    move |_| vec![SimTime::from_micros(us)]
}

/// Kill the victim every `step` µs, from the first instant to one step
/// past the end of the failure-free run.
fn every(step: u64) -> impl Fn(SimTime) -> Vec<SimTime> {
    move |makespan| {
        (0..=makespan.as_micros() + step)
            .step_by(step as usize)
            .map(SimTime::from_micros)
            .collect()
    }
}

/// Run `plan` at `epoch` failure-free and with [`VICTIM`] killed halfway
/// through under each strategy, asserting every answer equals
/// `expected`.
fn assert_exact_under_failures(
    storage: &DistributedStorage,
    plan: &PhysicalPlan,
    epoch: Epoch,
    expected: &[Tuple],
    context: &str,
) {
    let query = |config: &EngineConfig, failure: Option<FailureSpec>| {
        let exec = QueryExecutor::new(storage, config.clone());
        let report = match failure {
            None => exec.execute(plan, epoch, INITIATOR),
            Some(failure) => exec.execute_with_failure(plan, epoch, INITIATOR, failure),
        }?;
        Ok(Outcome {
            rows: report.rows,
            makespan: report.running_time,
            recovered: report.recovered,
        })
    };
    let checked = check_under_failures(&query, expected, &[VICTIM], &halfway, &BOTH, context);
    assert!(
        checked.mismatches.is_empty(),
        "{}",
        checked.mismatches.join("\n")
    );
}

/// Materialize `workload`'s view on `nodes` nodes, publish one epoch of
/// `spec`, and check a `mode` refresh to it with each of `victims`
/// killed at each of `instants` under each of `strategies`.
fn check_maintenance_under_failures(
    workload: &dyn Workload,
    nodes: u16,
    spec: EpochSpec,
    mode: MaintenanceMode,
    victims: &[NodeId],
    instants: &dyn Fn(SimTime) -> Vec<SimTime>,
    strategies: &[RecoveryStrategy],
) -> Checked {
    let (mut storage, base) = deploy(workload, nodes).unwrap();
    let plan = compiled_plan(workload, &storage, base).unwrap();
    let mut view = MaterializedView::new(workload.name(), &plan).unwrap();
    let legs = compile_delta_legs(&workload.logical(), &Statistics::collect(&storage, base));
    view.install_leg_plans(&legs.unwrap()).unwrap();
    let config = EngineConfig::default();
    refresh_view(
        &mut view,
        &storage,
        &config,
        MaintenanceMode::Recompute,
        base,
        INITIATOR,
        None,
    )
    .unwrap();
    let stream = epoch_stream(workload, 42, &[spec]).unwrap();
    let epoch = storage.publish(stream.batch(0)).unwrap();
    let refresh = |config: &EngineConfig, failure: Option<FailureSpec>| {
        let mut refreshed = view.clone();
        let run = refresh_view(
            &mut refreshed,
            &storage,
            config,
            mode,
            epoch,
            INITIATOR,
            failure,
        )?;
        Ok(Outcome {
            rows: refreshed.answer(),
            makespan: run.makespan,
            recovered: run.recovered,
        })
    };
    let context = format!(
        "{} view on {nodes} nodes, {mode:?} refresh",
        workload.name()
    );
    let expected = stream.reference(0);
    check_under_failures(&refresh, expected, victims, instants, strategies, &context)
}

#[test]
fn tpch_queries_survive_modify_delete_epochs_with_mid_query_failures() {
    // One dataset serves Q1 (aggregation), Q3 (joins) and Q6 (ungrouped
    // sum); the stream modifies and deletes rows of all three relations
    // every epoch.
    let q1 = TpchWorkload::scaled(TpchQuery::Q1, 31, 300);
    let q3 = TpchWorkload::scaled(TpchQuery::Q3, 31, 300);
    let q6 = TpchWorkload::scaled(TpchQuery::Q6, 31, 300);
    let (mut storage, base_epoch) = deploy(&q3, NODES).unwrap();
    let stream = epoch_stream(&q3, 7, &[EpochSpec::new(3, 12, 6); 3]).unwrap();

    for i in 0..stream.len() {
        let batch = stream.batch(i);
        // The coverage target: these batches are modify/delete-heavy.
        let kinds = |pred: fn(&Update) -> bool| {
            batch
                .relations()
                .flat_map(|r| batch.updates_for(r))
                .filter(|u| pred(u))
                .count()
        };
        assert_eq!(kinds(|u| matches!(u, Update::Modify(_))), 3 * 12);
        assert_eq!(kinds(|u| matches!(u, Update::Delete(_))), 3 * 6);

        let epoch = storage.publish(batch).unwrap();
        assert_eq!(epoch.0, base_epoch.0 + 1 + i as u64);
        for workload in [&q1 as &dyn Workload, &q3, &q6] {
            let plan = compiled_plan(workload, &storage, epoch).unwrap();
            let expected = workload.reference_for(stream.tables(i));
            assert_exact_under_failures(
                &storage,
                &plan,
                epoch,
                &expected,
                &format!("{} at epoch {epoch}", workload.name()),
            );
        }
    }

    // Sanity: the churn genuinely changed the answers epoch over epoch.
    assert_ne!(q3.reference_for(stream.tables(0)), q3.reference());
    assert_ne!(
        q3.reference_for(stream.tables(stream.len() - 1)),
        q3.reference_for(stream.tables(0))
    );
}

#[test]
fn superseded_and_deleted_rows_never_resurface_after_recovery() {
    // The Copy scenario ships every visible row, so a single resurrected
    // or leaked tuple version is immediately visible in the answer.
    let copy = CopyScenario { seed: 5, rows: 150 };
    let (mut storage, _) = deploy(&copy, NODES).unwrap();
    let stream = epoch_stream(&copy, 9, &[EpochSpec::new(0, 20, 10); 2]).unwrap();
    for i in 0..stream.len() {
        let epoch = storage.publish(stream.batch(i)).unwrap();
        let plan = compiled_plan(&copy, &storage, epoch).unwrap();
        let expected = copy.reference_for(stream.tables(i));
        assert_eq!(
            expected.len(),
            150 - 10 * (i + 1),
            "each epoch deletes 10 source rows"
        );
        assert_exact_under_failures(
            &storage,
            &plan,
            epoch,
            &expected,
            &format!("stbenchmark-copy at epoch {epoch}"),
        );
    }
}

/// The maintenance workloads of the every-instant sweep: an aggregate, a
/// three-way join and a copy, 300 rows each.
fn maintained() -> [Box<dyn Workload>; 3] {
    [
        Box::new(TpchWorkload::scaled(TpchQuery::Q1, 42, 300)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q3, 42, 300)),
        Box::new(CopyScenario {
            seed: 42,
            rows: 300,
        }),
    ]
}

const ONE_EPOCH: EpochSpec = EpochSpec {
    inserts: 4,
    modifies: 3,
    deletes: 2,
};

/// A single late failure used to stall the Δlineitem leg of an
/// incremental Q3 refresh with "stalled with no failed node", as it did
/// ad-hoc Q3 (`tpch_recovery.rs`): n2 dies at 17,500 µs, inside the
/// 17,276–18,872 µs window in which every 7 µs failed.
#[test]
fn q3_refresh_recovers_from_a_failure_the_clock_has_not_reached() {
    let q3 = TpchWorkload::scaled(TpchQuery::Q3, 42, 300);
    let mode = MaintenanceMode::Incremental;
    let checked =
        check_maintenance_under_failures(&q3, 3, ONE_EPOCH, mode, &[NodeId(2)], &at(17_500), &BOTH);
    assert!(
        checked.mismatches.is_empty(),
        "{}",
        checked.mismatches.join("\n")
    );
    assert_eq!(checked.unrecovered, 0, "the failure must actually bite");
}

/// The debug-build share of the maintenance sweep: one configuration per
/// workload (3 nodes, n2 killed every 7 µs, one refresh mode and one
/// strategy, both alternating over the workloads).
#[test]
fn every_refresh_instant_of_one_configuration_per_workload() {
    let modes = [MaintenanceMode::Incremental, MaintenanceMode::Recompute];
    for (i, workload) in maintained().iter().enumerate() {
        let checked = check_maintenance_under_failures(
            workload.as_ref(),
            3,
            ONE_EPOCH,
            modes[i % 2],
            &[NodeId(2)],
            &every(7),
            &[BOTH[(i + 1) % 2]],
        );
        assert!(
            checked.mismatches.is_empty(),
            "{}",
            checked.mismatches.join("\n")
        );
    }
}

/// Fail every instant of a refresh: Q1, Q3 and `Copy` views on 3 and 4
/// nodes, one epoch each, both refresh modes, every non-initiator victim
/// killed every 7 µs from 0 to past the end of the failure-free refresh,
/// under both strategies.  Every maintained answer must equal the
/// stream's reference; a failure that does not bite is counted, not
/// asserted.  Prints every mismatch before failing.
#[test]
#[ignore = "about 57,000 runs; CI runs it in release mode"]
fn every_refresh_instant_at_small_scale() {
    let (mut runs, mut unrecovered, mut mismatches) = (0, 0, Vec::new());
    for workload in maintained() {
        for nodes in [3, 4] {
            let victims: Vec<NodeId> = (1..nodes).map(NodeId).collect();
            for mode in [MaintenanceMode::Incremental, MaintenanceMode::Recompute] {
                let checked = check_maintenance_under_failures(
                    workload.as_ref(),
                    nodes,
                    ONE_EPOCH,
                    mode,
                    &victims,
                    &every(7),
                    &BOTH,
                );
                runs += checked.runs;
                unrecovered += checked.unrecovered;
                for line in &checked.mismatches {
                    eprintln!("MISMATCH {line}");
                }
                mismatches.extend(checked.mismatches);
            }
        }
    }
    eprintln!("{runs} runs, {unrecovered} failure runs without a recovery round");
    assert!(
        mismatches.is_empty(),
        "{} of {runs} runs differ from the reference",
        mismatches.len()
    );
}
