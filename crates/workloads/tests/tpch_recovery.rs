//! TPC-H Q3 and Q6 correctness, failure-free and under mid-query
//! failures: the distributed answer — with one node killed mid-query and
//! recovered under both Section V-D strategies — must equal a
//! straightforward single-node computation over the generated relations,
//! tuple for tuple, for the optimizer-compiled plan and for the costliest
//! plan of its plan space alike.  Two `#[ignore]`d sweeps, which CI runs
//! in release mode, widen the check: one kills every victim every 11 µs
//! of every catalogue workload at a few hundred rows, the other kills at
//! half time at the sizes where a wrong answer once hid (5k–100k rows).

use orchestra_common::{Epoch, NodeId};
use orchestra_engine::{
    EngineConfig, FailureSpec, PhysicalPlan, QueryExecutor, QueryReport, RecoveryStrategy,
};
use orchestra_optimizer::{estimate_plan_cost, plan_space, Statistics};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{compiled_plan, deploy, mixed_stream, TpchQuery, TpchWorkload, Workload};

const INITIATOR: NodeId = NodeId(0);
const BOTH: [RecoveryStrategy; 2] = [RecoveryStrategy::Restart, RecoveryStrategy::Incremental];

/// What [`run_against_reference`] found.
struct Checked {
    /// The compiled plan's failure-free report from the first initiator,
    /// `None` if that run returned an error.
    baseline: Option<QueryReport>,
    /// Runs made, failure-free and failure runs together.
    runs: usize,
    /// One line per answer that differs from the single-node reference,
    /// per run that returned an error, and per plan whose failure sweep
    /// was skipped because its failure-free run from the first initiator
    /// returned one.
    mismatches: Vec<String>,
    /// One line per failure run that completed without a recovery round
    /// (the victim had nothing left to send when it died).
    unrecovered: Vec<String>,
}

/// Kill the victim halfway through the plan's failure-free running time.
fn halfway(running_time: SimTime) -> Vec<SimTime> {
    vec![SimTime::from_micros(running_time.as_micros() / 2)]
}

/// Kill the victim at each of `instants`, in microseconds, whatever the
/// plan's running time.
fn at(instants: &[u64]) -> impl Fn(SimTime) -> Vec<SimTime> + '_ {
    |_| {
        instants
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect()
    }
}

/// Kill the victim every `step` µs, from the first instant to one step
/// past the end of the plan's failure-free run.
fn every(step: u64) -> impl Fn(SimTime) -> Vec<SimTime> {
    move |running_time| {
        (0..=running_time.as_micros() + step)
            .step_by(step as usize)
            .map(SimTime::from_micros)
            .collect()
    }
}

/// The plans a sweep runs: the compiled plan, then — when the plan space
/// holds another — the space's plan with the largest estimated cost, the
/// first in space order on ties.
fn compiled_and_contrast(
    workload: &dyn Workload,
    storage: &DistributedStorage,
    epoch: Epoch,
) -> Vec<(&'static str, PhysicalPlan)> {
    let compiled = compiled_plan(workload, storage, epoch).unwrap();
    let stats = Statistics::collect(storage, epoch);
    let mut contrast: Option<(f64, PhysicalPlan)> = None;
    for plan in plan_space(&workload.logical(), &stats).unwrap() {
        let cost = estimate_plan_cost(&plan, &stats).unwrap().total();
        if plan != compiled && contrast.as_ref().is_none_or(|(most, _)| cost > *most) {
            contrast = Some((cost, plan));
        }
    }
    let mut plans = vec![("compiled", compiled)];
    plans.extend(contrast.map(|(_, plan)| ("costliest", plan)));
    plans
}

/// Deploy `workload` (its generator parameters spelled out in `data`, for
/// the messages) on `nodes` nodes and run its compiled and contrast plans
/// ([`compiled_and_contrast`]) failure-free from every initiator, then —
/// from the first initiator — once per victim, failure instant and
/// strategy, `instants` drawing the instants from that plan's
/// failure-free running time.  A run that returns an error is listed with
/// the mismatches; without a failure-free run from the first initiator a
/// plan has no running time to draw instants from, and its failure sweep
/// is skipped and listed too.
fn run_against_reference(
    data: &str,
    workload: &dyn Workload,
    nodes: u16,
    initiators: &[NodeId],
    victims: &[NodeId],
    instants: &dyn Fn(SimTime) -> Vec<SimTime>,
    strategies: &[RecoveryStrategy],
) -> Checked {
    let (storage, epoch) = deploy(workload, nodes).unwrap();
    let expected = workload.reference();
    let case = format!("{} ({data}) on {nodes} nodes", workload.name());
    assert!(
        !expected.is_empty(),
        "{case}: the reference answer must not be vacuous"
    );
    let plans = compiled_and_contrast(workload, &storage, epoch);
    let mut runs = 0;
    let mut mismatches = Vec::new();
    let mut unrecovered = Vec::new();
    let mut baselines = Vec::new();
    for (label, plan) in &plans {
        let exec = QueryExecutor::new(&storage, EngineConfig::default());
        let mut failure_free = Vec::new();
        for &initiator in initiators {
            let run = format!("{case}, {label} plan from {initiator}, failure-free");
            runs += 1;
            match exec.execute(plan, epoch, initiator) {
                Ok(report) => {
                    if report.rows != expected {
                        mismatches.push(format!("{run}: {} rows", report.rows.len()));
                    }
                    failure_free.push(Some(report));
                }
                Err(err) => {
                    mismatches.push(format!("{run}: {err}"));
                    failure_free.push(None);
                }
            }
        }
        let Some(baseline) = failure_free.swap_remove(0) else {
            mismatches.push(format!(
                "{case}, {label} plan: failure sweep skipped, no failure-free run from {}",
                initiators[0]
            ));
            baselines.push(None);
            continue;
        };
        for &victim in victims {
            for killed_at in instants(baseline.running_time) {
                let failure = FailureSpec::at_time(victim, killed_at);
                for &strategy in strategies {
                    let run = format!(
                        "{case}, {label} plan, {victim} killed at {} µs under {strategy:?}",
                        killed_at.as_micros()
                    );
                    let config = EngineConfig {
                        strategy,
                        ..EngineConfig::default()
                    };
                    runs += 1;
                    let report = match QueryExecutor::new(&storage, config).execute_with_failure(
                        plan,
                        epoch,
                        initiators[0],
                        failure,
                    ) {
                        Ok(report) => report,
                        Err(err) => {
                            mismatches.push(format!("{run}: {err}"));
                            continue;
                        }
                    };
                    if report.rows != expected {
                        mismatches.push(format!("{run}: {} rows", report.rows.len()));
                    }
                    if !report.recovered {
                        unrecovered.push(run);
                        continue;
                    }
                    assert!(
                        report.running_time > baseline.running_time,
                        "{run}: recovery cannot be free"
                    );
                }
            }
        }
        baselines.push(Some(baseline));
    }
    Checked {
        baseline: baselines.swap_remove(0),
        runs,
        mismatches,
        unrecovered,
    }
}

/// [`run_against_reference`] for a TPC-H query over `rows` lineitems
/// generated from `seed`, queried from node 0 with each victim killed at
/// `instants`; panics on any mismatch or error and on a failure that did
/// not bite, and returns the compiled plan's failure-free report.
fn assert_matches_reference_under_failures(
    query: TpchQuery,
    rows: usize,
    nodes: u16,
    seed: u64,
    victims: &[NodeId],
    instants: &dyn Fn(SimTime) -> Vec<SimTime>,
) -> QueryReport {
    let workload = TpchWorkload::scaled(query, seed, rows);
    let data = format!("{rows} rows, seed {seed}");
    let checked = run_against_reference(
        &data,
        &workload,
        nodes,
        &[INITIATOR],
        victims,
        instants,
        &BOTH,
    );
    assert!(
        checked.mismatches.is_empty(),
        "{}",
        checked.mismatches.join("\n")
    );
    assert!(
        checked.unrecovered.is_empty(),
        "the failure must actually bite: {}",
        checked.unrecovered.join("\n")
    );
    checked
        .baseline
        .expect("without mismatches the compiled plan ran failure-free")
}

#[test]
fn q3_distributed_equals_reference_with_and_without_failure() {
    let baseline =
        assert_matches_reference_under_failures(TpchQuery::Q3, 400, 6, 21, &[NodeId(4)], &halfway);
    // Q3's two joins rehash on non-partitioning keys, so real data must
    // have crossed the wire.
    assert!(baseline.total_bytes > 0);
}

#[test]
fn q6_distributed_equals_reference_with_and_without_failure() {
    let baseline =
        assert_matches_reference_under_failures(TpchQuery::Q6, 400, 6, 23, &[NodeId(4)], &halfway);
    // Q6 returns a single ungrouped revenue row.
    assert_eq!(baseline.rows.len(), 1);
}

/// Shrunk from the at-scale sweep: on a node whose CPU is backlogged an
/// end-of-stream marker the node sent itself used to overtake a full
/// batch it had flushed to itself earlier, closing the downstream
/// segment with join output still to come (82 rows against 90).
#[test]
fn q3_is_complete_when_a_backlogged_node_feeds_itself() {
    assert_matches_reference_under_failures(TpchQuery::Q3, 5_000, 2, 5, &[], &halfway);
}

/// The same overtaking during a recovery round (Restart 176 rows,
/// Incremental 166, against 191).
#[test]
fn q3_recovered_answer_is_complete_at_ten_thousand_rows() {
    assert_matches_reference_under_failures(TpchQuery::Q3, 10_000, 4, 3, &[NodeId(3)], &halfway);
}

/// A single late failure used to stall Q3 with "stalled with no failed
/// node": the scheduler read the failed set at the current instant, but
/// n2's last sends had been refused at a CPU-ready instant past its
/// failure, which the clock never reached.  n2 dies at the first instant
/// where that read stalls the compiled plan (5,753 µs) and the space's
/// costliest plan (5,758 µs).
#[test]
fn q3_recovers_from_a_failure_the_clock_has_not_reached() {
    assert_matches_reference_under_failures(
        TpchQuery::Q3,
        300,
        3,
        42,
        &[NodeId(2)],
        &at(&[5_753, 5_758]),
    );
}

/// The debug-build share of the every-instant sweep: one configuration
/// per workload (300 rows on 3 nodes, n2 killed every 11 µs, one
/// strategy, the two alternating over the workloads).
#[test]
fn every_instant_of_one_configuration_per_workload() {
    for (i, workload) in mixed_stream(42, 300, 1).iter().enumerate() {
        let checked = run_against_reference(
            "300 rows, seed 42",
            workload.as_ref(),
            3,
            &[INITIATOR],
            &[NodeId(2)],
            &every(11),
            &[BOTH[i % 2]],
        );
        assert!(
            checked.mismatches.is_empty(),
            "{}",
            checked.mismatches.join("\n")
        );
    }
}

/// Fail every instant, at small scale: every catalogue workload at 300
/// and 600 rows on 3, 4 and 5 nodes, its compiled and contrast plans
/// ([`compiled_and_contrast`]), every non-initiator victim killed every
/// 11 µs from 0 to past the end of the failure-free run, under both
/// strategies.  Every answer must equal the reference; a
/// failure that does not bite is counted, not asserted.  Prints every
/// mismatch before failing.
#[test]
#[ignore = "about 125,000 runs; CI runs it in release mode"]
fn every_instant_at_small_scale() {
    let (mut runs, mut unrecovered, mut mismatches) = (0, 0, Vec::new());
    for rows in [300, 600] {
        let data = format!("{rows} rows, seed 42");
        for workload in mixed_stream(42, rows, 1) {
            for nodes in [3, 4, 5] {
                let victims: Vec<NodeId> = (1..nodes).map(NodeId).collect();
                let checked = run_against_reference(
                    &data,
                    workload.as_ref(),
                    nodes,
                    &[INITIATOR],
                    &victims,
                    &every(11),
                    &BOTH,
                );
                runs += checked.runs;
                unrecovered += checked.unrecovered.len();
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

/// The at-scale sweep: every catalogue workload once, then Q3 — the
/// three-way join, the shape whose answers came up short — over sizes,
/// cluster sizes and seeds, failure-free from two initiators and with
/// every non-initiator victim under both strategies, and last the cases
/// the host benchmark's scratch oracle first reported.  Prints every
/// mismatch before failing.
#[test]
#[ignore = "1,394 runs at 5k-100k rows; CI runs it in release mode"]
fn answers_match_the_reference_at_scale() {
    let mut mismatches = Vec::new();
    let mut runs = 0;
    let mut check = |rows: usize,
                     seed: u64,
                     workload: &dyn Workload,
                     nodes: u16,
                     initiators: &[NodeId],
                     victims: &[NodeId]| {
        let data = format!("{rows} rows, seed {seed}");
        let checked =
            run_against_reference(&data, workload, nodes, initiators, victims, &halfway, &BOTH);
        runs += checked.runs;
        let found = checked.mismatches;
        for line in &found {
            eprintln!("MISMATCH {line}");
        }
        mismatches.extend(found);
    };
    let all_but_initiator = |nodes: u16| (1..nodes).map(NodeId).collect::<Vec<_>>();

    for workload in mixed_stream(42, 20_000, 1) {
        let initiators = [INITIATOR, NodeId(3)];
        check(
            20_000,
            42,
            workload.as_ref(),
            6,
            &initiators,
            &all_but_initiator(6),
        );
    }
    for rows in [5_000, 10_000, 20_000, 40_000] {
        for nodes in [2, 4, 6, 8] {
            for seed in 1..=4 {
                let q3 = TpchWorkload::scaled(TpchQuery::Q3, seed, rows);
                let initiators = [INITIATOR, NodeId(nodes - 1)];
                check(
                    rows,
                    seed,
                    &q3,
                    nodes,
                    &initiators,
                    &all_but_initiator(nodes),
                );
            }
        }
    }
    for (rows, seed, victim) in [(100_000, 42, 5), (100_000, 7, 1), (40_000, 7, 6)] {
        let q3 = TpchWorkload::scaled(TpchQuery::Q3, seed, rows);
        check(rows, seed, &q3, 8, &[INITIATOR], &[NodeId(victim)]);
    }
    eprintln!("{runs} runs");
    assert!(
        mismatches.is_empty(),
        "{} of {runs} runs differ from the reference",
        mismatches.len()
    );
}

/// An engine error lists the run instead of panicking the sweep: a plan
/// run from an initiator outside the cluster fails failure-free, and with
/// no running time to draw instants from its failure sweep is skipped and
/// listed.
#[test]
fn an_engine_error_is_listed_with_the_mismatches() {
    let workload = TpchWorkload::scaled(TpchQuery::Q3, 21, 300);
    let outsider = NodeId(9);
    let checked = run_against_reference(
        "300 rows, seed 21",
        &workload,
        3,
        &[outsider, INITIATOR],
        &[NodeId(2)],
        &halfway,
        &BOTH,
    );
    assert!(checked.baseline.is_none());
    let plans = checked
        .mismatches
        .iter()
        .filter(|line| line.contains("failure sweep skipped"))
        .count();
    assert!(plans >= 1, "{}", checked.mismatches.join("\n"));
    assert_eq!(
        checked.mismatches.len(),
        2 * plans,
        "{}",
        checked.mismatches.join("\n")
    );
    assert!(checked
        .mismatches
        .iter()
        .any(|line| line.contains("from n9, failure-free: ")));
    assert_eq!(checked.runs, 2 * plans);
}
