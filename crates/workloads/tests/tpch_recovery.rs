//! TPC-H Q3 and Q6 correctness, failure-free and under mid-query
//! failures: the distributed answer — with one node killed mid-query and
//! recovered under both Section V-D strategies — must equal a
//! straightforward single-node computation over the generated relations,
//! tuple for tuple, for the hand-built plan and the optimizer-compiled
//! one alike.  The `#[ignore]`d sweep at the bottom repeats the check at
//! the sizes where a wrong answer once hid (5k–100k rows); CI runs it in
//! release mode.

use orchestra_common::NodeId;
use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, QueryReport, RecoveryStrategy};
use orchestra_simnet::SimTime;
use orchestra_workloads::{compiled_plan, deploy, mixed_stream, TpchQuery, TpchWorkload, Workload};

const INITIATOR: NodeId = NodeId(0);

/// What [`run_against_reference`] found.
struct Checked {
    /// The hand-built plan's failure-free report from the first initiator.
    baseline: QueryReport,
    /// One line per answer that differs from the single-node reference.
    mismatches: Vec<String>,
    /// One line per failure run that completed without a recovery round
    /// (the victim had nothing left to send when it died).
    unrecovered: Vec<String>,
}

/// Deploy `workload` (its generator parameters spelled out in `data`, for
/// the messages) on `nodes` nodes and run both of its plans
/// failure-free from every initiator, then — from the first initiator —
/// once per victim and strategy with the victim killed halfway through
/// that plan's failure-free running time.
fn run_against_reference(
    data: &str,
    workload: &dyn Workload,
    nodes: u16,
    initiators: &[NodeId],
    victims: &[NodeId],
) -> Checked {
    let (storage, epoch) = deploy(workload, nodes).unwrap();
    let expected = workload.reference();
    let case = format!("{} ({data}) on {nodes} nodes", workload.name());
    assert!(
        !expected.is_empty(),
        "{case}: the reference answer must not be vacuous"
    );
    let plans = [
        ("hand-built", workload.reference_plan()),
        (
            "compiled",
            compiled_plan(workload, &storage, epoch).unwrap(),
        ),
    ];
    let mut mismatches = Vec::new();
    let mut unrecovered = Vec::new();
    let mut baselines = Vec::new();
    for (label, plan) in &plans {
        let exec = QueryExecutor::new(&storage, EngineConfig::default());
        let mut failure_free: Vec<QueryReport> = initiators
            .iter()
            .map(|i| exec.execute(plan, epoch, *i).unwrap())
            .collect();
        for (initiator, report) in initiators.iter().zip(&failure_free) {
            if report.rows != expected {
                mismatches.push(format!(
                    "{case}, {label} plan from {initiator}, failure-free: {} rows",
                    report.rows.len()
                ));
            }
        }
        let baseline = failure_free.swap_remove(0);
        for &victim in victims {
            let failure = FailureSpec::at_time(
                victim,
                SimTime::from_micros(baseline.running_time.as_micros() / 2),
            );
            for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
                let config = EngineConfig {
                    strategy,
                    ..EngineConfig::default()
                };
                let report = QueryExecutor::new(&storage, config)
                    .execute_with_failure(plan, epoch, initiators[0], failure)
                    .unwrap();
                if report.rows != expected {
                    mismatches.push(format!(
                        "{case}, {label} plan, {victim} killed under {strategy:?}: {} rows",
                        report.rows.len()
                    ));
                }
                if !report.recovered {
                    unrecovered.push(format!(
                        "{case}, {label} plan, {victim} killed under {strategy:?}"
                    ));
                    continue;
                }
                assert!(
                    report.running_time > baseline.running_time,
                    "{case}, {label} plan, {victim} under {strategy:?}: recovery cannot be free"
                );
            }
        }
        baselines.push(baseline);
    }
    Checked {
        baseline: baselines.swap_remove(0),
        mismatches,
        unrecovered,
    }
}

/// [`run_against_reference`] for a TPC-H query over `rows` lineitems
/// generated from `seed`, queried from node 0; panics on any mismatch
/// and on a failure that did not bite, and returns the hand-built plan's
/// failure-free report.
fn assert_matches_reference_under_failures(
    query: TpchQuery,
    rows: usize,
    nodes: u16,
    seed: u64,
    victims: &[NodeId],
) -> QueryReport {
    let workload = TpchWorkload::scaled(query, seed, rows);
    let data = format!("{rows} rows, seed {seed}");
    let checked = run_against_reference(&data, &workload, nodes, &[INITIATOR], victims);
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
    checked.baseline
}

#[test]
fn q3_distributed_equals_reference_with_and_without_failure() {
    let baseline = assert_matches_reference_under_failures(TpchQuery::Q3, 400, 6, 21, &[NodeId(4)]);
    // Q3's two joins rehash on non-partitioning keys, so real data must
    // have crossed the wire.
    assert!(baseline.total_bytes > 0);
}

#[test]
fn q6_distributed_equals_reference_with_and_without_failure() {
    let baseline = assert_matches_reference_under_failures(TpchQuery::Q6, 400, 6, 23, &[NodeId(4)]);
    // Q6 returns a single ungrouped revenue row.
    assert_eq!(baseline.rows.len(), 1);
}

/// Shrunk from the at-scale sweep: on a node whose CPU is backlogged an
/// end-of-stream marker the node sent itself used to overtake a full
/// batch it had flushed to itself earlier, closing the downstream
/// segment with join output still to come (82 rows against 90).
#[test]
fn q3_is_complete_when_a_backlogged_node_feeds_itself() {
    assert_matches_reference_under_failures(TpchQuery::Q3, 5_000, 2, 5, &[]);
}

/// The same overtaking during a recovery round (Restart 176 rows,
/// Incremental 166, against 191).
#[test]
fn q3_recovered_answer_is_complete_at_ten_thousand_rows() {
    assert_matches_reference_under_failures(TpchQuery::Q3, 10_000, 4, 3, &[NodeId(3)]);
}

/// The at-scale sweep: every catalogue workload once, then Q3 — the
/// three-way join, the shape whose answers came up short — over sizes,
/// cluster sizes and seeds, failure-free from two initiators and with
/// every non-initiator victim under both strategies, and last the cases
/// the host benchmark's scratch oracle first reported.  Prints every
/// mismatch before failing.
#[test]
#[ignore = "1,418 runs at 5k-100k rows; CI runs it in release mode"]
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
        let found = run_against_reference(&data, workload, nodes, initiators, victims).mismatches;
        runs += 2 * (initiators.len() + 2 * victims.len());
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
    assert!(
        mismatches.is_empty(),
        "{} of {runs} runs differ from the reference",
        mismatches.len()
    );
}
