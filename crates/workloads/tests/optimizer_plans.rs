//! The optimizer path end to end: every workload's logical query,
//! compiled by the System-R planner against live coordinator statistics,
//! must execute to the exact single-node reference answer — failure-free
//! and with a node killed mid-query under both Section V-D recovery
//! strategies — and its estimated cost must never exceed that of any plan
//! in its plan space (every plan the planner's dynamic program
//! considered) under the shared network cost model.

use orchestra_common::{Epoch, NodeId};
use orchestra_engine::{EngineConfig, FailureSpec, PhysicalPlan, QueryExecutor, RecoveryStrategy};
use orchestra_optimizer::{estimate_plan_cost, plan_space, Statistics};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{
    compiled_plan, deploy, ConcatenateScenario, CopyScenario, TpchQuery, TpchWorkload, Workload,
};

const NODES: u16 = 6;
const INITIATOR: NodeId = NodeId(0);
const VICTIM: NodeId = NodeId(4);

fn deploy_and_compile(workload: &dyn Workload) -> (DistributedStorage, Epoch, PhysicalPlan) {
    let (storage, epoch) = deploy(workload, NODES).unwrap();
    let plan = compiled_plan(workload, &storage, epoch).unwrap();
    (storage, epoch, plan)
}

/// Execute the optimizer-compiled plan failure-free and — when
/// `with_failures` — once per recovery strategy with `VICTIM` killed
/// halfway through the baseline, asserting every answer equals the
/// reference.  Also asserts the compiled plan's estimated cost is no
/// worse than that of any plan in the space.
fn assert_compiled_plan_is_correct_and_no_costlier(workload: &dyn Workload, with_failures: bool) {
    let (storage, epoch, plan) = deploy_and_compile(workload);
    let expected = workload.reference();
    assert!(
        !expected.is_empty(),
        "{}: the reference answer must not be vacuous",
        workload.name()
    );

    let stats = Statistics::collect(&storage, epoch);
    let optimized_cost = estimate_plan_cost(&plan, &stats).unwrap();
    for other in plan_space(&workload.logical(), &stats).unwrap() {
        let other_cost = estimate_plan_cost(&other, &stats).unwrap();
        assert!(
            optimized_cost.total() <= other_cost.total(),
            "{}: optimizer chose a plan estimated at {} bytes, worse than {} bytes for:\n{}",
            workload.name(),
            optimized_cost.total(),
            other_cost.total(),
            other.render()
        );
    }

    let baseline = QueryExecutor::new(&storage, EngineConfig::default())
        .execute(&plan, epoch, INITIATOR)
        .unwrap();
    assert_eq!(
        baseline.rows,
        expected,
        "{}: optimizer-compiled plan must reproduce the reference:\n{}",
        workload.name(),
        plan.render()
    );

    if !with_failures {
        return;
    }
    let failure = FailureSpec::at_time(
        VICTIM,
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let report = QueryExecutor::new(&storage, config)
            .execute_with_failure(&plan, epoch, INITIATOR, failure)
            .unwrap();
        assert!(
            report.recovered,
            "{} under {strategy:?}: the failure must actually bite",
            workload.name()
        );
        assert_eq!(
            report.rows,
            expected,
            "{} under {strategy:?}: recovered optimizer plan must match the reference:\n{}",
            workload.name(),
            plan.render()
        );
    }
}

#[test]
fn q1_compiled_plan_is_correct_under_failures_and_no_costlier() {
    let w = TpchWorkload::scaled(TpchQuery::Q1, 7, 300);
    assert_compiled_plan_is_correct_and_no_costlier(&w, true);
}

#[test]
fn q3_compiled_plan_is_correct_under_failures_and_no_costlier() {
    let w = TpchWorkload::scaled(TpchQuery::Q3, 21, 400);
    assert_compiled_plan_is_correct_and_no_costlier(&w, true);
}

#[test]
fn q6_compiled_plan_is_correct_under_failures_and_no_costlier() {
    let w = TpchWorkload::scaled(TpchQuery::Q6, 23, 400);
    assert_compiled_plan_is_correct_and_no_costlier(&w, true);
}

#[test]
fn stbenchmark_compiled_plans_are_correct_and_no_costlier() {
    let copy = CopyScenario {
        seed: 11,
        rows: 120,
    };
    let concat = ConcatenateScenario { seed: 13, rows: 80 };
    let workloads: [&dyn Workload; 2] = [&copy, &concat];
    for w in workloads {
        assert_compiled_plan_is_correct_and_no_costlier(w, false);
    }
}

#[test]
fn q3_compiled_plan_repartitions_less_than_the_most_rehashing_plan_of_its_space() {
    // The space's most-rehashing Q3 plans join customer with orders
    // first, which moves orders off its key partitioning before the
    // lineitem join; the optimizer joins orders with lineitem first, so
    // it must rehash less and come out strictly cheaper under the shared
    // cost model.
    let w = TpchWorkload::scaled(TpchQuery::Q3, 21, 400);
    let (storage, epoch, plan) = deploy_and_compile(&w);
    let stats = Statistics::collect(&storage, epoch);
    let space = plan_space(&w.logical(), &stats).unwrap();
    let most = space.iter().max_by_key(|p| p.rehash_count()).unwrap();
    assert!(plan.rehash_count() < most.rehash_count());
    let optimized = estimate_plan_cost(&plan, &stats).unwrap();
    let contrast = estimate_plan_cost(most, &stats).unwrap();
    assert!(
        optimized.total() < contrast.total(),
        "optimized {} vs {} for:\n{}",
        optimized.total(),
        contrast.total(),
        most.render()
    );
}

#[test]
fn compilation_is_deterministic_against_live_statistics() {
    // Same workload, same deployed statistics: repeated compilations
    // must render byte-identically (System-R enumeration is ordered).
    let w = TpchWorkload::scaled(TpchQuery::Q3, 21, 400);
    let (storage, epoch) = deploy(&w, NODES).unwrap();
    let first = compiled_plan(&w, &storage, epoch).unwrap().render();
    for _ in 0..3 {
        let again = compiled_plan(&w, &storage, epoch).unwrap().render();
        assert_eq!(first, again);
    }
}
