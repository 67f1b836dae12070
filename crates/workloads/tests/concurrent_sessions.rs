//! End-to-end coverage of the multi-query session scheduler over real
//! catalogue workloads: three concurrent optimizer-compiled sessions
//! (TPC-H Q3, TPC-H Q6, STBenchmark Copy) share one simulated cluster,
//! a node failure strikes mid-makespan, and every session must recover
//! to its exact single-node reference answer under both Section V-D
//! strategies.

use orchestra_common::NodeId;
use orchestra_engine::{
    AdmissionPolicy, EngineConfig, FailureSpec, QuerySession, RecoveryStrategy, SchedulerConfig,
    SessionScheduler,
};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{deploy_all, CopyScenario, TpchQuery, TpchWorkload, Workload};

const NODES: u16 = 6;
/// The victim is never an initiator (initiators are 0..3).
const VICTIM: NodeId = NodeId(5);

fn mixed_workloads() -> (TpchWorkload, TpchWorkload, CopyScenario) {
    (
        TpchWorkload::scaled(TpchQuery::Q3, 17, 200),
        TpchWorkload::scaled(TpchQuery::Q6, 17, 200),
        CopyScenario {
            seed: 17,
            rows: 150,
        },
    )
}

fn build_sessions(
    workloads: &[&dyn Workload],
    storage: &orchestra_storage::DistributedStorage,
    epoch: orchestra_common::Epoch,
) -> Vec<QuerySession> {
    let stats = Statistics::collect(storage, epoch);
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let plan = orchestra_optimizer::compile(&w.logical(), &stats).unwrap();
            let cost = estimate_plan_cost(&plan, &stats).unwrap().total();
            QuerySession {
                name: w.name(),
                plan,
                epoch,
                initiator: NodeId(i as u16),
                arrival: SimTime::ZERO,
                fingerprint: Some(orchestra_optimizer::fingerprint(&w.logical())),
                estimated_cost: cost,
                overrides: Default::default(),
                plan_resident: false,
            }
        })
        .collect()
}

#[test]
fn three_concurrent_sessions_recover_to_their_references_under_both_strategies() {
    let (q3, q6, copy) = mixed_workloads();
    let workloads: [&dyn Workload; 3] = [&q3, &q6, &copy];
    let (storage, epoch) = deploy_all(&workloads, NODES).unwrap();
    let sessions = build_sessions(&workloads, &storage, epoch);
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 3,
        queue_capacity: 3,
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });

    // Failure-free baseline fixes the makespan the failure lands inside.
    let baseline = scheduler
        .run(&storage, &EngineConfig::default(), &sessions)
        .unwrap();
    assert_eq!(baseline.peak_concurrency, 3);
    for (i, sr) in baseline.sessions.iter().enumerate() {
        assert_eq!(
            sr.report.rows,
            workloads[i].reference(),
            "failure-free {} answer",
            sr.name
        );
    }

    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let failure = FailureSpec::at_time(
            VICTIM,
            SimTime::from_micros(baseline.makespan.as_micros() / 2),
        );
        let workload = scheduler
            .run_with(&storage, &config, &sessions, &[failure], None)
            .unwrap();
        let recovered = workload
            .sessions
            .iter()
            .filter(|sr| sr.report.recovered)
            .count();
        assert!(
            recovered >= 1,
            "{strategy:?}: a mid-makespan failure must interrupt in-flight sessions"
        );
        for (i, sr) in workload.sessions.iter().enumerate() {
            assert_eq!(
                sr.report.rows,
                workloads[i].reference(),
                "{strategy:?}: {} must recover to its reference answer",
                sr.name
            );
        }
        assert!(
            workload.makespan > baseline.makespan,
            "{strategy:?}: recovery must cost virtual time"
        );
    }
}

#[test]
fn scheduled_answers_match_whichever_admission_policy_runs() {
    let (q3, q6, copy) = mixed_workloads();
    let workloads: [&dyn Workload; 3] = [&q3, &q6, &copy];
    let (storage, epoch) = deploy_all(&workloads, NODES).unwrap();
    let sessions = build_sessions(&workloads, &storage, epoch);
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::ShortestCostFirst] {
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 2,
            queue_capacity: 3,
            policy,
            slo: None,
        });
        let workload = scheduler
            .run(&storage, &EngineConfig::default(), &sessions)
            .unwrap();
        assert!(workload.peak_concurrency <= 2);
        for (i, sr) in workload.sessions.iter().enumerate() {
            assert_eq!(
                sr.report.rows,
                workloads[i].reference(),
                "{policy:?}: {} answer",
                sr.name
            );
        }
    }
}
