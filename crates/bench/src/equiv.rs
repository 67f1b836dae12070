//! Data-path equivalence fingerprints.
//!
//! Every *simulated* figure — answers, per-link traffic (and therefore
//! every batch's wire size), running time, recovery work — must stay
//! bit-identical to what the row-at-a-time seed implementation produced.
//! That engine is gone; its recorded fingerprints are the reference any
//! change to the (only) data path is held to.  [`fingerprint_lines`]
//! condenses one workload's runs (failure-free plus a mid-query failure
//! under both recovery strategies) into short, stable text lines; the
//! recorded seed lines are committed in `tests/columnar_equivalence.rs`
//! and regenerated with
//!
//! ```sh
//! cargo run --release -p orchestra-bench --example record_equiv
//! ```
//!
//! A line packs the SHA-1 of the signed answer rows, the SHA-1 of the
//! exact per-directed-link byte counts, the simulated running time,
//! total bytes/messages and the recovery counters — if any operator
//! reorders rows, changes a flush boundary or miscomputes a batch's
//! encoded size, some field diverges and the diff names the run.

use crate::experiments::INITIATOR;
use orchestra_common::{sha1, NodeId, OrchestraError, Result};
use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, QueryReport, RecoveryStrategy};
use orchestra_simnet::SimTime;
use orchestra_workloads::{
    compiled_plan, deploy, ConcatenateScenario, CopyScenario, TpchQuery, TpchWorkload, Workload,
};

/// Cluster size of every equivalence run.
pub const EQUIV_NODES: u16 = 6;
/// The node killed in the failure runs (never the initiator).
pub const EQUIV_VICTIM: NodeId = NodeId(5);
/// Data seed shared by all equivalence workloads.
pub const EQUIV_SEED: u64 = 42;
/// Rows per generated relation.
pub const EQUIV_ROWS: usize = 240;

/// The five catalogue workloads the equivalence suite pins down.
pub fn equivalence_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(CopyScenario {
            seed: EQUIV_SEED,
            rows: EQUIV_ROWS,
        }),
        Box::new(ConcatenateScenario {
            seed: EQUIV_SEED,
            rows: EQUIV_ROWS,
        }),
        Box::new(TpchWorkload::scaled(TpchQuery::Q1, EQUIV_SEED, EQUIV_ROWS)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q3, EQUIV_SEED, EQUIV_ROWS)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q6, EQUIV_SEED, EQUIV_ROWS)),
    ]
}

/// Condense one report into the fields the refactor must not change.
fn digest(report: &QueryReport) -> String {
    let mut rows = Vec::new();
    for (tuple, sign) in &report.signed_rows {
        tuple.encode_to(&mut rows);
        rows.push(*sign as u8);
    }
    let answer = sha1::to_hex(&sha1::sha1(&rows));
    let mut links = Vec::new();
    for ((src, dst), bytes) in &report.link_traffic {
        links.extend_from_slice(&src.0.to_be_bytes());
        links.extend_from_slice(&dst.0.to_be_bytes());
        links.extend_from_slice(&bytes.to_be_bytes());
    }
    let link = sha1::to_hex(&sha1::sha1(&links));
    format!(
        "answer={} links={} time_us={} bytes={} msgs={} purged={} retx={} phases={}",
        &answer[..16],
        &link[..16],
        report.running_time.as_micros(),
        report.total_bytes,
        report.total_messages,
        report.purged,
        report.retransmitted,
        report.phases,
    )
}

/// Fingerprint one workload: the failure-free run, then a failure at
/// half the baseline running time under Restart and under Incremental.
/// Every answer is additionally cross-checked against the workload's
/// single-node reference before it is condensed.
pub fn fingerprint_lines(workload: &dyn Workload) -> Result<Vec<String>> {
    let (storage, epoch) = deploy(workload, EQUIV_NODES)?;
    let plan = compiled_plan(workload, &storage, epoch)?;
    let expected = workload.reference();
    let config = EngineConfig::default();
    let baseline = QueryExecutor::new(&storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
    if baseline.rows != expected {
        return Err(OrchestraError::Execution(format!(
            "equivalence baseline of {} returned a wrong answer",
            workload.name()
        )));
    }
    let mut lines = vec![format!("{} none {}", workload.name(), digest(&baseline))];
    let failure_at = SimTime::from_micros(baseline.running_time.as_micros() / 2);
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let run_config = EngineConfig {
            strategy,
            ..config.clone()
        };
        let report = QueryExecutor::new(&storage, run_config).execute_with_failure(
            &plan,
            epoch,
            INITIATOR,
            FailureSpec::at_time(EQUIV_VICTIM, failure_at),
        )?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "equivalence failure run of {} under {strategy:?} returned a wrong answer",
                workload.name()
            )));
        }
        lines.push(format!(
            "{} {strategy:?} {}",
            workload.name(),
            digest(&report)
        ));
    }
    Ok(lines)
}
