//! Figures of queries planned on a **stale** routing snapshot.
//!
//! `tests/columnar_equivalence.rs` pins `execute` and
//! `execute_with_failure`; its 15 lines never reach
//! `QueryExecutor::execute_with_stale_snapshot`, which
//! `crates/engine/tests/stale_snapshot.rs` checks by answer and
//! `recovered` flag on a scan plan only.  The lines below pin a TPC-H Q3
//! join planned on a snapshot that still lists one departed node, that
//! still lists two, and that already dropped the node, under both
//! recovery strategies, in the same field set as `equiv::digest`.
//!
//! The constants were recorded by running this file at `104cd41` — the
//! commit before stand-alone runs moved onto the scheduler's event
//! loop — and it uses only API present on both sides.  To re-record
//! after an *intentional* change, read the `left:` of the failing
//! `assert_eq!`.

use orchestra_common::{sha1, NodeId, NodeSet};
use orchestra_engine::{EngineConfig, QueryExecutor, QueryReport, RecoveryStrategy};
use orchestra_workloads::{compiled_plan, deploy, TpchQuery, TpchWorkload, Workload};

const NODES: u16 = 8;
const INITIATOR: NodeId = NodeId(0);

/// The field set of `orchestra_bench::equiv`'s (private) `digest`.
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

/// One line per (scenario, strategy).
const STALE_FINGERPRINTS: [&str; 6] = [
    "one-listed Restart answer=aa3b966af1083e5e links=93346915a54fb449 time_us=9243 bytes=44720 msgs=240 purged=0 retx=0 phases=2",
    "one-listed Incremental answer=aa3b966af1083e5e links=e685f0a766c1bf51 time_us=7868 bytes=39318 msgs=213 purged=0 retx=6 phases=2",
    "two-listed Restart answer=aa3b966af1083e5e links=25063f94ff66c5aa time_us=10160 bytes=41531 msgs=194 purged=0 retx=0 phases=2",
    "two-listed Incremental answer=aa3b966af1083e5e links=8aaf85c55a44e4c9 time_us=8790 bytes=37463 msgs=180 purged=0 retx=22 phases=2",
    "one-dropped Restart answer=aa3b966af1083e5e links=3bb294dc440deff9 time_us=5013 bytes=22954 msgs=145 purged=0 retx=0 phases=1",
    "one-dropped Incremental answer=aa3b966af1083e5e links=3bb294dc440deff9 time_us=5013 bytes=22954 msgs=145 purged=0 retx=0 phases=1",
];

#[test]
fn stale_snapshot_runs_keep_their_recorded_figures() {
    let workload = TpchWorkload::scaled(TpchQuery::Q3, 42, 240);
    let (storage, epoch) = deploy(&workload, NODES).unwrap();
    let plan = compiled_plan(&workload, &storage, epoch).unwrap();
    let expected = workload.reference();

    let listed = storage.routing().clone();
    let one = NodeSet::singleton(NodeId(5));
    let two: NodeSet = [NodeId(5), NodeId(2)].into_iter().collect();
    let dropped = listed.reassign_failed(&one).unwrap();
    let scenarios = [
        ("one-listed", &listed, &one),
        ("two-listed", &listed, &two),
        ("one-dropped", &dropped, &one),
    ];

    let mut produced = Vec::new();
    for (name, snapshot, departed) in scenarios {
        for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
            let config = EngineConfig {
                strategy,
                ..EngineConfig::default()
            };
            let report = QueryExecutor::new(&storage, config)
                .execute_with_stale_snapshot(&plan, epoch, INITIATOR, snapshot, departed)
                .unwrap();
            assert_eq!(report.rows, expected, "{name} {strategy:?}: wrong answer");
            assert_eq!(
                report.recovered,
                name != "one-dropped",
                "{name} {strategy:?}: only a snapshot listing a departed node stalls"
            );
            produced.push(format!("{name} {strategy:?} {}", digest(&report)));
        }
    }
    assert_eq!(produced.len(), STALE_FINGERPRINTS.len());
    for (got, want) in produced.iter().zip(STALE_FINGERPRINTS.iter()) {
        assert_eq!(
            got, want,
            "stale-snapshot figures diverged from those recorded at 104cd41"
        );
    }
}
