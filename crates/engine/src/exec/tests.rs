//! Unit tests of the executor driver and its layers, exercised through
//! the public `QueryExecutor` API only — the layer split under `exec/` is
//! an implementation detail these tests must survive.

use super::*;
use crate::expr::{AggFunc, CmpOp, Predicate};
use crate::plan::PlanBuilder;
use orchestra_common::tuple::hash_values;
use orchestra_common::{ColumnType, Relation, Schema, Tuple, Value};
use orchestra_storage::{StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::collections::HashMap;

fn cluster(nodes: u16) -> DistributedStorage {
    let routing = RoutingTable::build(
        &(0..nodes).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut s = DistributedStorage::new(
        routing,
        StorageConfig {
            partitions_per_relation: 8,
        },
    );
    s.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("g", ColumnType::Str),
            ("v", ColumnType::Int),
        ]),
    ));
    s.register_relation(Relation::partitioned(
        "S",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("w", ColumnType::Int)]),
    ));
    s
}

fn r_row(k: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(if k % 3 == 0 { "a" } else { "b" }),
        Value::Int(k * 10),
    ])
}

fn publish_r(s: &mut DistributedStorage, count: i64) {
    let mut b = UpdateBatch::new();
    for k in 0..count {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap();
}

fn scan_ship_plan() -> crate::plan::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    b.output(ship)
}

#[test]
fn scan_ship_returns_every_tuple_exactly_once() {
    let mut s = cluster(4);
    publish_r(&mut s, 100);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(report.rows.len(), 100);
    let mut expected: Vec<Tuple> = (0..100).map(r_row).collect();
    expected.sort();
    assert_eq!(report.rows, expected);
    assert!(!report.recovered);
    assert_eq!(report.phases, 1);
    assert!(report.running_time > SimTime::ZERO);
    assert!(report.total_bytes > 0);
}

#[test]
fn per_link_traffic_sums_to_total() {
    let mut s = cluster(4);
    publish_r(&mut s, 100);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let sum: u64 = report.link_traffic.iter().map(|(_, b)| b).sum();
    assert_eq!(sum, report.total_bytes);
    assert!(report.total_messages > 0);
}

#[test]
fn select_predicate_filters_rows() {
    let mut s = cluster(4);
    publish_r(&mut s, 60);
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let sel = b.select(scan, Predicate::cmp(2, CmpOp::Lt, 200i64));
    let ship = b.ship(sel);
    let plan = b.output(ship);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(1)).unwrap();
    // v = k * 10 < 200  =>  k in 0..20.
    assert_eq!(report.rows.len(), 20);
    assert!(report.rows.iter().all(|t| t.value(2) < &Value::Int(200)));
}

#[test]
fn sargable_scan_predicate_matches_select() {
    let mut s = cluster(4);
    publish_r(&mut s, 60);
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, Some(Predicate::cmp(2, CmpOp::Lt, 200i64)));
    let ship = b.ship(scan);
    let plan = b.output(ship);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(1)).unwrap();
    assert_eq!(report.rows.len(), 20);
}

#[test]
fn pipelined_join_matches_nested_loop() {
    let mut s = cluster(4);
    publish_r(&mut s, 40);
    let mut b = UpdateBatch::new();
    for k in 0..40 {
        if k % 2 == 0 {
            b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k + 1000)]));
        }
    }
    s.publish(&b).unwrap();

    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let sc = pb.scan("S", 2, None);
    let r_re = pb.rehash(r, vec![0]);
    let s_re = pb.rehash(sc, vec![0]);
    let join = pb.hash_join(r_re, s_re, vec![0], vec![0]);
    let ship = pb.ship(join);
    let plan = pb.output(ship);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(1), NodeId(0)).unwrap();
    // Every even k joins once: R(k, g, v) ++ S(k, w).
    assert_eq!(report.rows.len(), 20);
    for row in &report.rows {
        assert_eq!(row.value(0), row.value(3));
        let k = row.value(0).as_int().unwrap();
        assert_eq!(row.value(4), &Value::Int(k + 1000));
    }
}

/// `Int(10)` and `Double(10.0)` are equal values, so a join keyed on them
/// must find the pair even when each side is rehashed to the node its
/// key's ring position names: the ring hash keys an integral double as
/// the `Int` it equals.  (Keyed by type, the distributed answer held 13
/// of the 40 rows.)
#[test]
fn equal_int_and_double_keys_meet_across_a_rehash_join() {
    let mut s = cluster(4);
    s.register_relation(Relation::partitioned(
        "D",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("x", ColumnType::Double)]),
    ));
    publish_r(&mut s, 40);
    let mut b = UpdateBatch::new();
    for k in 0..40 {
        b.insert(
            "D",
            Tuple::new(vec![Value::Int(k), Value::Double(10.0 * k as f64)]),
        );
    }
    s.publish(&b).unwrap();

    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let d = pb.scan("D", 2, None);
    let r_re = pb.rehash(r, vec![2]);
    let d_re = pb.rehash(d, vec![1]);
    let join = pb.hash_join(r_re, d_re, vec![2], vec![1]);
    let ship = pb.ship(join);
    let plan = pb.output(ship);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(1), NodeId(0)).unwrap();
    // R(k, g, 10k) ++ D(k, 10.0k) for every k.
    assert_eq!(report.rows.len(), 40);
    for row in &report.rows {
        assert_eq!(row.value(0), row.value(3));
        assert!(matches!(
            (row.value(2), row.value(4)),
            (Value::Int(v), Value::Double(x)) if *v as f64 == *x
        ));
    }
}

/// The two-phase-aggregate twin of the join above, over an untyped key
/// column: M.g holds `Int(10k)` in some rows and `Double(10k)` in others,
/// so a scan batch that meets both keeps the column as `Value`s, and the
/// counts of R's groups over the join must still see every row.
#[test]
fn equal_int_and_double_keys_in_one_column_count_once_per_group() {
    let mut s = cluster(4);
    s.register_relation(Relation::partitioned(
        "M",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("g", ColumnType::Double)]),
    ));
    publish_r(&mut s, 40);
    let mut b = UpdateBatch::new();
    for k in 0..40 {
        let g = if k % 2 == 0 {
            Value::Int(10 * k)
        } else {
            Value::Double(10.0 * k as f64)
        };
        b.insert("M", Tuple::new(vec![Value::Int(k), g]));
    }
    s.publish(&b).unwrap();

    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let m = pb.scan("M", 2, None);
    let r_re = pb.rehash(r, vec![2]);
    let m_re = pb.rehash(m, vec![1]);
    let join = pb.hash_join(r_re, m_re, vec![2], vec![1]);
    let agg = pb.two_phase_aggregate(join, vec![1], vec![(AggFunc::Count, 0)]);
    let plan = pb.output(agg);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(1), NodeId(2)).unwrap();
    // R.g is "a" where k % 3 == 0 (14 of k in 0..40), "b" elsewhere.
    assert_eq!(
        report.rows,
        vec![
            Tuple::new(vec![Value::str("a"), Value::Int(14)]),
            Tuple::new(vec![Value::str("b"), Value::Int(26)]),
        ]
    );
}

#[test]
fn two_phase_aggregation_matches_direct_computation() {
    let mut s = cluster(4);
    publish_r(&mut s, 90);
    let mut pb = PlanBuilder::new();
    let scan = pb.scan("R", 3, None);
    let re = pb.rehash(scan, vec![1]);
    let agg = pb.two_phase_aggregate(re, vec![1], vec![(AggFunc::Sum, 2), (AggFunc::Count, 2)]);
    let plan = pb.output(agg);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(2)).unwrap();

    // Ground truth computed directly.
    let mut expected: HashMap<&str, (i64, i64)> = HashMap::new();
    for k in 0..90i64 {
        let g = if k % 3 == 0 { "a" } else { "b" };
        let e = expected.entry(g).or_default();
        e.0 += k * 10;
        e.1 += 1;
    }
    assert_eq!(report.rows.len(), 2);
    for row in &report.rows {
        let g = row.value(0).as_str().unwrap();
        let (sum, count) = expected[g];
        assert_eq!(row.value(1), &Value::Int(sum), "group {g}");
        assert_eq!(row.value(2), &Value::Int(count), "group {g}");
    }
}

#[test]
fn execution_is_deterministic() {
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let a = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let b = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.running_time, b.running_time);
    assert_eq!(a.link_traffic, b.link_traffic);
}

#[test]
fn operator_row_counts_are_a_function_of_the_data_alone() {
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let a = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let b = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    // Every row passes the scan, the ship exchange and the output once;
    // no other operator class runs.
    for (name, rows) in WallClock::NAMES.iter().zip(&a.wall_clock.op_rows) {
        let expected = u64::from(matches!(*name, "scan" | "exchange" | "output")) * 80;
        assert_eq!(*rows, expected, "{name}");
    }
    assert_eq!(&a.wall_clock.op_rows, &b.wall_clock.op_rows);
}

#[test]
fn incremental_without_recovery_support_is_rejected() {
    let mut s = cluster(4);
    publish_r(&mut s, 50);
    let config = EngineConfig {
        recovery: false,
        strategy: RecoveryStrategy::Incremental,
        ..EngineConfig::default()
    };
    let exec = QueryExecutor::new(&s, config);
    let baseline = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(2),
        baseline
            .running_time
            .saturating_sub(SimTime::from_micros(baseline.running_time.as_micros() / 2)),
    );
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert_eq!(err.category(), "execution");
}

#[test]
fn unknown_failure_target_is_an_error_not_a_panic() {
    // Regression: an out-of-range node id in the failure spec used to
    // panic inside the simulator instead of returning an error.
    let mut s = cluster(4);
    publish_r(&mut s, 10);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let failure = FailureSpec::at_time(NodeId(99), SimTime::from_micros(1));
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert!(err.message().contains("not a member"), "{err}");
}

#[test]
fn remote_scan_fetches_are_charged_to_the_network() {
    // A heir's rescan after a failure is served from its own replica
    // copies (that is why it inherits the range), so to exercise the
    // remote-fetch path we instead scan under a routing table the
    // data was never placed for: a membership change without
    // anti-entropy, exactly as storage models a fresh join.
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let baseline = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(
        baseline.remote_lookups, 0,
        "co-location holds in steady state"
    );

    let grown = RoutingTable::build(
        &(0..7).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    s.set_routing(grown);
    let report = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(report.rows, baseline.rows, "answers survive the reshuffle");
    assert!(report.remote_lookups > 0, "the joiner must fetch remotely");
    // The remote fetches must show up as measured traffic, not just
    // as a counter: more bytes flow than in the steady-state run.
    assert!(
        report.total_bytes > baseline.total_bytes,
        "remote fetch bytes must be charged ({} vs {})",
        report.total_bytes,
        baseline.total_bytes
    );
}

#[test]
fn initiator_failure_is_fatal() {
    let mut s = cluster(4);
    publish_r(&mut s, 50);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let failure = FailureSpec::at_time(NodeId(0), SimTime::from_micros(1));
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert!(err.message().contains("initiator"));
}

#[test]
fn restart_recovery_returns_the_full_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let config = EngineConfig {
        strategy: RecoveryStrategy::Restart,
        ..EngineConfig::default()
    };
    let exec = QueryExecutor::new(&s, config);
    let baseline = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(3),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(report.phases, 2);
    assert_eq!(report.rows, baseline.rows);
    assert!(report.running_time > baseline.running_time);
}

#[test]
fn incremental_join_recovery_retransmits_cached_output() {
    // A join rehashed on a high-cardinality key sends rows to every
    // node, so killing one mid-query must exercise recovery stage 4:
    // untainted cached rows re-routed to the heirs.
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let mut b = UpdateBatch::new();
    for k in 0..120 {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    s.publish(&b).unwrap();

    // Join on R.v = S.w — neither side's join key is its storage
    // partitioning key, so the rehash genuinely moves rows between
    // nodes (rehashing on the partitioning key would be a pure
    // self-send thanks to co-location).
    let plan = || {
        let mut pb = PlanBuilder::new();
        let r = pb.scan("R", 3, None);
        let sc = pb.scan("S", 2, None);
        let r_re = pb.rehash(r, vec![2]);
        let s_re = pb.rehash(sc, vec![1]);
        let join = pb.hash_join(r_re, s_re, vec![2], vec![1]);
        let ship = pb.ship(join);
        pb.output(ship)
    };

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let baseline = exec.execute(&plan(), Epoch(1), NodeId(0)).unwrap();
    assert_eq!(baseline.rows.len(), 120);

    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&plan(), Epoch(1), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(
        report.rows, baseline.rows,
        "join answer must be duplicate-free"
    );
    assert!(report.purged > 0, "tainted join state must be purged");
    assert!(
        report.retransmitted > 0,
        "stage-4 output-cache retransmission must fire"
    );
}

#[test]
fn incremental_recovery_returns_the_full_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let baseline = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(3),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(report.rows, baseline.rows);
}

/// The one test that reaches under the public API: no correct run can
/// deliver a batch to an exchange behind that exchange's own
/// end-of-stream, so the check is driven on a `Runtime` by hand.
#[test]
fn a_row_behind_its_end_of_stream_is_an_error_not_a_short_answer() {
    use super::exchange::{SessionId, Wire};
    use super::pipeline::Runtime;
    use super::session::{shared_sim, SessionSim};
    use orchestra_common::{ColumnarBatch, NodeSet};
    use orchestra_simnet::Delivery;

    let mut s = cluster(2);
    publish_r(&mut s, 40);
    let mut pb = PlanBuilder::new();
    let scan = pb.scan("R", 3, None);
    let rehash = pb.rehash(scan, vec![2]);
    let ship = pb.ship(rehash);
    let query = session("late-row", pb.output(ship), Epoch(0), 0.0);
    let config = EngineConfig::default();
    let shared = shared_sim(s.routing(), config.profile);
    let sim = SessionSim::attach(shared.clone(), SessionId(0));
    let mut runtime = Runtime::new(s.view(), &config, &(&query).into(), sim);
    runtime.begin(SimTime::ZERO).unwrap();
    loop {
        let Some(d) = shared.borrow_mut().next() else {
            break;
        };
        let Wire { payload, .. } = d.payload;
        runtime
            .handle(Delivery {
                time: d.time,
                from: d.from,
                to: d.to,
                payload,
            })
            .unwrap();
    }
    assert!(runtime.done);
    let answered: usize = runtime.output.iter().map(|b| b.len()).sum();
    assert_eq!(answered, 40);

    // Both nodes have flushed the rehash and sent its end-of-stream: a
    // row reaching it now would be buffered and never delivered.
    let late = ColumnarBatch::from_tuples(3, [&r_row(99)], 1, NodeSet::singleton(NodeId(1)), 0);
    let at = runtime.finish_time;
    let err = runtime
        .process_at(NodeId(1), rehash, 0, std::rc::Rc::new(late), at)
        .unwrap_err();
    assert_eq!(
        err.message(),
        format!("1 row(s) reached Rehash operator {rehash} at n1 after it sent its end-of-stream")
    );
}

// ----------------------------------------------------------------------
// The multi-query session scheduler
// ----------------------------------------------------------------------

/// A join plan whose rehash keys are not the partitioning keys, so its
/// batches genuinely cross the shared links.
fn join_plan() -> crate::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let sc = pb.scan("S", 2, None);
    let r_re = pb.rehash(r, vec![2]);
    let s_re = pb.rehash(sc, vec![1]);
    let join = pb.hash_join(r_re, s_re, vec![2], vec![1]);
    let ship = pb.ship(join);
    pb.output(ship)
}

fn agg_plan() -> crate::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new();
    let scan = pb.scan("R", 3, None);
    let re = pb.rehash(scan, vec![1]);
    let agg = pb.two_phase_aggregate(re, vec![1], vec![(AggFunc::Sum, 2), (AggFunc::Count, 2)]);
    pb.output(agg)
}

fn session(name: &str, plan: crate::plan::PhysicalPlan, epoch: Epoch, cost: f64) -> QuerySession {
    QuerySession {
        name: name.into(),
        plan,
        epoch,
        initiator: NodeId(0),
        arrival: SimTime::ZERO,
        fingerprint: None,
        estimated_cost: cost,
        overrides: Default::default(),
        plan_resident: false,
    }
}

/// The S rows `join_plan` reads (R.v = S.w joins k with 10·k).
fn publish_s_matching(s: &mut DistributedStorage, count: i64) {
    let mut b = UpdateBatch::new();
    for k in 0..count {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    s.publish(&b).unwrap();
}

/// Every `QueryReport` field that is a function of the simulation (all
/// but the host nanoseconds in `wall_clock`).
fn assert_same_figures(a: &QueryReport, b: &QueryReport, what: &str) {
    assert_eq!(a.rows, b.rows, "{what}: rows");
    assert_eq!(a.signed_rows, b.signed_rows, "{what}: signed_rows");
    assert_eq!(a.running_time, b.running_time, "{what}: running_time");
    assert_eq!(a.total_bytes, b.total_bytes, "{what}: total_bytes");
    assert_eq!(a.total_messages, b.total_messages, "{what}: messages");
    assert_eq!(a.link_traffic, b.link_traffic, "{what}: link_traffic");
    assert_eq!(a.dropped_messages, b.dropped_messages, "{what}: dropped");
    assert_eq!(a.recovered, b.recovered, "{what}: recovered");
    assert_eq!(a.phases, b.phases, "{what}: phases");
    assert_eq!(a.pages_read, b.pages_read, "{what}: pages_read");
    assert_eq!(a.tuples_scanned, b.tuples_scanned, "{what}: tuples_scanned");
    assert_eq!(a.remote_lookups, b.remote_lookups, "{what}: remote_lookups");
    assert_eq!(a.purged, b.purged, "{what}: purged");
    assert_eq!(a.retransmitted, b.retransmitted, "{what}: retransmitted");
    assert_eq!(
        &a.wall_clock.op_rows, &b.wall_clock.op_rows,
        "{what}: op rows"
    );
}

#[test]
fn single_session_workload_matches_the_stand_alone_executor() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let sessions = [session("only", join_plan(), Epoch(1), 1.0)];

    let config = EngineConfig::default();
    let stand_alone = QueryExecutor::new(&s, config.clone())
        .execute(&join_plan(), Epoch(1), NodeId(0))
        .unwrap();
    let workload = scheduler.run(&s, &config, &sessions).unwrap();
    assert_eq!(workload.sessions.len(), 1);
    assert_same_figures(&workload.sessions[0].report, &stand_alone, "failure-free");
    assert_eq!(workload.makespan, stand_alone.running_time);
    assert_eq!(workload.total_bytes, stand_alone.total_bytes);
    assert_eq!(workload.peak_concurrency, 1);
    assert_eq!(workload.sessions[0].queue_wait, SimTime::ZERO);

    // A mid-query failure, under both strategies.
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(stand_alone.running_time.as_micros() / 2),
    );
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let stand_alone = QueryExecutor::new(&s, config.clone())
            .execute_with_failure(&join_plan(), Epoch(1), NodeId(0), failure)
            .unwrap();
        assert!(stand_alone.recovered, "{strategy:?}");
        let workload = scheduler
            .run_with(&s, &config, &sessions, &[failure], None)
            .unwrap();
        let what = format!("{strategy:?}");
        assert_same_figures(&workload.sessions[0].report, &stand_alone, &what);
    }
}

#[test]
fn a_failure_run_that_never_stalls_reads_the_callers_store() {
    // Every session reads the caller's store through a view, whether or
    // not a failure stalls it: the caller's delta memo counts what the
    // run derived (a per-session copy of the store would have kept its
    // own), and no copy of the store is left behind.  Two failure inputs:
    // the victim dies after the answer is complete (no session
    // recovers), or half-way through the refresh (every session
    // recovers).  Both must leave the caller's store as a failure-free
    // run does.
    let config = EngineConfig::default();
    let incremental = MaintenanceMode::Incremental;
    let setup = || {
        let mut s = cluster(5);
        publish_r(&mut s, 80);
        let mut view = MaterializedView::new("copy", &scan_ship_plan()).unwrap();
        let recompute = MaintenanceMode::Recompute;
        refresh_view(&mut view, &s, &config, recompute, Epoch(0), NodeId(0), None).unwrap();
        let mut b = UpdateBatch::new();
        for k in 200..210 {
            b.insert("R", r_row(k));
        }
        let to = s.publish(&b).unwrap();
        (s, view, to)
    };
    let (s, mut view, to) = setup();
    let free = refresh_view(&mut view, &s, &config, incremental, to, NodeId(0), None).unwrap();
    assert_eq!(s.delta_derivations(), 1, "the leg derived once");

    let after = SimTime::from_micros(60_000_000);
    let half = SimTime::from_micros(free.makespan.as_micros() / 2);
    for (at, stalls) in [(after, false), (half, true)] {
        let (mut s, mut view, to) = setup();
        // A relation's first publication is one run, which the store's
        // log shares with its copies' until one of them is written to.
        let probe = std::sync::Arc::clone(&s.log("R").unwrap().runs()[0]);
        assert_eq!(
            std::sync::Arc::strong_count(&probe),
            2,
            "the log and the probe"
        );
        let failure = Some(FailureSpec::at_time(NodeId(4), at));
        let run = refresh_view(&mut view, &s, &config, incremental, to, NodeId(0), failure);
        let run = run.unwrap();
        assert_eq!(run.recovered, stalls, "failure at {at:?}");
        assert!(stalls || run.makespan < after);
        assert_eq!(view.answer(), full_run(&s, &scan_ship_plan(), Epoch(1)));
        assert_eq!(
            s.delta_derivations(),
            1,
            "failure at {at:?}: the leg derived once, on the caller's store"
        );
        // Had the run kept a copy of the store, publishing to the store
        // would copy its log's run pointers, and the probe would gain a
        // reference.
        let mut b = UpdateBatch::new();
        b.insert("R", r_row(300));
        s.publish(&b).unwrap();
        assert_eq!(
            std::sync::Arc::strong_count(&probe),
            2,
            "failure at {at:?}: a copy of the caller's store outlived the run"
        );
    }
}

/// The initiator's failure is the one no recovery round can mend: the
/// session it stalls ends in an error that names it, through the
/// executor and the scheduler alike.
#[test]
fn a_stall_error_names_the_session() {
    let mut s = cluster(4);
    publish_r(&mut s, 40);
    let config = EngineConfig::default();
    let failure = FailureSpec::at_time(NodeId(0), SimTime::from_micros(1));
    let err = QueryExecutor::new(&s, config.clone())
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert_eq!(err.message(), "session \"query\" lost its initiator n0");
    let err = SessionScheduler::new(SchedulerConfig::default())
        .run_with(
            &s,
            &config,
            &[session("named", scan_ship_plan(), Epoch(0), 1.0)],
            &[failure],
            None,
        )
        .unwrap_err();
    assert_eq!(err.message(), "session \"named\" lost its initiator n0");
}

#[test]
fn concurrent_sessions_share_the_network_and_keep_their_answers() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let exec = QueryExecutor::new(&s, config.clone());
    let expected: Vec<_> = [scan_ship_plan(), join_plan(), agg_plan()]
        .iter()
        .map(|p| exec.execute(p, Epoch(1), NodeId(0)).unwrap().rows)
        .collect();

    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 3,
        ..SchedulerConfig::default()
    });
    let sessions = [
        session("scan", scan_ship_plan(), Epoch(1), 3.0),
        session("join", join_plan(), Epoch(1), 2.0),
        session("agg", agg_plan(), Epoch(1), 1.0),
    ];
    let workload = scheduler.run(&s, &config, &sessions).unwrap();

    // Every query keeps its exact stand-alone answer despite contending
    // for the same links, CPUs and clock.
    for (i, sr) in workload.sessions.iter().enumerate() {
        assert_eq!(sr.report.rows, expected[i], "session {i} answer");
    }
    assert_eq!(workload.peak_concurrency, 3);
    // Per-session traffic partitions the shared network's totals, and each
    // session's totals are the sum of its own links.
    let assert_partitions = |workload: &WorkloadReport, what: &str| {
        let reports = || workload.sessions.iter().map(|sr| &sr.report);
        let links = || reports().flat_map(|r| &r.link_traffic);
        let bytes: u64 = reports().map(|r| r.total_bytes).sum();
        let messages: u64 = reports().map(|r| r.total_messages).sum();
        assert_eq!(bytes, workload.total_bytes, "{what}: bytes");
        assert_eq!(links().map(|(_, b)| b).sum::<u64>(), bytes, "{what}: links");
        assert_eq!(messages, workload.total_messages, "{what}: messages");
        assert!(messages > 0, "{what}: traffic flowed");
    };
    assert_partitions(&workload, "failure-free");
    assert!(workload.link_utilization > 0.0 && workload.link_utilization <= 1.0);

    // Drops and retransmissions are where the shared totals and the session
    // ledgers could drift apart: fail a node mid-run under both strategies.
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(workload.makespan.as_micros() / 2),
    );
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let failed = scheduler
            .run_with(&s, &config, &sessions, &[failure], None)
            .unwrap();
        let what = format!("{strategy:?}");
        for (i, sr) in failed.sessions.iter().enumerate() {
            assert_eq!(sr.report.rows, expected[i], "{what}: session {i} answer");
        }
        let reports = || failed.sessions.iter().map(|sr| &sr.report);
        assert!(
            reports().any(|r| r.recovered),
            "{what}: a session recovered"
        );
        assert!(
            reports().any(|r| r.dropped_messages > 0),
            "{what}: messages dropped"
        );
        assert_partitions(&failed, &what);
    }
    // The makespan is the last completion.
    let last = workload
        .sessions
        .iter()
        .map(|sr| sr.finished_at)
        .fold(SimTime::ZERO, SimTime::max);
    assert_eq!(workload.makespan, last);
}

#[test]
fn fifo_and_cost_first_admission_orders_are_deterministic() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // Costs deliberately out of submission order: 30, 10, 20.
    let sessions = [
        session("expensive", scan_ship_plan(), Epoch(0), 30.0),
        session("cheap", scan_ship_plan(), Epoch(0), 10.0),
        session("middle", scan_ship_plan(), Epoch(0), 20.0),
    ];

    let run = |policy| {
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 1,
            policy,
            ..SchedulerConfig::default()
        });
        scheduler.run(&s, &config, &sessions).unwrap()
    };

    let fifo = run(AdmissionPolicy::Fifo);
    let ids = |w: &WorkloadReport| w.admission_order.iter().map(|s| s.0).collect::<Vec<_>>();
    assert_eq!(ids(&fifo), vec![0, 1, 2]);
    let cost_first = run(AdmissionPolicy::ShortestCostFirst);
    assert_eq!(ids(&cost_first), vec![1, 2, 0]);

    // With one slot, later admissions wait in the queue.
    assert_eq!(fifo.peak_concurrency, 1);
    assert_eq!(fifo.sessions[0].queue_wait, SimTime::ZERO);
    assert!(fifo.sessions[1].queue_wait > SimTime::ZERO);
    assert!(fifo.sessions[2].queue_wait > fifo.sessions[1].queue_wait);
    // Under cost-first, the expensive submission waits longest.
    assert!(cost_first.sessions[0].queue_wait > cost_first.sessions[2].queue_wait);

    // Bit-for-bit deterministic replay.
    let again = run(AdmissionPolicy::ShortestCostFirst);
    assert_eq!(ids(&again), ids(&cost_first));
    assert_eq!(again.makespan, cost_first.makespan);
    assert_eq!(again.total_bytes, cost_first.total_bytes);
    for (a, b) in again.sessions.iter().zip(&cost_first.sessions) {
        assert_eq!(a.report.rows, b.report.rows);
        assert_eq!(a.latency, b.latency);
    }
}

#[test]
fn run_queue_overflow_sheds_instead_of_erroring() {
    let mut s = cluster(4);
    publish_r(&mut s, 20);
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 2,
        queue_capacity: 2,
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });
    let sessions: Vec<QuerySession> = (0..3)
        .map(|i| session(&format!("q{i}"), scan_ship_plan(), Epoch(0), i as f64))
        .collect();
    // A burst beyond the queue bound drops the overflow as a recorded
    // shed event — the overloaded server answers what it admitted.
    let workload = scheduler
        .run(&s, &EngineConfig::default(), &sessions)
        .unwrap();
    assert_eq!(workload.sessions.len(), 2);
    assert_eq!(workload.shed.len(), 1);
    assert_eq!(workload.shed[0].session.0, 2);
    assert_eq!(workload.shed[0].name, "q2");
    assert_eq!(workload.shed[0].at, SimTime::ZERO);
    // The admitted sessions still complete with real answers.
    assert!(workload
        .sessions
        .iter()
        .all(|sr| !sr.report.rows.is_empty()));

    // Within the bound, nothing is shed and concurrency never exceeds
    // the configured slots.
    let workload = scheduler
        .run(&s, &EngineConfig::default(), &sessions[..2])
        .unwrap();
    assert!(workload.shed.is_empty());
    assert!(workload.peak_concurrency <= 2);
}

#[test]
fn staggered_arrivals_split_latency_into_wait_and_service() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // One execution slot and three staggered arrivals: the first runs
    // immediately, the later ones queue behind it.
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        ..SchedulerConfig::default()
    });
    let solo = scheduler
        .run(
            &s,
            &config,
            &[session("solo", scan_ship_plan(), Epoch(0), 1.0)],
        )
        .unwrap();
    let service = solo.sessions[0].latency;
    assert!(service > SimTime::ZERO);

    let mut sessions = [
        session("first", scan_ship_plan(), Epoch(0), 1.0),
        session("second", scan_ship_plan(), Epoch(0), 1.0),
        session("third", scan_ship_plan(), Epoch(0), 1.0),
    ];
    // The second arrives mid-service of the first; the third arrives
    // long after everything drained (the clock must jump to it).
    sessions[1].arrival = SimTime::from_micros(service.as_micros() / 2);
    sessions[2].arrival = SimTime::from_micros(service.as_micros() * 10);
    let workload = scheduler.run(&s, &config, &sessions).unwrap();
    let [first, second, third] = &workload.sessions[..] else {
        panic!("all three sessions complete");
    };

    // Latency measures from *arrival*, not admission: the client's view.
    assert_eq!(first.arrival, SimTime::ZERO);
    assert_eq!(first.queue_wait, SimTime::ZERO);
    assert_eq!(first.latency, first.finished_at);

    // The second waited in the queue for most of the first's service
    // (the slot frees when the first's output closes, just before its
    // answer-complete instant).
    assert!(second.admitted_at > second.arrival);
    assert!(second.admitted_at <= first.finished_at);
    assert_eq!(
        second.queue_wait,
        second.admitted_at.saturating_sub(second.arrival)
    );
    assert!(second.queue_wait > SimTime::ZERO);
    assert_eq!(
        second.latency,
        second.finished_at.saturating_sub(second.arrival)
    );
    assert!(second.latency > second.queue_wait);

    // The third arrived into an idle system: zero wait, pure service,
    // and its completion (not its arrival) defines the makespan.
    assert_eq!(third.admitted_at, third.arrival);
    assert_eq!(third.queue_wait, SimTime::ZERO);
    assert_eq!(third.latency, service);
    assert_eq!(workload.makespan, third.finished_at);
    assert!(workload.makespan >= sessions[2].arrival);
}

/// A distinct fingerprint per logical query for serving tests (the real
/// canonical form is the optimizer's business; here any stable key does).
fn fp(tag: &str) -> orchestra_common::QueryFingerprint {
    orchestra_common::QueryFingerprint::of_bytes(tag.as_bytes())
}

#[test]
fn serving_hits_cache_within_an_epoch_and_misses_across_publications() {
    let mut s = cluster(4);
    publish_r(&mut s, 80); // epoch 0
    let config = EngineConfig::default();
    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let mut cache = ResultCache::new(8, EvictionPolicy::Lru);
    let mut q = session("q", scan_ship_plan(), Epoch(0), 1.0);
    q.fingerprint = Some(fp("scan_ship"));

    // Cold: executes, fills the cache.
    let cold = scheduler
        .run_serving(&s, &config, &[q.clone()], &mut cache)
        .unwrap();
    assert!(!cold.sessions[0].served_from_cache);
    assert_eq!(cold.cache.misses, 1);
    assert_eq!(cold.cache.insertions, 1);
    assert!(cold.total_bytes > 0);

    // Warm: the identical answer at zero latency and zero traffic.
    let warm = scheduler
        .run_serving(&s, &config, &[q.clone()], &mut cache)
        .unwrap();
    assert!(warm.sessions[0].served_from_cache);
    assert_eq!(warm.sessions[0].latency, SimTime::ZERO);
    assert_eq!(warm.sessions[0].report.rows, cold.sessions[0].report.rows);
    assert_eq!(warm.total_bytes, 0);
    assert_eq!(warm.cache.hits, 1);
    assert!(warm.cache.bytes_saved >= cold.sessions[0].report.total_bytes);

    // A publication bumps the epoch: same fingerprint, new key — the
    // stale answer is never served, the query re-executes and sees the
    // new data.
    let mut b = UpdateBatch::new();
    for k in 80..100 {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap(); // epoch 1
    q.epoch = Epoch(1);
    let bumped = scheduler
        .run_serving(&s, &config, &[q.clone()], &mut cache)
        .unwrap();
    assert!(!bumped.sessions[0].served_from_cache);
    assert_eq!(bumped.cache.misses, 1);
    assert_ne!(
        bumped.sessions[0].report.rows, cold.sessions[0].report.rows,
        "the re-executed answer must reflect the publication"
    );
    assert_eq!(
        bumped.sessions[0].report.rows,
        full_run(&s, &scan_ship_plan(), Epoch(1))
    );
}

#[test]
fn cache_fill_survives_a_mid_query_failure_and_serves_the_recovered_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let config = EngineConfig::default();
    let expected = full_run(&s, &scan_ship_plan(), Epoch(0));
    let mut q = session("q", scan_ship_plan(), Epoch(0), 1.0);
    q.fingerprint = Some(fp("scan_ship"));
    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let baseline = scheduler.run(&s, &config, &[q.clone()]).unwrap();
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.makespan.as_micros() / 2),
    );

    let mut cache = ResultCache::new(8, EvictionPolicy::Lru);
    let failed_run = scheduler
        .run_with(&s, &config, &[q.clone()], &[failure], Some(&mut cache))
        .unwrap();
    assert!(failed_run.sessions[0].report.recovered);
    assert_eq!(failed_run.sessions[0].report.rows, expected);
    // Only the *completed* (recovered) answer was cached — a hit right
    // after the failure run returns it verbatim.
    assert_eq!(cache.stats().insertions, 1);
    let warm = scheduler
        .run_serving(&s, &config, &[q], &mut cache)
        .unwrap();
    assert!(warm.sessions[0].served_from_cache);
    assert_eq!(warm.sessions[0].report.rows, expected);
}

#[test]
fn workload_report_percentiles_and_slo_misses_track_latencies() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // One slot, a burst of four at time zero: latencies grow linearly
    // with queue position.
    let sessions: Vec<QuerySession> = (0..4)
        .map(|i| session(&format!("q{i}"), scan_ship_plan(), Epoch(0), 1.0 + i as f64))
        .collect();
    let service = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        ..SchedulerConfig::default()
    })
    .run(&s, &config, &sessions[..1])
    .unwrap()
    .sessions[0]
        .latency;

    let workload = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        slo: Some(service), // only the first session can meet this
        ..SchedulerConfig::default()
    })
    .run(&s, &config, &sessions)
    .unwrap();
    let mut latencies: Vec<SimTime> = workload.sessions.iter().map(|sr| sr.latency).collect();
    latencies.sort();
    // Nearest-rank percentiles over 4 samples: p50 = 2nd, p99/p999 = 4th.
    assert_eq!(workload.latency_p50, latencies[1]);
    assert_eq!(workload.latency_p99, latencies[3]);
    assert_eq!(workload.latency_p999, latencies[3]);
    assert_eq!(workload.slo_misses, 3);
}

#[test]
fn concurrency_reduces_makespan_over_serial_execution() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let sessions = [
        session("scan", scan_ship_plan(), Epoch(1), 1.0),
        session("join", join_plan(), Epoch(1), 2.0),
        session("agg", agg_plan(), Epoch(1), 3.0),
    ];
    let run = |slots| {
        SessionScheduler::new(SchedulerConfig {
            max_concurrent: slots,
            ..SchedulerConfig::default()
        })
        .run(&s, &config, &sessions)
        .unwrap()
    };
    let serial = run(1);
    let concurrent = run(3);
    assert!(
        concurrent.makespan < serial.makespan,
        "interleaving must shorten the makespan: {} vs {}",
        concurrent.makespan,
        serial.makespan
    );
    assert!(
        concurrent.link_utilization > serial.link_utilization,
        "a shorter window moving the same bytes is busier: {} vs {}",
        concurrent.link_utilization,
        serial.link_utilization
    );
}

#[test]
fn failure_during_concurrent_sessions_recovers_each_one() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let exec = QueryExecutor::new(&s, config.clone());
    let expected: Vec<_> = [scan_ship_plan(), join_plan(), agg_plan()]
        .iter()
        .map(|p| exec.execute(p, Epoch(1), NodeId(0)).unwrap().rows)
        .collect();
    let baseline = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 3,
        ..SchedulerConfig::default()
    })
    .run(
        &s,
        &config,
        &[
            session("scan", scan_ship_plan(), Epoch(1), 1.0),
            session("join", join_plan(), Epoch(1), 2.0),
            session("agg", agg_plan(), Epoch(1), 3.0),
        ],
    )
    .unwrap();

    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let run_config = EngineConfig {
            strategy,
            ..config.clone()
        };
        let failure = FailureSpec::at_time(
            NodeId(4),
            SimTime::from_micros(baseline.makespan.as_micros() / 2),
        );
        let workload = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 3,
            ..SchedulerConfig::default()
        })
        .run_with(
            &s,
            &run_config,
            &[
                session("scan", scan_ship_plan(), Epoch(1), 1.0),
                session("join", join_plan(), Epoch(1), 2.0),
                session("agg", agg_plan(), Epoch(1), 3.0),
            ],
            &[failure],
            None,
        )
        .unwrap();
        let recovered = workload
            .sessions
            .iter()
            .filter(|sr| sr.report.recovered)
            .count();
        assert!(
            recovered > 0,
            "{strategy:?}: the mid-makespan failure must interrupt at least one session"
        );
        for (i, sr) in workload.sessions.iter().enumerate() {
            assert_eq!(
                sr.report.rows, expected[i],
                "{strategy:?}: session {i} must recover to its exact answer"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental view maintenance (exec/ivm.rs)
// ---------------------------------------------------------------------------

/// A modified version of [`r_row`]: same key, flipped group, bumped value.
fn r_row_v2(k: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(if k % 3 == 0 { "b" } else { "a" }),
        Value::Int(k * 10 + 7),
    ])
}

/// Fresh full run of `plan` at `epoch` — the oracle every maintained
/// answer must equal tuple for tuple.
fn full_run(s: &DistributedStorage, plan: &crate::plan::PhysicalPlan, epoch: Epoch) -> Vec<Tuple> {
    QueryExecutor::new(s, EngineConfig::default())
        .execute(plan, epoch, NodeId(0))
        .unwrap()
        .rows
}

#[test]
fn maintenance_plan_strips_final_and_appends_support_count() {
    let original = agg_plan();
    let m = MaintenancePlan::derive(&original).unwrap();
    // No initiator-side aggregate survives the rewrite.
    assert!(!m.plan().operators().iter().any(|o| matches!(
        o.kind,
        crate::plan::OperatorKind::Aggregate {
            mode: crate::plan::AggMode::Single | crate::plan::AggMode::Final,
            ..
        }
    )));
    let FoldMode::Partial {
        group_by,
        aggs,
        count_col,
    } = m.fold()
    else {
        panic!("two-phase aggregate folds as Partial, got {:?}", m.fold());
    };
    assert_eq!(group_by, &[0]);
    assert_eq!(aggs.len(), 2, "sum + count of the original query");
    // The hidden support count is the last column the ship forwards:
    // group key + sum state + count state + hidden count.
    assert_eq!(*count_col, 3);
    assert_eq!(m.plan().op(m.plan().root()).arity, 4);
    assert_eq!(m.scans().len(), 1);
    assert_eq!(m.scans()[0].1, "R");
    assert!(m.recompute_only().is_none());

    // A scan-and-ship plan folds as a counted multiset.
    let m = MaintenancePlan::derive(&scan_ship_plan()).unwrap();
    assert_eq!(*m.fold(), FoldMode::Multiset);

    // An initiator-side (Single) MIN folds raw input rows, so its
    // retractions route through the bounded extremum sketch: the view
    // stays incremental.
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    let agg = b.aggregate(
        ship,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Single,
    );
    let min_plan = b.output(agg);
    let m = MaintenancePlan::derive(&min_plan).unwrap();
    assert!(m.recompute_only().is_none());

    // A distributed partial MIN collapses runner-up multiplicity before
    // shipping: still recompute-only.
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let partial = b.aggregate(
        scan,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Partial,
    );
    let ship = b.ship(partial);
    let fin = b.aggregate(
        ship,
        vec![0],
        vec![(AggFunc::Min, 1)],
        crate::plan::AggMode::Final,
    );
    let partial_min_plan = b.output(fin);
    let m = MaintenancePlan::derive(&partial_min_plan).unwrap();
    assert!(m.recompute_only().unwrap().contains("runners-up"));
}

/// The one plan-rewrite walker in its two modes: with no pivot it clones
/// the plan below the stripped aggregate operator for operator; with one
/// it broadcasts that scan into its join in place of the alignment
/// rehash and splices the stationary side's rehash out.
#[test]
fn maintenance_rewrite_clones_the_base_plan_and_broadcasts_each_pivot() {
    let m = MaintenancePlan::derive(&join_plan()).unwrap();
    // Operators are numbered in the walker's depth-first order.
    let mut b = PlanBuilder::new();
    let r = b.scan("R", 3, None);
    let r_re = b.rehash(r, vec![2]);
    let s = b.scan("S", 2, None);
    let s_re = b.rehash(s, vec![1]);
    let join = b.hash_join(r_re, s_re, vec![2], vec![1]);
    let ship = b.ship(join);
    assert_eq!(*m.plan(), b.output(ship));

    let leg = |pivot: &str| {
        let mut b = PlanBuilder::new();
        let mut r = b.scan("R", 3, None);
        if pivot == "R" {
            r = b.broadcast(r);
        }
        let mut s = b.scan("S", 2, None);
        if pivot == "S" {
            s = b.broadcast(s);
        }
        let join = b.hash_join(r, s, vec![2], vec![1]);
        let ship = b.ship(join);
        b.output(ship)
    };
    let legs = m.legs();
    assert_eq!(legs.len(), 2);
    for l in legs {
        assert_eq!(l.plan, leg(&l.relation), "leg {}", l.relation);
        assert_eq!(l.fold, FoldMode::Multiset);
        // A leg input that already carries a broadcast is kept as it
        // is, whichever relation it is installed to pivot on.
        let mut view = MaterializedView::new("join", &join_plan()).unwrap();
        let inputs: Vec<(String, crate::plan::PhysicalPlan)> = ["R", "S"]
            .iter()
            .map(|r| (r.to_string(), leg(&l.relation)))
            .collect();
        view.install_leg_plans(&inputs).unwrap();
        assert_eq!(view.maintenance().legs()[0].plan, l.plan);
    }
}

/// A leg plan must scan exactly the view's relations: one more has no
/// telescoping position, one fewer folds a delta that skipped a join.
#[test]
fn a_leg_plan_over_the_wrong_relations_is_rejected_at_install() {
    let mut b = PlanBuilder::new();
    let r = b.scan("R", 3, None);
    let s = b.scan("S", 2, None);
    let rs = b.hash_join(r, s, vec![2], vec![1]);
    let t = b.scan("T", 2, None);
    let rst = b.hash_join(rs, t, vec![2], vec![1]);
    let ship = b.ship(rst);
    let extra = b.output(ship);
    for (r_leg, names) in [
        (extra, "scans T 1 time"),
        (scan_ship_plan(), "scans S 0 time"),
    ] {
        let mut view = MaterializedView::new("join", &join_plan()).unwrap();
        let legs = [("R".to_string(), r_leg), ("S".to_string(), join_plan())];
        let err = view.install_leg_plans(&legs).unwrap_err();
        assert_eq!(err.category(), "execution");
        assert!(err.message().contains("leg plan for R"), "{err}");
        assert!(err.message().contains(names), "{err}");
        // The default legs stay in force.
        assert_eq!(view.maintenance().legs().len(), 2);
    }
}

#[test]
fn multiset_view_tracks_insert_modify_delete_epochs() {
    let mut s = cluster(4);
    publish_r(&mut s, 60); // epoch 0
    let plan = scan_ship_plan();
    let mut view = MaterializedView::new("copy", &plan).unwrap();
    assert!(view.supports_incremental());

    // First refresh must recompute (there is no state to maintain yet).
    let err = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap_err();
    assert!(err.message().contains("recompute"), "{err}");
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));
    assert_eq!(view.epoch(), Some(Epoch(0)));

    // Epoch 1: inserts, modifies and deletes in one batch.
    let mut b = UpdateBatch::new();
    for k in 100..110 {
        b.insert("R", r_row(k));
    }
    for k in 0..8 {
        b.modify("R", r_row_v2(k));
    }
    b.delete("R", vec![Value::Int(30)])
        .delete("R", vec![Value::Int(31)]);
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(1),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 1);
    assert!(run.rows_folded > 0);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(1)));

    // An epoch that does not touch R is absorbed with zero legs.
    let mut b = UpdateBatch::new();
    b.insert("S", Tuple::new(vec![Value::Int(999), Value::Int(0)]));
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 0);
    assert_eq!(run.shipped_bytes, 0);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(2)));
}

#[test]
fn aggregate_view_incremental_matches_full_runs_across_epochs() {
    let mut s = cluster(5);
    publish_r(&mut s, 80); // epoch 0
    let plan = agg_plan();
    let mut view = MaterializedView::new("agg", &plan).unwrap();
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));

    for epoch in 1..=4u64 {
        let mut b = UpdateBatch::new();
        let base = 80 + epoch as i64 * 10;
        for k in base..base + 5 {
            b.insert("R", r_row(k));
        }
        // Modifies move rows between groups; deletes shrink them.
        for k in (0..epoch as i64 * 6).step_by(2) {
            b.modify("R", r_row_v2(k));
        }
        b.delete("R", vec![Value::Int(epoch as i64)]);
        s.publish(&b).unwrap();
        let run = refresh_view(
            &mut view,
            &s,
            &EngineConfig::default(),
            MaintenanceMode::Incremental,
            Epoch(epoch),
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(run.mode, MaintenanceMode::Incremental);
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(epoch)),
            "maintained answer diverged at epoch {epoch}"
        );
    }
}

#[test]
fn min_view_absorbs_a_delete_heavy_stream_incrementally() {
    // Before the extremum sketch, a MIN view was recompute-only: every
    // one of the 8 delete-heavy epochs below would have recomputed.
    // With the sketch, retractions fold from the tracked runners-up and
    // only genuine exhaustion falls back — the recompute count drops
    // from one-per-epoch to the handful of exhaustion events.
    let mut s = cluster(4);
    publish_r(&mut s, 60); // epoch 0
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    let agg = b.aggregate(
        ship,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Single,
    );
    let plan = b.output(agg);
    let mut view = MaterializedView::new("min", &plan).unwrap();
    assert!(view.supports_incremental());
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));

    // Eight epochs that do nothing but delete the smallest surviving
    // keys — each one retracts the current per-group minima.
    let mut fallbacks = 0usize;
    for epoch in 1..=8u64 {
        let mut b = UpdateBatch::new();
        for k in (epoch as i64 - 1) * 6..epoch as i64 * 6 {
            b.delete("R", vec![Value::Int(k)]);
        }
        s.publish(&b).unwrap();
        let run = refresh_view(
            &mut view,
            &s,
            &EngineConfig::default(),
            MaintenanceMode::Incremental,
            Epoch(epoch),
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(run.mode, MaintenanceMode::Incremental);
        fallbacks += run.sketch_fallback as usize;
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(epoch)),
            "maintained MIN diverged at epoch {epoch}"
        );
    }
    assert!(
        fallbacks >= 1,
        "the stream deletes past the tracked runners-up at least once"
    );
    assert!(
        fallbacks < 8,
        "recompute decisions must drop well below one-per-epoch, got {fallbacks}"
    );
}

#[test]
fn join_view_runs_one_leg_per_changed_relation() {
    let mut s = cluster(5);
    publish_r(&mut s, 50);
    publish_s_matching(&mut s, 50); // epoch 1 (S rows join R.v = S.w)
    let plan = join_plan();
    let mut view = MaterializedView::new("join", &plan).unwrap();
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(1),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(1)));

    // Epoch 2 touches both relations: two telescoped legs.
    let mut b = UpdateBatch::new();
    for k in 200..206 {
        b.insert("R", r_row(k));
    }
    b.delete("R", vec![Value::Int(5)]);
    for k in 200..206 {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    b.delete("S", vec![Value::Int(7)]);
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 2);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(2)));

    // Recompute lands on the same answer from scratch.
    let mut recomputed = MaterializedView::new("join2", &plan).unwrap();
    refresh_view(
        &mut recomputed,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(recomputed.answer(), view.answer());
}

#[test]
fn maintenance_survives_a_mid_maintenance_node_failure() {
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let mut s = cluster(5);
        publish_r(&mut s, 80);
        publish_s_matching(&mut s, 80);
        let plan = join_plan();
        let mut view = MaterializedView::new("join", &plan).unwrap();
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        refresh_view(
            &mut view,
            &s,
            &config,
            MaintenanceMode::Recompute,
            Epoch(1),
            NodeId(0),
            None,
        )
        .unwrap();

        let mut b = UpdateBatch::new();
        for k in 300..330 {
            b.insert("R", r_row(k));
            b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
        }
        for k in 0..20 {
            b.modify("R", r_row_v2(k));
        }
        s.publish(&b).unwrap();

        // Learn the failure-free makespan on a throwaway clone, then
        // kill a node halfway through the real refresh.
        let mut probe = view.clone();
        let baseline = refresh_view(
            &mut probe,
            &s,
            &config,
            MaintenanceMode::Incremental,
            Epoch(2),
            NodeId(0),
            None,
        )
        .unwrap();
        let failure = FailureSpec::at_time(
            NodeId(4),
            SimTime::from_micros(baseline.makespan.as_micros() / 2),
        );
        let run = refresh_view(
            &mut view,
            &s,
            &config,
            MaintenanceMode::Incremental,
            Epoch(2),
            NodeId(0),
            Some(failure),
        )
        .unwrap();
        assert!(
            run.recovered,
            "{strategy:?}: the mid-makespan failure must interrupt maintenance"
        );
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(2)),
            "{strategy:?}: maintained answer must survive the failure exactly"
        );
        assert_eq!(view.answer(), probe.answer());
    }
}

#[test]
fn epoch_pinned_scans_read_the_past() {
    let mut s = cluster(4);
    publish_r(&mut s, 30); // epoch 0
    let mut b = UpdateBatch::new();
    for k in 30..60 {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap(); // epoch 1

    let plan = scan_ship_plan();
    let mut overrides = ScanOverrides::new();
    overrides.read_at(plan.scans()[0], Epoch(0));
    assert!(!overrides.is_empty());
    let workload = SessionScheduler::new(SchedulerConfig::default())
        .run(
            &s,
            &EngineConfig::default(),
            &[QuerySession {
                name: "pinned".into(),
                plan: plan.clone(),
                epoch: Epoch(1),
                initiator: NodeId(0),
                arrival: SimTime::ZERO,
                fingerprint: None,
                estimated_cost: 0.0,
                overrides,
                plan_resident: false,
            }],
        )
        .unwrap();
    assert_eq!(
        workload.sessions[0].report.rows,
        full_run(&s, &plan, Epoch(0)),
        "the pinned scan must see epoch 0 despite the session reading epoch 1"
    );
}

// ---------------------------------------------------------------------------
// Standing-query fan-out (exec/registry.rs)
// ---------------------------------------------------------------------------

/// Apply one subscriber's signed diff to its previously acknowledged
/// answer — what a real subscriber would do on notification.
fn apply_diff(acked: &[Tuple], diff: &ViewDiff) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = acked.to_vec();
    for retract in &diff.retracts {
        let pos = rows
            .iter()
            .position(|t| t == retract)
            .expect("retracted row must be acknowledged");
        rows.remove(pos);
    }
    rows.extend(diff.inserts.iter().cloned());
    rows.sort();
    rows
}

#[test]
fn registry_shares_sessions_across_views_and_stays_exact() {
    let mut s = cluster(5);
    publish_r(&mut s, 80); // epoch 0
    publish_s_matching(&mut s, 80); // epoch 1
    let config = EngineConfig::default();

    let mut registry = ViewRegistry::new(NodeId(0));
    let plans: Vec<crate::plan::PhysicalPlan> = vec![
        join_plan(),
        join_plan(),
        join_plan(),
        join_plan(),
        agg_plan(),
        scan_ship_plan(),
    ];
    for (i, plan) in plans.iter().enumerate() {
        registry.register(MaterializedView::new(format!("view-{i}"), plan).unwrap());
    }
    assert_eq!(registry.len(), 6);

    // Priming refresh: every view recomputes, but the four identical
    // join views collide on one fingerprint — three sessions, not six.
    let primed = registry.refresh(&s, &config, Epoch(1), None).unwrap();
    assert_eq!(primed.leg_instances, 6);
    assert_eq!(primed.sessions_run, 3, "duplicate recomputes are shared");
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(registry.view(i).answer(), full_run(&s, plan, Epoch(1)));
    }
    // The first notification ships the full answer as inserts.
    assert!(primed.diffs.iter().all(|d| d.retracts.is_empty()));
    assert!(primed.diff_bytes > 0);
    let mut acked: Vec<Vec<Tuple>> = primed.diffs.iter().map(|d| d.inserts.clone()).collect();

    // Epoch 2 touches both relations.
    let mut b = UpdateBatch::new();
    for k in 200..208 {
        b.insert("R", r_row(k));
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    for k in 0..6 {
        b.modify("R", r_row_v2(k));
    }
    b.delete("S", vec![Value::Int(7)]);
    s.publish(&b).unwrap();

    let refresh = registry.refresh(&s, &config, Epoch(2), None).unwrap();
    // Independent maintenance would run 4×2 join legs + 1 agg leg +
    // 1 copy leg; sharing collapses the join legs to one per relation.
    assert_eq!(refresh.leg_instances, 10);
    assert_eq!(refresh.sessions_run, 4);
    // Deltas are derived once per changed relation, not once per view.
    assert_eq!(
        refresh.delta_derivations, 2,
        "six views over two changed relations must derive exactly two diffs"
    );
    for (i, plan) in plans.iter().enumerate() {
        let expected = full_run(&s, plan, Epoch(2));
        assert_eq!(registry.view(i).answer(), expected, "view-{i} diverged");
        // The signed diff reconstructs the new answer from the old one.
        assert_eq!(apply_diff(&acked[i], &refresh.diffs[i]), expected);
        acked[i] = expected;
    }

    // Epoch 3 touches only S: the agg and copy views (which scan R
    // alone) ride along with zero sessions and empty diffs.
    let mut b = UpdateBatch::new();
    b.insert("S", Tuple::new(vec![Value::Int(900), Value::Int(9000)]));
    s.publish(&b).unwrap();
    let refresh = registry.refresh(&s, &config, Epoch(3), None).unwrap();
    assert_eq!(refresh.sessions_run, 1, "only the shared S leg runs");
    assert_eq!(refresh.delta_derivations, 1);
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(registry.view(i).answer(), full_run(&s, plan, Epoch(3)));
        assert_eq!(registry.view(i).epoch(), Some(Epoch(3)));
    }
    assert_eq!(refresh.diffs[4].shipped_bytes, 0, "agg view is unchanged");
    assert_eq!(refresh.diffs[5].shipped_bytes, 0, "copy view is unchanged");
}

#[test]
fn reinstalling_legs_of_an_unknown_subscriber_is_an_error_not_a_panic() {
    let mut registry = ViewRegistry::new(NodeId(0));
    registry.register(MaterializedView::new("join", &join_plan()).unwrap());
    let err = registry.reinstall_legs(1, &[]).unwrap_err();
    assert_eq!(err.category(), "execution");
    assert!(err.message().contains("no subscriber 1"), "{err}");
    assert_eq!(registry.recompiles(), 0);
}

#[test]
fn registry_refresh_survives_a_mid_maintenance_failure() {
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    publish_s_matching(&mut s, 80); // epoch 1
    let config = EngineConfig::default();

    let mut registry = ViewRegistry::new(NodeId(0));
    for i in 0..3 {
        registry.register(MaterializedView::new(format!("join-{i}"), &join_plan()).unwrap());
    }
    registry.refresh(&s, &config, Epoch(1), None).unwrap();

    let mut b = UpdateBatch::new();
    for k in 300..330 {
        b.insert("R", r_row(k));
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    for k in 0..20 {
        b.modify("R", r_row_v2(k));
    }
    s.publish(&b).unwrap();

    // Probe the failure-free refresh on a clone to aim mid-makespan.
    let mut probe = registry.clone();
    let baseline = probe.refresh(&s, &config, Epoch(2), None).unwrap();
    assert!(baseline.makespan > SimTime::ZERO);
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.makespan.as_micros() / 2),
    );
    let refresh = registry
        .refresh(&s, &config, Epoch(2), Some(failure))
        .unwrap();
    assert!(
        refresh.recovered,
        "the mid-makespan failure must interrupt the shared workload"
    );
    let expected = full_run(&s, &join_plan(), Epoch(2));
    for i in 0..3 {
        assert_eq!(
            registry.view(i).answer(),
            expected,
            "join-{i} must survive the failure exactly"
        );
    }
}

// ---------------------------------------------------------------------
// The exchange takes a batch at a time; the row loop it replaced is the
// reference
// ---------------------------------------------------------------------

pub(crate) mod exchange_by_batch {
    use super::super::exchange::{Payload, SessionId, BATCH_ROWS};
    use super::super::ivm::ScanOverrides;
    use super::super::pipeline::Runtime;
    use super::super::scheduler::Submission;
    use super::super::session::{shared_sim, SessionSim, SharedSim};
    use super::*;
    use crate::batch::wire_size;
    use crate::plan::{OpId, OperatorKind, PhysicalPlan};
    use orchestra_common::rng::{seeded, StdRng};
    use orchestra_common::{ColumnarBatch, NodeSet};
    use orchestra_simnet::Delivery;
    use std::rc::Rc;
    use std::sync::Arc;

    /// Every row of `batch` with its tags.
    fn rows_of(batch: &ColumnarBatch) -> Vec<(Tuple, i8, NodeSet, u32)> {
        (0..batch.len())
            .map(|r| {
                (
                    batch.tuple_at(r),
                    batch.sign_at(r),
                    batch.provenance_at(r),
                    batch.phase_at(r),
                )
            })
            .collect()
    }

    /// A runtime for `plan` over `storage` with a simulator of its own,
    /// as the scheduler builds one — idle, nothing disseminated.
    fn runtime<'a>(
        storage: &'a DistributedStorage,
        config: &'a EngineConfig,
        plan: &'a PhysicalPlan,
        overrides: &'a ScanOverrides,
        initiator: NodeId,
    ) -> (Runtime<'a>, SharedSim) {
        let shared = shared_sim(storage.routing(), config.profile);
        let submission = Submission {
            name: "test",
            plan,
            epoch: Epoch(0),
            initiator,
            arrival: SimTime::ZERO,
            fingerprint: None,
            estimated_cost: 0.0,
            overrides,
            plan_resident: false,
        };
        let sim = SessionSim::attach(shared.clone(), SessionId(0));
        (
            Runtime::new(storage.view(), config, &submission, sim),
            shared,
        )
    }

    /// The exchange as it ran before it took whole batches: one row at a
    /// time into the pending buffer and the cache, a send the moment a
    /// buffer reaches [`BATCH_ROWS`].  The three methods are the deleted
    /// `RehashState::buffer_from`, `Runtime::buffer_exchange_from` (with
    /// the flush it called) and exchange arms of `Runtime::process_at`,
    /// word for word but for where their state lives, the shared payload,
    /// and a row's key, which is hashed as a row ([`Tuple::hash_columns`]).
    /// Its cache takes every row as it is buffered, sent or not.
    struct RowLoopExchange {
        buffers: HashMap<NodeId, ColumnarBatch>,
        cache: HashMap<NodeId, ColumnarBatch>,
        cache_enabled: bool,
        sim: SessionSim,
    }

    impl RowLoopExchange {
        fn buffer_from(&mut self, dest: NodeId, src: &ColumnarBatch, row: usize) -> usize {
            if self.cache_enabled {
                let cached = self.cache.entry(dest).or_default();
                cached.append_row_interned(src, row);
            }
            let buf = self.buffers.entry(dest).or_default();
            buf.append_row_interned(src, row);
            buf.len()
        }

        fn buffer_exchange_from(
            &mut self,
            node: NodeId,
            op: OpId,
            dest: NodeId,
            src: &ColumnarBatch,
            row: usize,
            ready: SimTime,
        ) {
            if self.buffer_from(dest, src, row) >= BATCH_ROWS {
                let batch = self.buffers.remove(&dest).unwrap_or_default();
                let bytes = wire_size(&batch, self.cache_enabled);
                let batch = Rc::new(batch);
                self.sim
                    .send(node, dest, bytes, ready, Payload::Batch { op, batch });
            }
        }

        /// `like` lends its plan, routing table, participants, initiator
        /// and CPU model.
        fn process_at(
            &mut self,
            like: &Runtime<'_>,
            node: NodeId,
            op: OpId,
            batch: &ColumnarBatch,
            time: SimTime,
        ) {
            let cpu = like.config.profile.node.cpu_time(batch.len());
            let ready = self.sim.charge_cpu(node, time, cpu);
            match &like.plan.op(op).kind {
                OperatorKind::Rehash { columns } => {
                    for r in 0..batch.len() {
                        let row = batch.tuple_at(r);
                        let key = hash_values(columns.iter().map(|c| row.value(*c)));
                        let dest = like.table.owner_of(key);
                        self.buffer_exchange_from(node, op, dest, batch, r, ready);
                    }
                }
                OperatorKind::Broadcast => {
                    let dests = like.participants.clone();
                    for r in 0..batch.len() {
                        for &dest in &dests {
                            self.buffer_exchange_from(node, op, dest, batch, r, ready);
                        }
                    }
                }
                OperatorKind::Ship => {
                    let dest = like.initiator;
                    for r in 0..batch.len() {
                        self.buffer_exchange_from(node, op, dest, batch, r, ready);
                    }
                }
                other => unreachable!("{} is not an exchange", other.name()),
            }
        }
    }

    /// One delivered batch: when and where it arrived, what it held and
    /// what it cost on the wire.
    type Sent = (
        SimTime,
        NodeId,
        NodeId,
        OpId,
        Vec<(Tuple, i8, NodeSet, u32)>,
        usize,
    );

    /// Pop every message off `sim`.  Messages pop in arrival order, and a
    /// sender's uplink carries its messages in the order it sent them:
    /// two runs that sent the same batches in a different order differ
    /// here in their arrival times.
    fn drain(sim: &SharedSim, with_tags: bool) -> Vec<Sent> {
        let mut sent = Vec::new();
        loop {
            let popped = sim.borrow_mut().next_any();
            let Some((d, delivered)) = popped else {
                return sent;
            };
            assert!(delivered, "no node fails in this test");
            let Payload::Batch { op, batch } = d.payload.payload else {
                panic!("an exchange sends batches only");
            };
            let bytes = wire_size(&batch, with_tags);
            sent.push((d.time, d.from, d.to, op, rows_of(&batch), bytes));
        }
    }

    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Cells {
        Int,
        Str,
        Double,
        /// An `Int` or a `Double`, by the row: an untyped column.
        Number,
    }

    /// `rows` random rows of the given column types.  A column holds
    /// NULLs in some batches and none in others, so one exchange meets
    /// the same column typed and untyped; tags vary by row.
    pub(crate) fn random_batch(rng: &mut StdRng, types: &[Cells], rows: usize) -> ColumnarBatch {
        let null_share: Vec<f64> = types
            .iter()
            .map(|_| if rng.random_bool(0.3) { 0.05 } else { 0.0 })
            .collect();
        let mut batch = ColumnarBatch::new(types.len());
        for _ in 0..rows {
            let cells: Vec<Value> = types
                .iter()
                .zip(&null_share)
                .map(|(cells, nulls)| {
                    if rng.random_bool(*nulls) {
                        return Value::Null;
                    }
                    match cells {
                        Cells::Int => Value::Int(rng.random_range(0u32..80) as i64 - 40),
                        Cells::Double => Value::Double(rng.random_range(0u32..64) as f64 / 4.0),
                        Cells::Number if rng.random_bool(0.5) => {
                            Value::Int(rng.random_range(0u32..80) as i64 - 40)
                        }
                        Cells::Number => Value::Double(rng.random_range(0u32..64) as f64 / 4.0),
                        Cells::Str if rng.random_bool(0.2) => {
                            Value::str(format!("rare-{}", rng.next_u64() % 10_000))
                        }
                        Cells::Str => Value::str(format!("word-{}", rng.random_range(0u32..24))),
                    }
                })
                .collect();
            // Tagged by nodes outside the cluster, so that no cached row
            // counts as tainted when the test reads the cache back.
            let scanned_by = NodeSet::singleton(NodeId(200 + rng.random_range(0u16..8)));
            let sign = if rng.random_bool(0.2) { -1 } else { 1 };
            batch.push_row_owned(cells, sign, scanned_by, rng.random_range(0u32..3));
        }
        batch
    }

    /// `Rehash`, `Broadcast` and `Ship` over random batches, against
    /// [`RowLoopExchange`]: what each run sends (to whom, which rows with
    /// which tags, how many bytes, arriving when) and what it leaves
    /// pending must be the same, and what it caches once the pending rows
    /// are flushed must be every row the row loop cached.  The first batch of a case
    /// leaves the buffers at whatever fill it happens to; the next ones
    /// start from there.
    #[test]
    fn exchange_sends_what_the_row_loop_sent_in_the_order_it_sent_it() {
        // A debug build runs a sample on every `cargo test`; CI runs the
        // full count in release mode.
        let cases = if cfg!(debug_assertions) { 20 } else { 300 };
        let mut rng = seeded(0x5e2d_02de);
        for case in 0..cases {
            let nodes = rng.random_range(3u16..9);
            let storage = cluster(nodes);
            let config = EngineConfig {
                recovery: rng.random_bool(0.5),
                ..EngineConfig::default()
            };
            let types: Vec<Cells> = (0..rng.random_range(1usize..5))
                .map(|_| [Cells::Int, Cells::Str, Cells::Double][rng.random_range(0usize..3)])
                .collect();
            let mut hashed: Vec<usize> =
                (0..types.len()).filter(|_| rng.random_bool(0.5)).collect();
            if hashed.is_empty() {
                hashed.push(rng.random_range(0..types.len()));
            }
            let mut b = PlanBuilder::new();
            let scan = b.scan("R", types.len(), None);
            let rehash = b.rehash(scan, hashed);
            let broadcast = b.broadcast(rehash);
            let ship = b.ship(broadcast);
            let plan = b.output(ship);
            let op = [rehash, broadcast, ship][case % 3];

            let overrides = ScanOverrides::new();
            let initiator = NodeId(rng.random_range(0..nodes));
            let (mut rt, sim) = runtime(&storage, &config, &plan, &overrides, initiator);
            let reference_sim = shared_sim(storage.routing(), config.profile);
            let mut reference = RowLoopExchange {
                buffers: HashMap::new(),
                cache: HashMap::new(),
                cache_enabled: config.recovery,
                sim: SessionSim::attach(reference_sim.clone(), SessionId(0)),
            };

            let node = NodeId(rng.random_range(0..nodes));
            let sizes = [
                rng.random_range(0usize..700),
                rng.random_range(1usize..2001),
                rng.random_range(1usize..300),
            ];
            for (i, rows) in sizes.into_iter().enumerate() {
                let what = format!("case {case}, batch {i}: {rows} rows through operator {op}");
                let batch = random_batch(&mut rng, &types, rows);
                let time = SimTime::from_micros(i as u64 * 50);
                reference.process_at(&rt, node, op, &batch, time);
                rt.process_at(node, op, 0, Rc::new(batch), time).unwrap();
                assert_eq!(
                    drain(&sim, config.recovery),
                    drain(&reference_sim, config.recovery),
                    "{what}"
                );
            }

            let mut pending: Vec<NodeId> = reference
                .buffers
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(dest, _)| *dest)
                .collect();
            pending.sort_unstable();
            let out = &mut rt.nodes[node.index()].exchange(op, false).unwrap().out;
            let mut flushed: HashMap<NodeId, Rc<ColumnarBatch>> =
                out.flush_pending().into_iter().collect();
            let mut flushed_to: Vec<NodeId> = flushed.keys().copied().collect();
            flushed_to.sort_unstable();
            assert_eq!(flushed_to, pending, "case {case}");
            for dest in (0..nodes).map(NodeId) {
                let what = format!("case {case}, destination {dest}");
                let buffered = flushed.remove(&dest).unwrap_or_default();
                let expected = reference.buffers.remove(&dest).unwrap_or_default();
                assert_eq!(rows_of(&buffered), rows_of(&expected), "{what}");
                assert_eq!(
                    wire_size(&buffered, config.recovery),
                    wire_size(&expected, config.recovery),
                    "{what}"
                );
                // Everything cached as sent to `dest` — the pending rows
                // included, now flushed — read back the way recovery
                // would were `dest` to fail.
                let gone = NodeSet::singleton(dest);
                let cached = out.take_cached_batch_for(dest, &gone);
                let expected = reference.cache.remove(&dest).unwrap_or_default();
                assert_eq!(rows_of(&cached), rows_of(&expected), "{what}");
                assert_eq!(cached.is_empty(), !config.recovery || expected.is_empty());
            }
        }
    }

    /// `scan R → rehash → ship → output`, with the ids of its exchanges.
    fn rehash_ship_plan() -> (PhysicalPlan, OpId, OpId) {
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 3, None);
        let rehash = b.rehash(scan, vec![2]);
        let ship = b.ship(rehash);
        (b.output(ship), rehash, ship)
    }

    /// An end-of-stream is counted only where the phase set a count up: a
    /// `Ship` is consumed at the initiator alone, an operator that is no
    /// exchange nowhere.
    #[test]
    fn an_end_of_stream_nobody_expects_is_an_error_naming_operator_and_node() {
        let storage = cluster(3);
        let config = EngineConfig::default();
        let (plan, rehash, ship) = rehash_ship_plan();
        let overrides = ScanOverrides::new();
        let (mut rt, _sim) = runtime(&storage, &config, &plan, &overrides, NodeId(0));
        let eos = |rt: &mut Runtime<'_>, node: NodeId, op: OpId| {
            rt.handle(Delivery {
                time: SimTime::ZERO,
                from: NodeId(2),
                to: node,
                payload: Payload::Eos { op, batches: 0 },
            })
        };
        // Before dissemination no instance expects anything.
        let err = eos(&mut rt, NodeId(0), rehash).unwrap_err();
        assert_eq!(
            err.message(),
            format!("unexpected end-of-stream for operator {rehash} at n0")
        );
        rt.begin(SimTime::ZERO).unwrap();
        eos(&mut rt, NodeId(1), rehash).unwrap();
        eos(&mut rt, NodeId(0), ship).unwrap();
        let err = eos(&mut rt, NodeId(1), ship).unwrap_err();
        assert_eq!(
            err.message(),
            format!("unexpected end-of-stream for operator {ship} at n1")
        );
        let output = plan.root();
        let err = eos(&mut rt, NodeId(0), output).unwrap_err();
        assert_eq!(
            err.message(),
            format!("unexpected end-of-stream for operator {output} at n0")
        );
    }

    /// An end-of-stream says how many batches its sender flushed to the
    /// receiver; a receiver that saw another number fails, naming both
    /// ends, the operator and both counts.
    #[test]
    fn an_end_of_stream_checks_the_batches_that_arrived_before_it() {
        let mut storage = cluster(3);
        publish_r(&mut storage, 30);
        let config = EngineConfig::default();
        let (plan, rehash, _) = rehash_ship_plan();
        let overrides = ScanOverrides::new();
        let (mut rt, _sim) = runtime(&storage, &config, &plan, &overrides, NodeId(0));
        rt.begin(SimTime::ZERO).unwrap();
        let deliver = |rt: &mut Runtime<'_>, from: u16, payload: Payload| {
            rt.handle(Delivery {
                time: SimTime::ZERO,
                from: NodeId(from),
                to: NodeId(1),
                payload,
            })
        };
        let batch = || {
            let batch = random_batch(&mut seeded(2), &[Cells::Int, Cells::Str, Cells::Int], 3);
            Payload::Batch {
                op: rehash,
                batch: Rc::new(batch),
            }
        };
        // Two batches from n2, then its marker counting two: in order.
        deliver(&mut rt, 2, batch()).unwrap();
        deliver(&mut rt, 2, batch()).unwrap();
        let eos = |batches| Payload::Eos {
            op: rehash,
            batches,
        };
        deliver(&mut rt, 2, eos(2)).unwrap();
        // One batch from n0, whose marker counts two: one was lost.
        deliver(&mut rt, 0, batch()).unwrap();
        let err = deliver(&mut rt, 0, eos(2)).unwrap_err();
        assert_eq!(
            err.message(),
            format!(
                "n0 sent 2 batch(es) to operator {rehash} at n1 this phase, \
                 but 1 arrived before its end-of-stream"
            )
        );
    }

    /// A node that ran its scans has closed the segment they feed: the
    /// rehash is flushed and its end-of-stream sent, so a row pushed into
    /// it afterwards could never be delivered.
    #[test]
    fn a_batch_into_a_closed_segment_is_an_error_naming_operator_and_node() {
        let mut storage = cluster(3);
        publish_r(&mut storage, 30);
        let config = EngineConfig::default();
        let (plan, rehash, ship) = rehash_ship_plan();
        let overrides = ScanOverrides::new();
        let (mut rt, _sim) = runtime(&storage, &config, &plan, &overrides, NodeId(0));
        rt.begin(SimTime::ZERO).unwrap();
        let late = || {
            let batch = random_batch(&mut seeded(1), &[Cells::Int, Cells::Str, Cells::Int], 2);
            Rc::new(batch)
        };
        // Open until the node's plan arrives and its scans run.
        rt.process_at(NodeId(2), rehash, 0, late(), SimTime::ZERO)
            .unwrap();
        rt.handle(Delivery {
            time: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(2),
            payload: Payload::Start,
        })
        .unwrap();
        let err = rt
            .process_at(NodeId(2), rehash, 0, late(), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err.message(),
            format!(
                "2 row(s) reached Rehash operator {rehash} at n2 after it sent its end-of-stream"
            )
        );
        // The ship above it still waits for the other senders' markers,
        // here and at every other node.
        rt.process_at(NodeId(2), ship, 0, late(), SimTime::ZERO)
            .unwrap();
        rt.process_at(NodeId(1), rehash, 0, late(), SimTime::ZERO)
            .unwrap();
    }

    /// A string is allocated where publication stores it and nowhere
    /// after: the scan batch, the exchange buffer — which, sent, is its
    /// own recovery cache entry — and the answer hold the store's
    /// allocation.
    #[test]
    fn a_scanned_string_is_one_allocation_from_scan_to_output() {
        let mut storage = cluster(4);
        publish_r(&mut storage, 60);
        let config = EngineConfig::default();
        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 3, None);
        let ship = b.ship(scan);
        let plan = b.output(ship);
        let output = plan.root();
        let overrides = ScanOverrides::new();
        let (mut rt, _sim) = runtime(&storage, &config, &plan, &overrides, NodeId(0));

        let held = |batch: &ColumnarBatch| {
            let pool = batch.pool();
            let id = (0..pool.len() as u32).find(|id| pool.get(*id) == "b");
            Arc::clone(pool.get_shared(id.expect("some row of the batch has g = \"b\"")))
        };
        // Every pool that holds a string holds it twice (by id and by
        // content); the stored tuple it was scanned from and the test's
        // own handle are one more each.
        let holders = |s: &Arc<str>| {
            assert_eq!(Arc::strong_count(s) % 2, 0);
            (Arc::strong_count(s) - 2) / 2
        };

        let node = NodeId(1);
        let (scanned, _) = rt.do_scan(node, scan).unwrap();
        assert!(scanned.len() > 1);
        let s = held(&scanned);
        assert_eq!(holders(&s), 1, "the scan batch");

        // Through the exchange, too few rows to flush: they sit in the
        // pending buffer, and nothing is cached until it is sent.
        let projected = Rc::new(scanned.project(&[0, 1, 2]));
        rt.process_at(node, ship, 0, projected, SimTime::ZERO)
            .unwrap();
        assert_eq!(holders(&s), 2, "scan batch, pending buffer");
        let out = &mut rt.nodes[node.index()].exchange(ship, true).unwrap().out;
        let (dest, sent) = out.flush_pending().remove(0);
        assert_eq!((dest, sent.len()), (NodeId(0), scanned.len()));
        assert!(Arc::ptr_eq(&held(&sent), &s));
        assert_eq!(
            holders(&s),
            2,
            "scan batch, the sent batch that is its cache entry"
        );

        // Delivered to the initiator's `Output`, which keeps the batch
        // itself: the answer is the cache entry.
        rt.process_at(NodeId(0), output, 0, Rc::clone(&sent), SimTime::ZERO)
            .unwrap();
        assert_eq!(rt.output.len(), 1);
        assert!(Rc::ptr_eq(&rt.output[0], &sent));
        drop(sent);
        assert!(Arc::ptr_eq(&held(&rt.output[0]), &s));
        assert_eq!(
            holders(&s),
            2,
            "scan batch, the cache entry that is the answer"
        );
        let gone = NodeSet::singleton(NodeId(0));
        let out = &mut rt.nodes[node.index()].exchange(ship, true).unwrap().out;
        let cached = out.take_cached_batch_for(NodeId(0), &gone);
        assert!(Arc::ptr_eq(&held(&cached), &s));
    }
}
