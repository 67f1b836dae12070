//! The metric tables: what each end-to-end and per-layer number is
//! called, its unit, and where it is read from.  `BENCHMARK.json` lists
//! the same names; the smoke test holds the two together.

use crate::harness::{median, per, quantile, OpCost, Tracer, OP_SPAN, UNTIMED_SPAN};
use crate::workload::Stats;
use std::collections::BTreeMap;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a median, or events behind a count.
    pub samples: usize,
}

/// Where a per-layer metric is read from.
enum Source {
    /// Median duration of the spans of that name, in the metric's unit.
    SpanP50(&'static str),
    /// Median of a sample series the workload recorded.
    SampleP50(&'static str),
    /// A counter divided by the operations of the pass.
    PerOp(&'static str),
    /// A counter divided by the number of spans of that name: the
    /// per-probe form of [`Source::PerOp`].
    PerSpan(&'static str, &'static str),
    /// A counter per second spent in the spans of those names.
    Rate(&'static str, &'static [&'static str]),
    /// The ratio of two counters.
    Share(&'static str, &'static str),
    /// A counter as it stands.
    Total(&'static str),
    /// Computed by the runner from the operation costs of both passes.
    Harness,
}

use Source::*;

/// Every per-layer metric, in report order.  A workload that never
/// produces the underlying span or counter reports 0 with 0 samples.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Source)] = &[
    // storage, write side
    ("storage.publish_bulk_ms_p50", "ms", SpanP50("storage.publish_bulk")),
    ("storage.publish_epoch_ms_p50", "ms", SpanP50("storage.publish_epoch")),
    ("storage.publish_rows_per_s", "1/s", Rate("storage.publish_rows", &["storage.publish_bulk", "storage.publish_epoch"])),
    ("storage.delta_ms_p50", "ms", SpanP50("storage.delta")),
    ("storage.delta_signed_rows_per_op", "count", PerOp("storage.delta_signed_rows")),
    ("storage.anti_entropy_ms_p50", "ms", SpanP50("storage.anti_entropy")),
    ("storage.anti_entropy_tuples_copied_per_op", "count", PerOp("storage.anti_entropy_tuples_copied")),
    // storage, read side
    ("storage.scan_partition_ms_p50", "ms", SpanP50("storage.scan_partition")),
    ("storage.scan_rows_per_s", "1/s", Rate("storage.scan_rows", &["storage.scan_partition"])),
    ("storage.scan_pages_read_per_op", "count", PerSpan("storage.scan_pages_read", "storage.scan_partition")),
    ("storage.scan_remote_lookups_per_op", "count", PerSpan("storage.scan_remote_lookups", "storage.scan_partition")),
    ("storage.retrieve_us_p50", "us", SpanP50("storage.retrieve")),
    // storage, views of the store
    ("storage.clone_ms_p50", "ms", SpanP50("storage.clone")),
    // optimizer
    ("optimizer.compile_us_p50", "us", SpanP50("optimizer.compile")),
    ("optimizer.compile_delta_legs_us_p50", "us", SpanP50("optimizer.compile_delta_legs")),
    ("optimizer.choose_maintenance_us_p50", "us", SpanP50("optimizer.choose_maintenance")),
    ("optimizer.stats_collect_us_p50", "us", SpanP50("optimizer.stats_collect")),
    ("optimizer.adaptive_absorb_ms_p50", "ms", SpanP50("optimizer.adaptive_absorb")),
    ("optimizer.fingerprint_us_p50", "us", SpanP50("optimizer.fingerprint")),
    // engine, operators
    ("engine.execute_q1_ms_p50", "ms", SpanP50("engine.execute_q1")),
    ("engine.execute_q3_ms_p50", "ms", SpanP50("engine.execute_q3")),
    ("engine.execute_q6_ms_p50", "ms", SpanP50("engine.execute_q6")),
    ("engine.execute_copy_ms_p50", "ms", SpanP50("engine.execute_copy")),
    ("engine.op_select_ms_per_op", "ms", PerOp("engine.op_select_ns")),
    ("engine.op_project_ms_per_op", "ms", PerOp("engine.op_project_ns")),
    ("engine.op_compute_ms_per_op", "ms", PerOp("engine.op_compute_ns")),
    ("engine.op_join_ms_per_op", "ms", PerOp("engine.op_join_ns")),
    ("engine.op_aggregate_ms_per_op", "ms", PerOp("engine.op_aggregate_ns")),
    ("engine.op_exchange_ms_per_op", "ms", PerOp("engine.op_exchange_ns")),
    ("engine.op_scan_ms_per_op", "ms", PerOp("engine.op_scan_ns")),
    ("engine.op_output_ms_per_op", "ms", PerOp("engine.op_output_ns")),
    ("engine.tuples_scanned_per_op", "count", PerOp("engine.tuples_scanned")),
    ("engine.messages_per_op", "count", PerOp("engine.messages")),
    ("engine.sim_running_ms_p50", "ms", SampleP50("engine.sim_running_ms")),
    // engine, recovery
    ("engine.execute_with_failure_ms_p50", "ms", SpanP50("engine.execute_with_failure")),
    ("engine.stale_snapshot_ms_p50", "ms", SpanP50("engine.stale_snapshot")),
    ("engine.recovered_share", "ratio", Share("engine.recovered_runs", "engine.recovery_runs")),
    ("engine.purged_per_op", "count", PerOp("engine.purged")),
    ("engine.retransmitted_per_op", "count", PerOp("engine.retransmitted")),
    ("engine.phases_per_op", "count", PerOp("engine.phases")),
    // engine, serving
    ("engine.scheduler_serve_ms_p50", "ms", SpanP50("engine.scheduler_serve")),
    ("engine.scheduler_sessions_per_s", "1/s", Rate("engine.scheduler_sessions", &["engine.scheduler_serve"])),
    ("engine.scheduler_shed_share", "ratio", Share("engine.scheduler_shed", "engine.scheduler_requests")),
    ("engine.cache_hit_rate", "ratio", Share("engine.cache_hits", "engine.cache_lookups")),
    ("engine.scheduler_sim_p99_ms", "ms", SampleP50("engine.scheduler_sim_p99_ms")),
    // engine, standing views
    ("engine.registry_refresh_ms_p50", "ms", SpanP50("engine.registry_refresh")),
    ("engine.registry_sessions_run_per_op", "count", PerOp("engine.registry_sessions_run")),
    ("engine.registry_leg_instances_per_op", "count", PerOp("engine.registry_leg_instances")),
    ("engine.registry_delta_derivations_per_op", "count", PerOp("engine.registry_delta_derivations")),
    ("engine.registry_diff_kb_per_op", "KiB", PerOp("engine.registry_diff_bytes")),
    ("engine.registry_sketch_fallbacks", "count", Total("engine.registry_sketch_fallbacks")),
    ("engine.ivm_incremental_ms_p50", "ms", SpanP50("engine.ivm_incremental")),
    ("engine.ivm_recompute_ms_p50", "ms", SpanP50("engine.ivm_recompute")),
    // simnet
    ("simnet.event_ns_p50", "ns", SampleP50("simnet.event_ns")),
    ("simnet.events_per_s", "1/s", Rate("simnet.events", &["simnet.events"])),
    // substrate
    ("substrate.gossip_round_ms_p50", "ms", SpanP50("substrate.gossip_round")),
    ("substrate.gossip_converge_ms_p50", "ms", SpanP50("substrate.gossip_converge")),
    ("substrate.gossip_converge_rounds_per_op", "count", PerOp("substrate.gossip_converge_rounds")),
    ("substrate.gossip_kb_per_op", "KiB", PerOp("substrate.gossip_bytes")),
    ("substrate.snapshot_us_p50", "us", SpanP50("substrate.snapshot")),
    ("substrate.routing_build_us_p50", "us", SpanP50("substrate.routing_build")),
    // common
    ("common.key_hash_ns_p50", "ns", SampleP50("common.key_hash_ns")),
    // harness
    ("harness.op_ms_p50", "ms", Harness),
    ("harness.op_ms_p90", "ms", Harness),
    ("harness.unattributed_ms_per_op", "ms", Harness),
    ("harness.trace_overhead_share", "ratio", Harness),
    ("harness.alloc_mb_per_op", "MiB", Harness),
    ("harness.allocs_per_op", "count", Harness),
    ("harness.verify_s", "s", Harness),
];

/// Nanoseconds (or bytes, for `KiB`) in one of `unit`.
fn unit_divisor(unit: &str) -> f64 {
    match unit {
        "ms" => 1e6,
        "us" => 1e3,
        "KiB" => 1024.0,
        _ => 1.0,
    }
}

fn call_millis(costs: &[OpCost]) -> Vec<f64> {
    costs.iter().map(|c| c.call_ns as f64 / 1e6).collect()
}

/// What one pass over a workload's operations produced.
pub struct Pass {
    pub tracer: Tracer,
    pub stats: Stats,
    pub costs: Vec<OpCost>,
}

/// The quantile the two end-to-end timings are read at: the lower
/// quartile.  On a shared host interference only ever adds time, in
/// stretches of seconds, so the fast side of a run's operations is the
/// side that repeats; the plain median is `harness.op_ms_p50`.
const QUIET: f64 = 0.25;

/// Host time of one quiet round: for each position in the round, the
/// lower quartile over the pass's rounds of the operation at that
/// position.  Every kind of operation a round holds counts in full, as in
/// a mean; a stretch of interference that slows some rounds down does
/// not, as it would in a mean.
fn quiet_round_millis(millis: &[f64], round: usize) -> f64 {
    (0..round)
        .map(|position| {
            let at_position: Vec<f64> = millis
                .iter()
                .skip(position)
                .step_by(round)
                .copied()
                .collect();
            quantile(&at_position, QUIET)
        })
        .sum()
}

/// The end-to-end metrics of the untraced pass, which ran whole rounds of
/// `round` operations.
pub fn end_to_end(
    pass: &Pass,
    round: usize,
    setup_seconds: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let ops = pass.costs.len();
    let millis = call_millis(&pass.costs);
    let round_seconds = quiet_round_millis(&millis, round) / 1e3;
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    vec![
        metric("op_ms_p25", "ms", quantile(&millis, QUIET), ops),
        metric("ops_per_s", "1/s", round as f64 / round_seconds, ops),
        metric("peak_rss_mb", "MiB", peak_rss_mb, 1),
        metric(
            "sim_kb_per_op",
            "KiB",
            per(pass.stats.counter("sim.bytes") / 1024.0, ops),
            ops,
        ),
        metric("setup_s", "s", median(setup_seconds), setup_seconds.len()),
    ]
}

/// The per-layer metrics of the traced pass; `untraced` is the same
/// operations run with spans off, for the tracing overhead.
pub fn per_layer(traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let ops = traced.costs.len();
    let (tracer, stats) = (&traced.tracer, &traced.stats);
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let divisor = unit_divisor(unit);
            let (value, samples) = match source {
                SpanP50(span) => {
                    let nanos = tracer.durations(span);
                    (median(&nanos) / divisor, nanos.len())
                }
                SampleP50(series) => {
                    let values = stats.samples(series);
                    (median(values), values.len())
                }
                PerOp(counter) => (per(stats.counter(counter) / divisor, ops), ops),
                PerSpan(counter, span) => {
                    let spans = tracer.durations(span).len();
                    (per(stats.counter(counter), spans), spans)
                }
                Rate(counter, spans) => {
                    let nanos: Vec<f64> = spans.iter().flat_map(|n| tracer.durations(n)).collect();
                    let seconds = nanos.iter().sum::<f64>() / 1e9;
                    let count = stats.counter(counter);
                    (
                        if seconds > 0.0 { count / seconds } else { 0.0 },
                        nanos.len(),
                    )
                }
                Share(part, whole) => {
                    let whole = stats.counter(whole);
                    (
                        if whole > 0.0 {
                            stats.counter(part) / whole
                        } else {
                            0.0
                        },
                        whole as usize,
                    )
                }
                Total(counter) => (stats.counter(counter), ops),
                Harness => (harness_metric(name, traced, untraced), ops),
            };
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

fn harness_metric(name: &str, traced: &Pass, untraced: &Pass) -> f64 {
    let ops = traced.costs.len();
    let millis = call_millis(&traced.costs);
    let sum = |f: fn(&OpCost) -> u64| traced.costs.iter().map(|c| f(c) as f64).sum::<f64>();
    match name {
        "harness.op_ms_p50" => median(&millis),
        "harness.op_ms_p90" => quantile(&millis, 0.9),
        "harness.unattributed_ms_per_op" => {
            per(sum(|c| c.region_ns.saturating_sub(c.call_ns)) / 1e6, ops)
        }
        "harness.trace_overhead_share" => {
            let base = quantile(&call_millis(&untraced.costs), QUIET);
            if base > 0.0 {
                quantile(&millis, QUIET) / base - 1.0
            } else {
                0.0
            }
        }
        "harness.alloc_mb_per_op" => per(sum(|c| c.alloc_bytes) / (1024.0 * 1024.0), ops),
        "harness.allocs_per_op" => per(sum(|c| c.allocs), ops),
        "harness.verify_s" => traced.stats.verify_seconds(),
        other => unreachable!("no harness metric called {other}"),
    }
}

/// Where the traced operations' time went: each product call's share of
/// the summed operation regions, by span name, plus the part of the
/// regions no call covers.  Probe rounds and untimed stretches are left
/// out: they are not part of any operation's time.
pub fn span_shares(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut covered = vec![0u64; tracer.spans.len()];
    for span in tracer.spans.iter().filter(|s| s.op.is_some()) {
        if let Some(parent) = span.parent {
            covered[parent] += span.nanos();
            if span.name != UNTIMED_SPAN {
                *by_name.entry(span.name).or_default() += span.nanos();
            }
        }
    }
    for (span, covered) in tracer.spans.iter().zip(covered) {
        if span.name == OP_SPAN {
            *by_name.entry("harness.unattributed").or_default() +=
                span.nanos().saturating_sub(covered);
        }
    }
    let total: u64 = by_name.values().sum();
    let mut shares: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, nanos)| (name, per(nanos as f64, total as usize)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}
