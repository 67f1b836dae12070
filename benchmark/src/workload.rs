//! What the four workloads share: the trait the runner drives, the
//! failure type an operation reports, and the counters read off the
//! product's report structs.

use crate::harness::Tracer;
use orchestra_common::{OrchestraError, Tuple};
use orchestra_engine::{QueryReport, WallClock};
use std::collections::BTreeMap;
use std::time::Instant;

/// Why an operation counts as failed: a product `Err`, or an answer that
/// differs from the single-node reference.
#[derive(Debug)]
pub struct Failure(pub String);

impl From<OrchestraError> for Failure {
    fn from(e: OrchestraError) -> Failure {
        Failure(format!("product error: {e}"))
    }
}

pub type OpResult = Result<(), Failure>;

/// Seed of the schedules that define a workload rather than feed it: the
/// membership events of `churn_failover` and the request streams of
/// `epoch_serving`.  `--seed` varies the data, the update streams and the
/// gossip's peer choices; a schedule that also moved with it would make
/// two seeds two different workloads (a run is too short to average a
/// Poisson schedule out).
pub const SCHEDULE_SEED: u64 = 0x5c4e_d01e;

/// Data sizes are divided by this under `--smoke`.
const SMOKE_DIVISOR: usize = 50;

/// Sizing of one run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// `full`, or a fiftieth of it (at least `floor`) under `--smoke`.
    pub fn rows(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(floor)
        } else {
            full
        }
    }
}

/// How a workload is run, known before it is set up.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed operations run first, so that first-touch page faults and
    /// every kind of operation the workload has land outside the
    /// measurement.
    pub warm_up: usize,
    /// Operations in one round; a run measures whole rounds.
    pub round: usize,
    /// Measured operations per second of `--seconds`, from the seed
    /// commit on the reference machine.  Fixes the operation count of a
    /// run, so counts and simulated figures repeat exactly.
    pub ops_per_second: f64,
}

impl Plan {
    /// Operations a run measures.
    pub fn measured_ops(&self, seconds: u64, scale: Scale) -> usize {
        if scale.smoke {
            return self.round.max(4);
        }
        let rounds = (seconds as f64 * self.ops_per_second / self.round as f64).round();
        rounds.max(1.0) as usize * self.round
    }
}

/// One lifecycle workload, set up and ready to run operations in index
/// order.  Operation `i` is the same work for the same seed whichever
/// pass runs it.
pub trait Workload {
    /// Run operation `i`: timed product calls, then verification inside
    /// [`Stats::verify`].
    fn run_op(&mut self, t: &mut Tracer, stats: &mut Stats, i: usize) -> OpResult;

    /// Direct calls into layers the operations only reach through the
    /// engine.  Runs in the traced pass only, after every operation.
    fn probes(&mut self, t: &mut Tracer, stats: &mut Stats);
}

/// Counter slots of [`WallClock::NAMES`], in slot order.
const OPERATOR_NANOS: [&str; 8] = [
    "engine.op_select_ns",
    "engine.op_project_ns",
    "engine.op_compute_ns",
    "engine.op_join_ns",
    "engine.op_aggregate_ns",
    "engine.op_exchange_ns",
    "engine.op_scan_ns",
    "engine.op_output_ns",
];

/// Counts and deterministic samples accumulated over one pass.
#[derive(Default)]
pub struct Stats {
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    verify_ns: u64,
}

impl Stats {
    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_default() += value;
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn verify_seconds(&self) -> f64 {
        self.verify_ns as f64 / 1e9
    }

    /// Simulated bytes shipped: the paper's traffic axis.
    pub fn sim_bytes(&mut self, bytes: u64) {
        self.add("sim.bytes", bytes as f64);
    }

    /// Host time the product's own operator clock attributed.
    pub fn operator_clock(&mut self, clock: &WallClock) {
        for (counter, nanos) in OPERATOR_NANOS.iter().zip(clock.op_nanos) {
            self.add(counter, nanos as f64);
        }
    }

    /// Everything a stand-alone query run reports.
    pub fn query_report(&mut self, report: &QueryReport) {
        self.sim_bytes(report.total_bytes);
        self.operator_clock(&report.wall_clock);
        self.add("engine.tuples_scanned", report.tuples_scanned as f64);
        self.add("engine.messages", report.total_messages as f64);
        self.sample(
            "engine.sim_running_ms",
            report.running_time.as_micros() as f64 / 1e3,
        );
    }

    /// Run answer verification: outside the operation's time, and
    /// accounted as `harness.verify_s`.
    pub fn verify(&mut self, t: &mut Tracer, check: impl FnOnce() -> OpResult) -> OpResult {
        let start = Instant::now();
        let result = t.untimed(check);
        self.verify_ns += start.elapsed().as_nanos() as u64;
        result
    }
}

/// The oracle's comparison: `got` must equal the reference row for row.
pub fn expect_rows(what: &str, got: &[Tuple], reference: &[Tuple]) -> OpResult {
    if got == reference {
        Ok(())
    } else {
        Err(Failure(format!(
            "{what}: answered {} rows, the reference has {}",
            got.len(),
            reference.len()
        )))
    }
}
