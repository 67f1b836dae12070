//! `orchestra-hostbench`: host-time benchmark of the ORCHESTRA
//! reproduction.  One process runs one workload: set-up (several times,
//! for a steady `setup_s`), an untimed warm-up, then a number of
//! operations fixed by `--seconds`.  See `README.md`.

mod adhoc_read;
mod churn_failover;
mod epoch_serving;
mod harness;
mod metrics;
mod probes;
mod publish_write;
mod workload;

use harness::{CountingAlloc, Tracer};
use metrics::{Metric, Pass};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Failure, Plan, Scale, Stats, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 4] = [
    "adhoc_read",
    "publish_write",
    "epoch_serving",
    "churn_failover",
];

/// Set-ups timed per run, at least; `setup_s` is their median.
const SETUP_REPETITIONS: usize = 5;
/// A short set-up is repeated until this much of it has been timed (or
/// it has run `MAX_SETUP_REPETITIONS` times), so that its median is as
/// steady as a long one's.
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUP_REPETITIONS: usize = 25;
/// Failures described on stderr before the rest are only counted.
const FAILURES_LOGGED: usize = 3;
/// Where the traced pass leaves its span list, relative to the working
/// directory (the root of the checkout).
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                args.trace = match argv.next_if(|next| !next.starts_with("--")) {
                    None => true,
                    Some(v) if v == "1" => true,
                    Some(v) if v == "0" => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn plan(name: &str, scale: Scale) -> Plan {
    match name {
        "adhoc_read" => adhoc_read::PLAN,
        "publish_write" => publish_write::plan(scale),
        "epoch_serving" => epoch_serving::PLAN,
        "churn_failover" => churn_failover::PLAN,
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// Build the workload's fixture for a pass of `ops` operations, warm-up
/// included.
fn set_up(
    name: &str,
    seed: u64,
    scale: Scale,
    ops: usize,
) -> orchestra_common::Result<Box<dyn Workload>> {
    Ok(match name {
        "adhoc_read" => Box::new(adhoc_read::AdhocRead::set_up(seed, scale)?),
        "publish_write" => Box::new(publish_write::PublishWrite::set_up(seed, scale)?),
        "epoch_serving" => Box::new(epoch_serving::EpochServing::set_up(seed, scale, ops)?),
        "churn_failover" => Box::new(churn_failover::ChurnFailover::set_up(seed, scale, ops)?),
        other => unreachable!("parse_args admitted workload {other}"),
    })
}

/// The oracle's tally: a failed operation is counted, never fatal.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, op: usize, outcome: std::thread::Result<workload::OpResult>) {
        self.attempted += 1;
        let reason = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(Failure(reason))) => reason,
            Err(_) => "panicked".to_string(),
        };
        self.failed += 1;
        if self.failed <= FAILURES_LOGGED {
            eprintln!("operation {op} failed: {reason}");
        }
    }
}

/// One pass: the untimed warm-up, then `ops` measured operations, with a
/// round of probes after each when tracing.
fn run_pass(
    fixture: &mut dyn Workload,
    tracing: bool,
    warm_up_ops: usize,
    ops: usize,
    tally: &mut Tally,
) -> Pass {
    let mut warm_up = Tracer::new(false);
    let mut discarded = Stats::default();
    for i in 0..warm_up_ops {
        warm_up.begin_op();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fixture.run_op(&mut warm_up, &mut discarded, i)
        }));
        warm_up.end_op();
        if !matches!(outcome, Ok(Ok(()))) {
            eprintln!("warm-up operation {i} failed");
        }
    }

    let mut pass = Pass {
        tracer: Tracer::new(tracing),
        stats: Stats::default(),
        costs: Vec::with_capacity(ops),
    };
    for measured in 0..ops {
        let i = warm_up_ops + measured;
        pass.tracer.begin_op();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fixture.run_op(&mut pass.tracer, &mut pass.stats, i)
        }));
        pass.costs.push(pass.tracer.end_op());
        tally.record(i, outcome);
        if tracing {
            pass.tracer.begin_probes();
            fixture.probes(&mut pass.tracer, &mut pass.stats);
            pass.tracer.end_probes();
        }
    }
    pass
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let scale = Scale { smoke: args.smoke };
    let plan = plan(name, scale);
    // A traced run does the same operations twice, each on a fresh
    // fixture: spans off, then spans on.  Half the run each.
    let measured = plan.measured_ops(args.seconds, scale);
    let ops = if args.trace {
        measured.div_ceil(2 * plan.round) * plan.round
    } else {
        measured
    };
    let set_up_started = Instant::now();
    let mut setup_seconds = Vec::new();
    let mut timed_set_up = || -> Result<Box<dyn Workload>, String> {
        let start = Instant::now();
        let fixture = set_up(name, args.seed, scale, plan.warm_up + ops)
            .map_err(|e| format!("set-up failed: {e}"))?;
        setup_seconds.push(start.elapsed().as_secs_f64());
        Ok(fixture)
    };
    // Each fixture is dropped before the next is built, so the peak
    // resident set holds one of them.
    let mut fixture = timed_set_up()?;
    let mut repetitions = 1;
    while repetitions < SETUP_REPETITIONS
        || (repetitions < MAX_SETUP_REPETITIONS
            && set_up_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(fixture);
        fixture = timed_set_up()?;
        repetitions += 1;
    }

    let mut tally = Tally::default();
    println!(
        "workload {name} seed {} trace {} warm-up {} ops {ops}",
        args.seed, args.trace as u8, plan.warm_up
    );

    let metrics = if args.trace {
        let untraced = run_pass(fixture.as_mut(), false, plan.warm_up, ops, &mut tally);
        drop(fixture);
        let mut fixture = timed_set_up()?;
        let traced = run_pass(fixture.as_mut(), true, plan.warm_up, ops, &mut tally);
        print_metrics(&metrics::end_to_end(
            &untraced,
            plan.round,
            &setup_seconds,
            harness::peak_rss_mb(),
        ));
        for (span, share) in metrics::span_shares(&traced.tracer) {
            println!("share {span} {share:.4}");
        }
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/{name}.trace.jsonl");
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?,
        );
        traced
            .tracer
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{path}: {e}"))?;
        metrics::per_layer(&traced, &untraced)
    } else {
        let pass = run_pass(fixture.as_mut(), false, plan.warm_up, ops, &mut tally);
        drop(fixture);
        metrics::end_to_end(&pass, plan.round, &setup_seconds, harness::peak_rss_mb())
    };
    print_metrics(&metrics);
    println!("{}", json_line(&tally, &metrics));
    Ok(())
}

/// No `--workload`: run all four, each in a fresh process of this binary.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for name in WORKLOADS {
        let mut command = std::process::Command::new(&exe);
        command
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            command.arg("--smoke");
        }
        let status = command.status().map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.clone() {
        Some(name) => run_workload(&name, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("orchestra-hostbench: {message}");
            ExitCode::from(2)
        }
    }
}
