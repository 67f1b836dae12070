//! The `orchestra-bench` binary: run the experiments — scale-out,
//! recovery sweep, tagging overhead, plan quality, the publication /
//! incremental-maintenance sweep and the concurrent throughput sweep —
//! over two TPC-H queries and one STBenchmark scenario (the throughput
//! sweep mixes all five catalogue workloads), and print the results as
//! one JSON document on stdout.  All queries execute through the
//! System-R optimizer.
//!
//! ```sh
//! cargo run --release -p orchestra-bench                      # everything
//! cargo run --release -p orchestra-bench -- --experiment maintenance
//! cargo run --release -p orchestra-bench > BENCH_BASELINE.json # refresh the pin
//! ```
//!
//! `--experiment <name>` restricts the run to one experiment — the fast
//! subsets CI's smoke and determinism gates use.  An unknown name lists
//! the valid set and exits non-zero; `--list-experiments` prints the
//! valid set (one name per line) and exits zero, the machine-readable
//! form CI's loops iterate.  All of it derives from one table,
//! [`EXPERIMENTS`]: `all` (the default) runs every entry.  `--heavy`
//! adds the slow scale points (a thousands-of-sessions serving run, a
//! 256-subscriber fan-out sweep, a 1000-node sustained-churn stream and
//! a long adaptive-calibration stream).
//!
//! Every figure printed is simulated, so the output is byte-for-byte
//! deterministic — CI compares two runs of everything, and the no-flag
//! run `cmp`s equal to the committed `BENCH_BASELINE.json`; a change
//! that moves a figure on purpose refreshes that file in the same PR.
//! Host time is measured in exactly one place, the `benchmark/` package.
//!
//! Exit status is non-zero (with a message on stderr) if any experiment
//! fails — including any distributed or *maintained* answer that
//! disagrees with its workload's single-node reference.

use orchestra_bench::{
    run_adaptivity, run_churn, run_maintenance, run_plan_quality, run_recovery_sweep,
    run_scale_out, run_serving_experiment, run_subscriptions, run_tagging_overhead, run_throughput,
    AdaptivitySpec, ChurnBenchSpec, Json, MaintenanceSweepSpec, ServingSpec, SubscriptionsSpec,
};
use orchestra_common::{NodeId, Result};
use orchestra_engine::{AdmissionPolicy, EngineConfig, EvictionPolicy};
use orchestra_optimizer::DriftConfig;
use orchestra_workloads::{CopyScenario, EpochSpec, TpchQuery, TpchWorkload, Workload};

/// Seed of the three-query catalogue the per-workload experiments run.
const CATALOGUE_SEED: u64 = 42;
/// Rows per workload in the ad-hoc per-workload experiments.
const CATALOGUE_ROWS: usize = 240;
/// Cluster sizes of the scale-out experiment.
const SCALE_OUT_NODES: [u16; 3] = [4, 6, 8];
/// Cluster size of the recovery sweep and tagging-overhead runs.
const SWEEP_NODES: u16 = 6;
/// The node killed in every recovery-sweep failure run.
const SWEEP_VICTIM: NodeId = NodeId(5);
/// Failure instants per recovery sweep.
const SWEEP_POINTS: usize = 3;
/// Cluster size of the throughput sweep.
const THROUGHPUT_NODES: u16 = 8;
/// Concurrency levels of the throughput sweep.
const THROUGHPUT_LEVELS: [usize; 4] = [1, 2, 4, 8];
/// Seed of the throughput stream's data and arrival order.
const THROUGHPUT_SEED: u64 = 42;
/// Rows per workload in the throughput stream.
const THROUGHPUT_ROWS: usize = 160;
/// Copies of the five-workload mix in the stream.
const THROUGHPUT_COPIES: usize = 2;
/// Cluster size of the serving experiment.
const SERVING_NODES: u16 = 6;
/// Seed of the serving experiment's data, identities and arrivals.
const SERVING_SEED: u64 = 42;
/// Rows per workload in the serving experiment.
const SERVING_ROWS: usize = 120;
/// Requests per serving sweep point.
const SERVING_REQUESTS: usize = 40;
/// Offered-load sweep of the serving experiment: below saturation, and
/// far enough past it that the uncached control sheds arrivals.
const SERVING_LOADS: [f64; 2] = [0.35, 2.0];
/// Zipf popularity exponents of the serving experiment: one mild skew
/// and one past the ≥ 1.0 acceptance threshold.
const SERVING_SKEWS: [f64; 2] = [0.8, 1.2];
/// Result-cache capacities of the serving experiment: the cache-off
/// control, a cache smaller than the distinct-query universe (so
/// eviction churns), and one large enough to hold everything.
const SERVING_CAPACITIES: [usize; 3] = [0, 2, 6];
/// Seed of the maintenance experiment's epoch streams.
const MAINTENANCE_SEED: u64 = 42;
/// Rows per workload in the maintenance experiment.  Larger than the
/// other experiments' datasets so per-refresh fixed costs (snapshot +
/// epoch parameters per leg) don't drown the delta-vs-full contrast the
/// sweep measures.
const MAINTENANCE_ROWS: usize = 600;
/// Requests of the extra thousands-of-sessions serving point that
/// `--heavy` adds (the ROADMAP's serving follow-on; far too slow for
/// the default CI gates).
const SERVING_HEAVY_REQUESTS: usize = 2048;
/// Seed of the subscriptions experiment's data and churn streams.
const SUBSCRIPTIONS_SEED: u64 = 42;
/// Rows per catalogue workload in the subscriptions experiment.
const SUBSCRIPTIONS_ROWS: usize = 120;
/// Cluster size of the subscriptions experiment.
const SUBSCRIPTIONS_NODES: u16 = 6;
/// Registered-view counts of the subscriptions sweep.  64 is where the
/// run starts *enforcing* that shared maintenance ships strictly fewer
/// bytes than the per-view-independent control.
const SUBSCRIBER_COUNTS: [usize; 3] = [1, 8, 64];
/// The additional fan-out point `--heavy` adds (hundreds of views ×
/// per-view independent control is too slow for the default gates).
const HEAVY_SUBSCRIBER_COUNTS: [usize; 4] = [1, 8, 64, 256];
/// Cluster size of the sustained gossip-only churn stream `--heavy`
/// adds (the nightly's 1000-node point).
const CHURN_HEAVY_NODES: usize = 1000;
/// The subscriptions experiment's churn points: a small-delta stream,
/// and one that rewrites most of the churned relation per epoch.
const SUBSCRIPTION_SWEEPS: [MaintenanceSweepSpec; 2] = [
    MaintenanceSweepSpec {
        label: "small-delta",
        spec: EpochSpec {
            inserts: 2,
            modifies: 1,
            deletes: 1,
        },
        epochs: 3,
    },
    MaintenanceSweepSpec {
        label: "heavy-churn",
        spec: EpochSpec {
            inserts: 0,
            modifies: 80,
            deletes: 0,
        },
        epochs: 2,
    },
];
/// Seed of the adaptivity experiment's data and churn streams.
const ADAPTIVITY_SEED: u64 = 42;
/// Rows per workload in the adaptivity experiment.  The maintenance
/// scale, not the 240-row ad-hoc scale: the answers must be non-trivial
/// (a near-empty group-by makes every cardinality figure degenerate)
/// and per-refresh fixed costs must not drown the crossover contrast.
const ADAPTIVITY_ROWS: usize = 600;
/// Cluster size of the adaptivity experiment.
const ADAPTIVITY_NODES: u16 = 6;
/// Calibration epochs of the adaptivity feedback stream — enough for
/// the ad-hoc channel to cross its broadcast-calibration sample floor.
const ADAPTIVITY_FEEDBACK_EPOCHS: usize = 4;
/// Per-epoch churn of the calibration stream: small and mixed, so the
/// enriched statistics track gentle drift without moving the baseline.
const ADAPTIVITY_FEEDBACK_CHURN: EpochSpec = EpochSpec {
    inserts: 3,
    modifies: 2,
    deletes: 2,
};
/// Per-epoch growth of the drift stream: 1.5× the base rows per epoch,
/// enough to cross the drift monitor's log2 threshold within its
/// patience window.
const ADAPTIVITY_DRIFT_CHURN: EpochSpec = EpochSpec {
    inserts: 900,
    modifies: 0,
    deletes: 0,
};
/// Epochs of the drift stream: fire, pay dissemination, then hold two
/// steady-state epochs where recompiled legs must not cost more.
const ADAPTIVITY_DRIFT_EPOCHS: usize = 5;
/// Signed-delta fractions of the crossover sweep: 0.1% … 200% of the
/// base rows, spanning clearly-incremental to clearly-recompute.
/// Swept from the large end *down*: big-delta epochs are dominated by
/// real data movement, so the byte channels calibrate on clean signal
/// before reaching the overhead-dominated tail where per-leg framing
/// swamps the few delta rows.
const ADAPTIVITY_FRACTIONS: [f64; 6] = [2.0, 1.0, 0.5, 0.1, 0.01, 0.001];
/// Maintained epochs per crossover fraction.
const ADAPTIVITY_CROSSOVER_EPOCHS: usize = 1;
/// Calibration epochs of the long stream `--heavy` adds (the nightly's
/// does-the-error-keep-shrinking point; too slow for the default gates).
const ADAPTIVITY_HEAVY_EPOCHS: usize = 32;
/// The maintenance experiment's delta-size × epoch-count sweep: a
/// small-delta stream the cost model should absorb incrementally, and a
/// churn stream (the modify count swamps every relation) it should flip
/// to recomputation on.
const MAINTENANCE_SWEEPS: [MaintenanceSweepSpec; 2] = [
    MaintenanceSweepSpec {
        label: "small-delta",
        spec: EpochSpec {
            inserts: 2,
            modifies: 1,
            deletes: 1,
        },
        epochs: 5,
    },
    MaintenanceSweepSpec {
        label: "heavy-churn",
        spec: EpochSpec {
            inserts: 0,
            modifies: 400,
            deletes: 0,
        },
        epochs: 2,
    },
];

/// The three queries the per-workload experiments run, at `rows` rows.
fn catalogue(seed: u64, rows: usize) -> [Box<dyn Workload>; 3] {
    [
        Box::new(TpchWorkload::scaled(TpchQuery::Q1, seed, rows)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q3, seed, rows)),
        Box::new(CopyScenario { seed, rows }),
    ]
}

/// The document fields an experiment contributes.
type Fields = Vec<(&'static str, Json)>;

/// How an experiment runs, which fixes where its output lands.
enum Run {
    /// Once per catalogue workload, over datasets of the given row
    /// count; the result nests under `experiments[i].<name>`.
    PerWorkload(usize, fn(&dyn Workload, &EngineConfig) -> Result<Json>),
    /// Once, appending its own top-level section(s); the flag is
    /// `--heavy`.
    Cluster(fn(bool, &EngineConfig, &mut Fields) -> Result<()>),
}

/// One selectable experiment.
struct Experiment {
    name: &'static str,
    run: Run,
}

/// Every experiment, in output order.  `--list-experiments` and `all`
/// derive from this table, and `BENCH_BASELINE.json` holds a section for
/// each entry.
static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "scale_out",
        run: Run::PerWorkload(CATALOGUE_ROWS, |workload, config| {
            let points = run_scale_out(workload, &SCALE_OUT_NODES, config)?;
            Ok(Json::Array(points.iter().map(|p| p.to_json()).collect()))
        }),
    },
    Experiment {
        name: "recovery_sweep",
        run: Run::PerWorkload(CATALOGUE_ROWS, |workload, config| {
            run_recovery_sweep(workload, SWEEP_NODES, SWEEP_VICTIM, SWEEP_POINTS, config)
                .map(|sweep| sweep.to_json())
        }),
    },
    Experiment {
        name: "tagging_overhead",
        run: Run::PerWorkload(CATALOGUE_ROWS, |workload, config| {
            run_tagging_overhead(workload, SWEEP_NODES, config).map(|t| t.to_json())
        }),
    },
    Experiment {
        name: "plan_quality",
        run: Run::PerWorkload(CATALOGUE_ROWS, |workload, config| {
            run_plan_quality(workload, SWEEP_NODES, config).map(|q| q.to_json())
        }),
    },
    Experiment {
        name: "maintenance",
        run: Run::PerWorkload(MAINTENANCE_ROWS, |workload, config| {
            let sweeps = &MAINTENANCE_SWEEPS;
            run_maintenance(workload, SWEEP_NODES, MAINTENANCE_SEED, sweeps, config)
                .map(|m| m.to_json())
        }),
    },
    Experiment {
        name: "throughput",
        run: Run::Cluster(throughput),
    },
    Experiment {
        name: "serving",
        run: Run::Cluster(serving),
    },
    Experiment {
        name: "churn",
        run: Run::Cluster(|heavy, _, doc| {
            let report = run_churn(&ChurnBenchSpec {
                // The nightly's 1000-node sustained stream; the convergence
                // points at 100 and 1000 run (and are enforced) everywhere.
                heavy_nodes: if heavy { CHURN_HEAVY_NODES } else { 0 },
                ..ChurnBenchSpec::default()
            })?;
            doc.push(("churn", report.to_json()));
            Ok(())
        }),
    },
    Experiment {
        name: "adaptivity",
        run: Run::Cluster(adaptivity),
    },
    Experiment {
        name: "subscriptions",
        run: Run::Cluster(|heavy, config, doc| {
            let counts: &[usize] = if heavy {
                &HEAVY_SUBSCRIBER_COUNTS
            } else {
                &SUBSCRIBER_COUNTS
            };
            let report = run_subscriptions(
                &SubscriptionsSpec {
                    seed: SUBSCRIPTIONS_SEED,
                    rows: SUBSCRIPTIONS_ROWS,
                    nodes: SUBSCRIPTIONS_NODES,
                    subscriber_counts: counts,
                    sweeps: &SUBSCRIPTION_SWEEPS,
                },
                config,
            )?;
            doc.push(("subscriptions", report.to_json()));
            Ok(())
        }),
    },
];

fn throughput(_heavy: bool, config: &EngineConfig, doc: &mut Fields) -> Result<()> {
    let mut policies = Vec::new();
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::ShortestCostFirst] {
        let sweep = run_throughput(
            THROUGHPUT_SEED,
            THROUGHPUT_ROWS,
            THROUGHPUT_COPIES,
            THROUGHPUT_NODES,
            &THROUGHPUT_LEVELS,
            policy,
            config,
        )?;
        policies.push(sweep.to_json());
    }
    doc.push((
        "throughput",
        Json::object(vec![
            ("nodes", Json::UInt(THROUGHPUT_NODES as u64)),
            (
                "levels",
                Json::Array(
                    THROUGHPUT_LEVELS
                        .iter()
                        .map(|l| Json::UInt(*l as u64))
                        .collect(),
                ),
            ),
            ("policies", Json::Array(policies)),
        ]),
    ));
    Ok(())
}

fn serving(heavy: bool, config: &EngineConfig, doc: &mut Fields) -> Result<()> {
    let spec = ServingSpec {
        seed: SERVING_SEED,
        rows: SERVING_ROWS,
        nodes: SERVING_NODES,
        requests: SERVING_REQUESTS,
        load_factors: &SERVING_LOADS,
        zipf_exponents: &SERVING_SKEWS,
        cache_capacities: &SERVING_CAPACITIES,
        eviction: EvictionPolicy::Lru,
    };
    doc.push(("serving", run_serving_experiment(&spec, config)?.to_json()));
    // The ROADMAP's serving follow-on, behind `--heavy` so the default
    // gates stay fast: one thousands-of-sessions point at the skewed,
    // overloaded corner where the result cache matters most.
    if heavy {
        let heavy_spec = ServingSpec {
            requests: SERVING_HEAVY_REQUESTS,
            load_factors: &[2.0],
            zipf_exponents: &[1.2],
            cache_capacities: &[0, 6],
            ..spec
        };
        let sweep = run_serving_experiment(&heavy_spec, config)?;
        doc.push(("serving_heavy", sweep.to_json()));
    }
    Ok(())
}

fn adaptivity(heavy: bool, config: &EngineConfig, doc: &mut Fields) -> Result<()> {
    // The same trio at the adaptivity experiment's own scale.
    let workloads = catalogue(ADAPTIVITY_SEED, ADAPTIVITY_ROWS);
    let workloads: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let report = run_adaptivity(
        &workloads,
        &AdaptivitySpec {
            seed: ADAPTIVITY_SEED,
            rows: ADAPTIVITY_ROWS,
            nodes: ADAPTIVITY_NODES,
            feedback_epochs: ADAPTIVITY_FEEDBACK_EPOCHS,
            feedback_churn: ADAPTIVITY_FEEDBACK_CHURN,
            drift: DriftConfig::default(),
            drift_churn: ADAPTIVITY_DRIFT_CHURN,
            drift_epochs: ADAPTIVITY_DRIFT_EPOCHS,
            delta_fractions: &ADAPTIVITY_FRACTIONS,
            crossover_epochs: ADAPTIVITY_CROSSOVER_EPOCHS,
            // The long calibration stream is nightly-only.
            heavy_epochs: if heavy { ADAPTIVITY_HEAVY_EPOCHS } else { 0 },
        },
        config,
    )?;
    doc.push(("adaptivity", report.to_json()));
    Ok(())
}

/// The names `--experiment` accepts and `--list-experiments` prints:
/// `all`, then every table entry in order.
fn selections() -> Vec<&'static str> {
    let mut names = vec!["all"];
    names.extend(EXPERIMENTS.iter().map(|e| e.name));
    names
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run { selection, heavy }) => match run(&selection, heavy) {
            Ok(doc) => println!("{doc}"),
            Err(e) => {
                eprintln!("orchestra-bench failed: {e}");
                std::process::exit(1);
            }
        },
        Ok(Mode::ListExperiments) => {
            for name in selections() {
                println!("{name}");
            }
        }
        Err(message) => {
            eprintln!("{message}");
            eprintln!("valid experiments: {}", selections().join(", "));
            eprintln!(
                "usage: orchestra-bench [--experiment <name>] [--list-experiments] [--heavy]"
            );
            std::process::exit(2);
        }
    }
}

#[derive(Debug, PartialEq)]
enum Mode {
    Run {
        selection: String,
        /// Add the slow scale points.
        heavy: bool,
    },
    /// Print the selectable experiment names, one per line — the
    /// machine-readable list CI's loops iterate instead of hard-coding
    /// names that drift.
    ListExperiments,
}

/// Parse the command line; an `Err` is a usage error (exit 2).
fn parse_args(args: &[String]) -> std::result::Result<Mode, String> {
    let mut selection = "all".to_string();
    let mut heavy = false;
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" => {
                let name = args
                    .get(i + 1)
                    .ok_or_else(|| "--experiment requires a name".to_string())?;
                if !selections().contains(&name.as_str()) {
                    return Err(format!("unknown experiment \"{name}\""));
                }
                selection = name.clone();
                i += 2;
            }
            "--heavy" => {
                heavy = true;
                i += 1;
            }
            "--list-experiments" => {
                list = true;
                i += 1;
            }
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    if list {
        return Ok(Mode::ListExperiments);
    }
    Ok(Mode::Run { selection, heavy })
}

fn run(selection: &str, heavy: bool) -> Result<Json> {
    let config = EngineConfig::default();
    let selected = || {
        EXPERIMENTS
            .iter()
            .filter(|e| selection == "all" || selection == e.name)
    };
    let mut doc = vec![
        ("benchmark", Json::str("orchestra")),
        ("experiment", Json::str(selection)),
    ];

    let per_workload: Vec<_> = selected()
        .filter_map(|e| match e.run {
            Run::PerWorkload(rows, f) => Some((e.name, catalogue(CATALOGUE_SEED, rows), f)),
            Run::Cluster(_) => None,
        })
        .collect();
    if let Some((_, first, _)) = per_workload.first() {
        let mut experiments = Vec::new();
        for i in 0..first.len() {
            let mut entry = vec![("workload", Json::str(first[i].name()))];
            for (name, workloads, f) in &per_workload {
                entry.push((*name, f(workloads[i].as_ref(), &config)?));
            }
            experiments.push(Json::object(entry));
        }
        doc.push(("experiments", Json::Array(experiments)));
    }
    for experiment in selected() {
        if let Run::Cluster(f) = experiment.run {
            f(heavy, &config, &mut doc)?;
        }
    }
    Ok(Json::object(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn list_experiments_prints_the_table_in_order() {
        assert_eq!(
            parse_args(&args(&["--list-experiments"])),
            Ok(Mode::ListExperiments)
        );
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let listed = selections();
        assert_eq!(listed.first(), Some(&"all"));
        assert_eq!(listed.last(), table.last());
        assert_eq!(listed[1..], table[..]);
        // Every listed name parses; the three flags compose.
        for name in listed {
            assert_eq!(
                parse_args(&args(&["--heavy", "--experiment", name])),
                Ok(Mode::Run {
                    selection: name.to_string(),
                    heavy: true
                })
            );
        }
        assert_eq!(
            parse_args(&args(&["--heavy", "--list-experiments"])),
            Ok(Mode::ListExperiments)
        );
    }

    #[test]
    fn unknown_flags_and_experiments_are_usage_errors() {
        for bad in [
            &["--no-such-flag"][..],
            &["--experiment", "no_such_experiment"],
            &["--experiment"],
            // `baseline` names the committed file, not a selection: every
            // name but `all` is a table entry.
            &["--experiment", "baseline"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_committed_document_holds_every_experiment() {
        // `BENCH_BASELINE.json` is the whole no-flag run: one section per
        // table entry, at the top level or per workload inside
        // `experiments`.  An experiment added to the table without
        // refreshing the file fails here, not only CI's `cmp`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed.get("experiment"), Some(&Json::str("all")));
        let entry = &committed.get("experiments").unwrap().items().unwrap()[0];
        for experiment in &EXPERIMENTS {
            let section = match experiment.run {
                Run::PerWorkload(..) => entry.get(experiment.name),
                Run::Cluster(_) => committed.get(experiment.name),
            };
            assert!(section.is_some(), "{}", experiment.name);
        }
    }
}
