//! Runs every workload at smoke size, traced and untraced, and checks
//! what the benchmark promises: every metric named in `BENCHMARK.json`
//! printed exactly once with its unit, no failed operation, and a
//! well-formed trace.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "adhoc_read",
    "publish_write",
    "epoch_serving",
    "churn_failover",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root")
        .to_path_buf()
}

/// The value of `"key": "…"` at or after `from`, and where it ends.
fn string_field(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let marker = format!("\"{key}\": \"");
    let start = text[from..].find(&marker)? + from + marker.len();
    let end = text[start..].find('"')? + start;
    Some((text[start..end].to_string(), end))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{section}\": [")).unwrap();
    let body = &text[start..start + text[start..].find(']').unwrap()];
    let mut metrics = BTreeMap::new();
    let mut at = 0;
    while let Some((name, after_name)) = string_field(body, "name", at) {
        let (unit, after_unit) = string_field(body, "unit", after_name).unwrap();
        assert!(
            metrics.insert(name, unit).is_none(),
            "{section} repeats a name"
        );
        at = after_unit;
    }
    metrics
}

struct Run {
    /// `name -> unit` of the `metric` lines, which must not repeat.
    printed: BTreeMap<String, String>,
    /// The last line of standard output.
    json: String,
}

fn run(workload: &str, trace: &str) -> Run {
    // From the repository root, as the driver runs it: the trace lands in
    // `benchmark/out/`.
    let output = Command::new(env!("CARGO_BIN_EXE_orchestra-hostbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut printed = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 5, "malformed metric line: {line}");
        assert!(fields[2].parse::<f64>().unwrap().is_finite(), "{line}");
        assert!(fields[4].starts_with("n="), "no sample count: {line}");
        let repeated = printed.insert(fields[1].to_string(), fields[3].to_string());
        assert!(
            repeated.is_none(),
            "{workload}: {} printed twice",
            fields[1]
        );
    }
    Run {
        printed,
        json: stdout.lines().last().unwrap().to_string(),
    }
}

/// `name -> unit` of the metrics in the final JSON line.
fn json_metrics(json: &str) -> BTreeMap<String, String> {
    let body = &json[json.find("\"metrics\": {").unwrap()..];
    let mut metrics = BTreeMap::new();
    let mut at = 0;
    while let Some(found) = body[at..].find("\": {\"value\": ") {
        let name_end = at + found;
        let name_start = body[..name_end].rfind('"').unwrap() + 1;
        let (unit, after_unit) = string_field(body, "unit", name_end).unwrap();
        metrics.insert(body[name_start..name_end].to_string(), unit);
        at = after_unit;
    }
    metrics
}

fn assert_no_failures(workload: &str, json: &str) {
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": ") && json.contains("\"failed\": 0,"),
        "{workload}: operations failed at smoke size: {json}"
    );
}

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<usize>,
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker).unwrap() + marker.len();
    let end = line[start..].find([',', '}']).unwrap() + start;
    match &line[start..end] {
        "null" => None,
        digits => Some(digits.parse().unwrap()),
    }
}

fn read_trace(workload: &str) -> Vec<Span> {
    let path = repo_root().join(format!("benchmark/out/{workload}.trace.jsonl"));
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .enumerate()
        .map(|(id, line)| {
            assert_eq!(number_field(line, "id"), Some(id as u64));
            number_field(line, "alloc_bytes").expect("every span counts its allocations");
            let name_start = line.find("\"name\":\"").unwrap() + 8;
            Span {
                name: line[name_start..name_start + line[name_start..].find('"').unwrap()].into(),
                start_ns: number_field(line, "start_ns").unwrap(),
                end_ns: number_field(line, "end_ns").unwrap(),
                parent: number_field(line, "parent").map(|p| p as usize),
                op: number_field(line, "op").map(|o| o as usize),
            }
        })
        .collect()
}

fn assert_well_formed(workload: &str, spans: &[Span]) {
    let mut covered = vec![0u64; spans.len()];
    let mut ops = 0;
    for (id, span) in spans.iter().enumerate() {
        assert!(
            span.start_ns <= span.end_ns,
            "{workload}: span {id} ends early"
        );
        match span.parent {
            None => {
                // Roots: an operation with its own id, or a probe round.
                match span.name.as_str() {
                    "harness.op" => {
                        assert_eq!(span.op, Some(ops), "{workload}: op ids must count up");
                        ops += 1;
                    }
                    "harness.probes" => assert_eq!(span.op, None),
                    other => panic!("{workload}: {other} has no parent"),
                }
            }
            Some(parent) => {
                assert!(parent < id, "{workload}: span {id} precedes its parent");
                let root = &spans[parent];
                assert!(
                    root.parent.is_none(),
                    "{workload}: spans nest one level deep"
                );
                assert!(
                    root.start_ns <= span.start_ns && span.end_ns <= root.end_ns,
                    "{workload}: {} [{}..{}] leaves its parent [{}..{}]",
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    root.start_ns,
                    root.end_ns
                );
                assert_eq!(span.op, root.op, "{workload}: {} not in its op", span.name);
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
    }
    assert!(ops > 0, "{workload}: the trace holds no operation");
    for (span, covered) in spans.iter().zip(covered) {
        assert!(
            covered <= span.end_ns - span.start_ns,
            "{workload}: the children of a {} outlast it (negative self time)",
            span.name
        );
    }
}

#[test]
fn every_workload_reports_every_metric_once_and_traces_cleanly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    let mut both = end_to_end.clone();
    both.extend(per_layer.clone());

    for workload in WORKLOADS {
        // Untraced: the end-to-end metrics and nothing else; no probe
        // runs, so no per-layer line can appear.
        let untraced = run(workload, "0");
        assert_eq!(untraced.printed, end_to_end, "{workload} untraced");
        assert_eq!(
            json_metrics(&untraced.json),
            end_to_end,
            "{workload} untraced"
        );
        assert_no_failures(workload, &untraced.json);

        // Traced: every metric of both lists, per-layer ones in the JSON.
        let traced = run(workload, "1");
        assert_eq!(traced.printed, both, "{workload} traced");
        assert_eq!(json_metrics(&traced.json), per_layer, "{workload} traced");
        assert_no_failures(workload, &traced.json);

        let spans = read_trace(workload);
        assert_well_formed(workload, &spans);
        // Probes sit in probe rounds, never inside an operation.
        let probe_roots = spans.iter().filter(|s| s.name == "harness.probes").count();
        let operations = spans.iter().filter(|s| s.name == "harness.op").count();
        assert_eq!(
            probe_roots, operations,
            "{workload}: one probe round per operation"
        );
    }
}
