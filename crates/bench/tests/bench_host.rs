//! `BENCH_HOST.json`, the committed host-time trajectory, stays a list of
//! `scripts/bench_host.sh` records that cover the whole `BENCHMARK.json`
//! contract: a record that misses a workload or an end-to-end metric
//! cannot be compared with the ones before and after it.

use orchestra_bench::Json;

fn read(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `name`s of the entries of `contract[list]`.
fn names(contract: &Json, list: &str) -> Vec<String> {
    let entries = contract.get(list).and_then(Json::items);
    entries
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|entry| match entry.get("name") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("every entry is named, not {other:?}"),
        })
        .collect()
}

#[test]
fn every_record_covers_the_benchmark_contract() {
    let contract = read("BENCHMARK.json");
    let workloads = names(&contract, "workloads");
    let metrics = names(&contract, "end_to_end");
    assert_eq!((workloads.len(), metrics.len()), (4, 5));

    let trajectory = read("BENCH_HOST.json");
    let records = trajectory.items().expect("BENCH_HOST.json is an array");
    assert!(records.len() >= 2, "a parent and a change at least");
    for record in records {
        let Some(Json::Str(label)) = record.get("label") else {
            panic!("a record has a label");
        };
        assert!(!label.is_empty());
        let commit = record.get("commit");
        assert!(
            matches!(commit, Some(Json::Str(c)) if c.len() >= 7),
            "{label}: commit"
        );
        assert!(record.get("seed").and_then(Json::as_f64).is_some());
        let runs = record.get("runs").and_then(Json::as_f64);
        assert!(runs.is_some_and(|n| n >= 1.0), "{label}: runs");
        assert_eq!(record.get("smoke"), Some(&Json::Bool(false)), "{label}");
        // Records from PR 23 on carry their own yardstick (the SHA-1
        // probe's median) and restate wall-clock medians in it.
        let key_hash = record.get("key_hash_ns_p50").and_then(Json::as_f64);
        for workload in &workloads {
            let entry = record.get("workloads").and_then(|w| w.get(workload));
            let entry = entry.unwrap_or_else(|| panic!("{label}: no {workload}"));
            let failed = entry.get("failed").and_then(Json::as_f64);
            assert_eq!(failed, Some(0.0), "{label}: {workload} failed operations");
            for metric in &metrics {
                let summary = entry.get("metrics").and_then(|m| m.get(metric));
                let value = |field: &str| {
                    summary
                        .and_then(|s| s.get(field))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{label}: {workload} {metric} has no {field}"))
                };
                let (q1, median, q3) = (value("q1"), value("median"), value("q3"));
                assert!(
                    q1 <= median && median <= q3,
                    "{label}: {workload} {metric} quartiles {q1} {median} {q3}"
                );
                let nanos = match metric.as_str() {
                    "op_ms_p25" => 1e6,
                    "setup_s" => 1e9,
                    _ => continue,
                };
                if let Some(key_hash) = key_hash {
                    let restated = entry.get("in_key_hashes").and_then(|m| m.get(metric));
                    let restated = restated.and_then(Json::as_f64);
                    let restated = restated
                        .unwrap_or_else(|| panic!("{label}: {workload} {metric} in key hashes"));
                    let expected = median * nanos / key_hash;
                    assert!(
                        key_hash > 0.0 && (restated - expected).abs() <= 1e-6 * expected,
                        "{label}: {workload} {metric} is {restated} key hashes, not {expected}"
                    );
                }
            }
        }
    }
}
