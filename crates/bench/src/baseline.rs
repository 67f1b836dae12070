//! The CI baseline-regression gate.
//!
//! CI commits a `BENCH_BASELINE.json` — the bench binary's
//! `--experiment baseline` output at a known-good commit — and
//! [`check_baseline`] compares a fresh run against it: every figure the
//! [`GATES`] table names must stay within `tolerance` (CI uses 5%) of
//! the baseline.  A value moving in its *good* direction — lower
//! cost/bytes/rounds/error, higher hit rate — always passes; the gate
//! only catches regressions.  An experiment belongs to the `baseline`
//! set exactly when the table has a gate over its output, so gating one
//! more figure is one more table entry.
//!
//! Refreshing the baseline after an intentional change is one line:
//!
//! ```sh
//! cargo run --release -p orchestra-bench -- --experiment baseline > BENCH_BASELINE.json
//! ```

use crate::json::Json;

/// The direction in which a gated figure may move freely.
#[derive(Clone, Copy, Debug)]
enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// One gated figure of a row: its field name, its good direction, and an
/// absolute allowance on top of the relative tolerance (so an
/// exactly-zero baseline does not gate on floating-point dust).
type Field = (&'static str, Better, f64);

/// One family of gated rows in the bench document.
#[derive(Debug)]
pub struct Gate {
    /// The experiment whose output holds the rows.
    pub section: &'static str,
    /// Object keys from the document root down to a row; a step ending
    /// in `[]` fans out over an array.
    path: &'static [&'static str],
    /// What names a row among its siblings: `(field, label)` pairs, each
    /// field read off the innermost object on the path that has it.
    key: &'static [(&'static str, &'static str)],
    fields: &'static [Field],
}

/// Every gated figure.  All but the cache hit rate gate *upward*: a
/// costlier plan, more shipped maintenance/serving/rumor bytes, more
/// delta derivations per epoch (O(views) creep in the fan-out sharing),
/// more rounds to converge, a worse calibrated cardinality error or a
/// trigger-happy drift monitor (each recompile pays a dissemination
/// epoch) than the committed baseline is a regression.
pub static GATES: &[Gate] = &[
    Gate {
        section: "plan_quality",
        path: &["experiments[]", "plan_quality"],
        key: &[("workload", "")],
        fields: &[
            ("optimized_estimated_bytes", Lower, 0.0),
            ("hand_estimated_bytes", Lower, 0.0),
            ("optimized_bytes", Lower, 0.0),
            ("hand_bytes", Lower, 0.0),
        ],
    },
    Gate {
        section: "maintenance",
        path: &["experiments[]", "maintenance", "sweeps[]"],
        key: &[("workload", ""), ("label", "")],
        fields: &[
            ("total_incremental_bytes", Lower, 0.0),
            ("total_recompute_bytes", Lower, 0.0),
        ],
    },
    Gate {
        section: "serving",
        path: &["serving", "points[]"],
        key: &[
            ("zipf_exponent", "skew="),
            ("load_factor", "load="),
            ("cache_capacity", "cap="),
        ],
        fields: &[("total_bytes", Lower, 0.0), ("cache_hit_rate", Higher, 0.0)],
    },
    Gate {
        section: "subscriptions",
        path: &["subscriptions", "sweeps[]"],
        key: &[("label", ""), ("subscribers", "subs=")],
        fields: &[
            ("total_shared_bytes", Lower, 0.0),
            ("total_shared_derivations", Lower, 0.0),
        ],
    },
    Gate {
        section: "churn",
        path: &["churn", "convergence[]"],
        key: &[("nodes", "n=")],
        fields: &[("rounds", Lower, 0.0), ("rumor_bytes", Lower, 0.0)],
    },
    // The experiment-wide totals, which also cover the sustained
    // scenario's epochs: one row, named by its section alone.
    Gate {
        section: "churn",
        path: &["churn"],
        key: &[],
        fields: &[
            ("total_convergence_rounds", Lower, 0.0),
            ("total_rumor_bytes", Lower, 0.0),
        ],
    },
    Gate {
        section: "adaptivity",
        path: &["adaptivity", "workloads[]"],
        key: &[("workload", "")],
        fields: &[
            ("final_cardinality_error", Lower, 1e-9),
            ("recompiles", Lower, 1e-9),
        ],
    },
];

impl Gate {
    /// The gate's `(row key, row object)` pairs in `doc`; an error if the
    /// document lacks the path, a key field, or has no rows at all.
    fn rows<'a>(&self, doc: &'a Json) -> Result<Vec<(String, &'a Json)>, String> {
        let at = self.path.join(".");
        // Each trail lists the objects from the root down to one row.
        let mut trails = vec![vec![doc]];
        for step in self.path {
            let name = step.trim_end_matches("[]");
            let mut longer = Vec::new();
            for trail in trails {
                let child = trail[trail.len() - 1]
                    .get(name)
                    .ok_or_else(|| format!("no \"{name}\" on the way to {at}"))?;
                let children = match step.ends_with("[]") {
                    true => child
                        .items()
                        .ok_or_else(|| format!("\"{name}\" is not an array"))?,
                    false => std::slice::from_ref(child),
                };
                longer.extend(children.iter().map(|c| [&trail[..], &[c]].concat()));
            }
            trails = longer;
        }
        if trails.is_empty() {
            return Err(format!("no {} rows at {at}", self.section));
        }
        let keyed = |trail: Vec<&'a Json>| Ok((self.key_of(&trail)?, trail[trail.len() - 1]));
        trails.into_iter().map(keyed).collect()
    }

    fn key_of(&self, trail: &[&Json]) -> Result<String, String> {
        let part = |(field, label): &(&str, &str)| {
            let value = trail.iter().rev().find_map(|object| object.get(field));
            match value.map(|v| (v.as_str_val(), v.as_f64())) {
                Some((Some(text), _)) => Ok(format!("{label}{text}")),
                Some((_, Some(number))) => Ok(format!("{label}{number}")),
                _ => Err(format!("{} row without a scalar \"{field}\"", self.section)),
            }
        };
        let parts: Result<Vec<String>, String> = self.key.iter().map(part).collect();
        Ok(parts?.join("/"))
    }
}

/// Compare `current` against `baseline` (both in the bench binary's
/// document shape) over every gate of [`GATES`].  Returns the per-field
/// log lines on success, or the list of violations — each naming
/// section, row and field — if any gated figure regressed beyond
/// `tolerance` (a fraction: 0.05 allows 5%), a baseline row or field is
/// missing from the current run, or either document is malformed.
pub fn check_baseline(
    current: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut passed = Vec::new();
    let mut violations = Vec::new();
    let percent = tolerance * 100.0;
    for gate in GATES {
        let rows = |doc, side| gate.rows(doc).map_err(|e| format!("{side} document: {e}"));
        let (base_rows, cur_rows) = match (rows(baseline, "baseline"), rows(current, "current")) {
            (Ok(base), Ok(cur)) => (base, cur),
            (Err(malformed), _) | (_, Err(malformed)) => {
                violations.push(malformed);
                continue;
            }
        };
        for (key, base_row) in &base_rows {
            let row = format!("{} {key}", gate.section);
            let row = row.trim_end();
            let Some((_, cur_row)) = cur_rows.iter().find(|(k, _)| k == key) else {
                violations.push(format!("{row}: in the baseline, not in the current run"));
                continue;
            };
            for &(name, better, slack) in gate.fields {
                let figure = |row: &Json| row.get(name).and_then(Json::as_f64);
                let (Some(base), Some(cur)) = (figure(base_row), figure(cur_row)) else {
                    violations.push(format!("{row}: field {name} missing"));
                    continue;
                };
                let regressed = match better {
                    Lower => cur > base * (1.0 + tolerance) + slack,
                    Higher => cur < base * (1.0 - tolerance) - slack,
                };
                if regressed {
                    let moved = (cur / base - 1.0) * 100.0;
                    violations.push(format!(
                        "{row}: {name} regressed {cur} vs {base} ({moved:+.1}% exceeds the \
                         {percent:.0}% tolerance)"
                    ));
                } else {
                    passed.push(format!("{row}: {name} {cur} within {base} ±{percent:.0}%"));
                }
            }
        }
    }
    if violations.is_empty() {
        Ok(passed)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal document with one row per gate (every gated field name
    /// is unique across it).
    const DOC: &str = r#"{
        "experiments": [{
            "workload": "tpch-q3",
            "plan_quality": {"optimized_estimated_bytes": 1000, "hand_estimated_bytes": 2000,
                             "optimized_bytes": 1000, "hand_bytes": 3000},
            "maintenance": {"sweeps": [{"label": "small-delta",
                "total_incremental_bytes": 1000, "total_recompute_bytes": 9000}]}
        }],
        "serving": {"points": [{"zipf_exponent": 1.2, "load_factor": 2.0, "cache_capacity": 5,
                                "total_bytes": 10000, "cache_hit_rate": 0.8}]},
        "subscriptions": {"sweeps": [{"label": "small-delta", "subscribers": 64,
            "total_shared_bytes": 10000, "total_shared_derivations": 5}]},
        "churn": {"convergence": [{"nodes": 100, "rounds": 10, "rumor_bytes": 40000}],
                  "total_convergence_rounds": 30, "total_rumor_bytes": 100000},
        "adaptivity": {"workloads": [{"workload": "tpch-q3",
            "final_cardinality_error": 0.5, "recompiles": 1}]}
    }"#;

    /// `json` with every object member called `key` replaced by `value`,
    /// or dropped when there is none.
    fn edit(json: Json, key: &str, value: &Option<Json>) -> Json {
        match json {
            Json::Object(pairs) => Json::Object(
                pairs
                    .into_iter()
                    .filter(|(k, _)| k != key || value.is_some())
                    .map(|(k, v)| match value {
                        Some(value) if k == key => (k, value.clone()),
                        _ => (k, edit(v, key, value)),
                    })
                    .collect(),
            ),
            Json::Array(items) => {
                Json::Array(items.into_iter().map(|v| edit(v, key, value)).collect())
            }
            other => other,
        }
    }

    /// [`DOC`] with the named figures overridden.
    fn doc(set: &[(&str, f64)]) -> Json {
        let set_one = |json, (key, v): &(&str, f64)| edit(json, key, &Some(Json::Float(*v)));
        set.iter().fold(Json::parse(DOC).unwrap(), set_one)
    }

    /// [`DOC`] without the member (section, row array or field) `key`.
    fn without(key: &str) -> Json {
        edit(doc(&[]), key, &None)
    }

    const FIGURES: usize = 16;

    #[test]
    fn moves_within_tolerance_or_in_the_good_direction_pass() {
        let baseline = doc(&[]);
        for current in [
            vec![],
            // +4.9% on a cost, −3.75% on the hit rate.
            vec![("optimized_bytes", 1049.0), ("cache_hit_rate", 0.77)],
            vec![("total_rumor_bytes", 104_000.0)],
            vec![("final_cardinality_error", 0.52)],
            // Improvements of any size.
            vec![("optimized_bytes", 10.0), ("total_bytes", 5_000.0)],
            vec![("cache_hit_rate", 0.95), ("total_shared_derivations", 1.0)],
            vec![("rounds", 8.0), ("recompiles", 0.0)],
        ] {
            let passed = check_baseline(&doc(&current), &baseline, 0.05)
                .unwrap_or_else(|v| panic!("{current:?}: {v:?}"));
            assert_eq!(passed.len(), FIGURES, "{current:?}");
        }
    }

    #[test]
    fn each_regression_is_one_violation_naming_section_row_and_field() {
        let baseline = doc(&[]);
        let (serving, subs) = (
            "serving skew=1.2/load=2/cap=5:",
            "subscriptions small-delta/subs=64:",
        );
        for (field, value, row) in [
            ("optimized_bytes", 1051.0, "plan_quality tpch-q3:"),
            (
                "total_incremental_bytes",
                1100.0,
                "maintenance tpch-q3/small-delta:",
            ),
            ("total_bytes", 11_000.0, serving),
            // Inverted direction: a *falling* hit rate regresses.
            ("cache_hit_rate", 0.70, serving),
            ("total_shared_bytes", 11_000.0, subs),
            ("total_shared_derivations", 7.0, subs),
            ("rounds", 11.0, "churn n=100:"),
            ("total_rumor_bytes", 111_000.0, "churn:"),
            ("final_cardinality_error", 0.60, "adaptivity tpch-q3:"),
            ("recompiles", 2.0, "adaptivity tpch-q3:"),
        ] {
            let violations = check_baseline(&doc(&[(field, value)]), &baseline, 0.05).unwrap_err();
            assert_eq!(violations.len(), 1, "{violations:?}");
            let expected = format!("{row} {field} regressed");
            assert!(violations[0].starts_with(&expected), "{violations:?}");
        }
    }

    #[test]
    fn zero_baselines_gate_on_real_rises_only() {
        // The slack absorbs floating-point dust on a zero baseline error…
        let zero = doc(&[("final_cardinality_error", 0.0)]);
        assert!(check_baseline(&zero, &zero, 0.05).is_ok());
        let dust = doc(&[("final_cardinality_error", 1e-12)]);
        assert!(check_baseline(&dust, &zero, 0.05).is_ok());
        let risen = doc(&[("final_cardinality_error", 0.01)]);
        assert!(check_baseline(&risen, &zero, 0.05).is_err());
        // …and fields without slack treat any rise from zero as one.
        let none = doc(&[("total_shared_derivations", 0.0)]);
        assert!(check_baseline(&none, &none, 0.05).is_ok());
        assert!(check_baseline(&doc(&[]), &none, 0.05).is_err());
    }

    #[test]
    fn malformed_documents_fail() {
        let baseline = doc(&[]);
        // A document without a gated section or a key field, or with an
        // empty row array, is malformed — whichever side it is.
        let bare = GATES.iter().map(|gate| without(gate.section));
        let empty = edit(doc(&[]), "points", &Some(Json::Array(vec![])));
        let first =
            |cur: &Json, base: &Json| check_baseline(cur, base, 0.05).unwrap_err().remove(0);
        for broken in bare.chain([without("label"), empty]) {
            assert!(first(&broken, &baseline).starts_with("current document:"));
            assert!(first(&baseline, &broken).starts_with("baseline document:"));
        }
    }

    #[test]
    fn missing_rows_and_fields_fail() {
        // A baseline row the current run no longer produces…
        let baseline = doc(&[]);
        let renamed = edit(doc(&[]), "subscribers", &Some(Json::UInt(8)));
        let violations = check_baseline(&renamed, &baseline, 0.05).unwrap_err();
        let expected = "subscriptions small-delta/subs=64: in the baseline, not in the current run";
        assert_eq!(violations, [expected]);
        // …and a gated field the current row lost.
        let violations = check_baseline(&without("hand_bytes"), &baseline, 0.05).unwrap_err();
        let expected = "plan_quality tpch-q3: field hand_bytes missing";
        assert_eq!(violations, [expected]);
    }

    #[test]
    fn the_committed_baseline_matches_the_gate_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        // Every gate resolves to rows in the committed document, so table
        // and document cannot drift apart silently…
        for gate in GATES {
            assert!(!gate.rows(&committed).unwrap().is_empty(), "{gate:?}");
        }
        // …and the document passes the gate against itself.
        let passed = check_baseline(&committed, &committed, 0.05).unwrap();
        assert!(passed.len() > FIGURES);
    }
}
