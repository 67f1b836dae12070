#!/usr/bin/env bash
# Builds the benchmark, runs the full set twice on this commit (untraced
# and traced), prints both result sets side by side, and exits non-zero if
#   - any end-to-end metric differs between the sets by more than its bound,
#   - any deterministic figure differs at all, or
#   - a second seed (7) fails to verify its answers.
# Takes about ten minutes.  Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."
workloads=(adhoc_read publish_write epoch_serving churn_failover)
out=benchmark/out/selfcheck
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/orchestra-hostbench"

# Per run, everything it printed and, apart, its last line: the result.
run() { # <file> <workload> <seed> <trace>
    "$bin" --workload "$2" --seed "$3" --trace "$4" >"$out/$1.txt"
    tail -n 1 "$out/$1.txt" >"$out/$1.json"
}

for set in A B; do
    for w in "${workloads[@]}"; do
        echo "set $set: $w" >&2
        run "$set.$w.e2e" "$w" 42 0
        run "$set.$w.layers" "$w" 42 1
    done
done
for w in "${workloads[@]}"; do
    echo "seed 7: $w" >&2
    run "seed7.$w.e2e" "$w" 7 0
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
units = {m["name"]: m["unit"] for m in bench["per_layer"]}
problems = []


def load(tag):
    return json.load(open(f"{out}/{tag}.json"))


def deterministic(name):
    """Counts read off the product's reports, simulated times and the
    allocator's counts repeat exactly; host times do not."""
    if name.startswith("harness."):
        return name in ("harness.allocs_per_op", "harness.alloc_mb_per_op")
    return units[name] in ("count", "KiB", "ratio") or name in (
        "engine.sim_running_ms_p50",
        "engine.scheduler_sim_p99_ms",
    )


for w in workloads:
    a, b = load(f"A.{w}.e2e"), load(f"B.{w}.e2e")
    print(f"== {w}: attempted {a['attempted']} / {b['attempted']}, "
          f"failed {a['failed']} / {b['failed']}")
    if a["attempted"] != b["attempted"]:
        problems.append(f"{w}: operation counts differ")
    for run_ in (a, b):
        if not run_["correct"]:
            problems.append(f"{w}: {run_['failed']} of {run_['attempted']} operations failed")
    for name, (bound, better) in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        worse = (y - x) / x if better == "lower" else (x - y) / x
        flag = ""
        if name == "sim_kb_per_op":
            if x != y:
                flag = "  <-- deterministic figure differs"
                problems.append(f"{w}: {name} {x} != {y}")
        elif abs(worse) > bound:
            flag = f"  <-- beyond {bound:.0%}"
            problems.append(f"{w}: {name} {x} vs {y} differs by {abs(worse):.1%}")
        print(f"  {name:44s} {x:16.4f} {y:16.4f}  {worse:+7.2%}{flag}")

    a, b = load(f"A.{w}.layers"), load(f"B.{w}.layers")
    for name in units:
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if x == 0 and y == 0:
            continue
        flag = ""
        if deterministic(name) and x != y:
            flag = "  <-- deterministic figure differs"
            problems.append(f"{w}: {name} {x} != {y}")
        print(f"  {name:44s} {x:16.4f} {y:16.4f}{flag}")

    seven = load(f"seed7.{w}.e2e")
    print(f"  seed 7: {seven['failed']} of {seven['attempted']} operations failed")
    if not seven["correct"]:
        problems.append(f"{w}: seed 7 fails to verify")

for p in problems:
    print("FAIL", p)
sys.exit(1 if problems else 0)
EOF
