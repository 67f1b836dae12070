#!/bin/sh
# Host-time trajectory: runs the BENCHMARK.json command for every workload
# and prints ONE JSON record on stdout,
#
#   {"label", "commit", "seed", "runs", "traced_runs", "smoke",
#    "key_hash_ns_p50",
#    "workloads": {<workload>: {"attempted", "failed",
#                               "metrics": {<metric>: {"median", "q1", "q3"}},
#                               "in_key_hashes": {<metric>: <median>},
#                               "layers":  {<metric>: {"median", "q1", "q3"}}}}}
#
# built from the `metric <name> <value> ...` lines the runs print:
# "metrics" holds the end-to-end metrics over the untraced runs, "layers"
# every metric of the traced runs (empty without --traced).  BENCH_HOST.json
# at the root of the repository is an array of such records, one per
# measured commit; append the record by hand.
#
# Wall-clock figures drift between sessions on the same tree (ROADMAP item
# 3), so a record carries its own yardstick: "key_hash_ns_p50" is the median
# `common.key_hash_ns_p50` of the record's traced runs that ran the probe
# (a fixed loop of SHA-1 ring keys over the same tuple ids; `adhoc_read`
# and `publish_write` run it), and "in_key_hashes" restates each
# wall-clock end-to-end median (`op_ms_p25`, `setup_s`) as a multiple of
# it.  Both are null without traced runs.  Compare those across records,
# milliseconds only within one.  The probe times the product's own SHA-1,
# so a change to that kernel moves the yardstick itself, and it has moved
# twice: when `compress` (crates/common/src/sha1.rs) became four 20-round
# loops over a 16-word schedule the probe got about a quarter faster, and
# when the 80 rounds were written out with literal indices and a key that
# fits one block stopped taking the general padding path it got about a
# third faster again.  "in_key_hashes" compares only between records on
# the same side of each such change (the README's host-time section names,
# for each, the two records, measured in one session, that bracket it).
#
#   sh scripts/bench_host.sh [--label TEXT] [--seed N] [--runs N] [--traced N]
#   sh scripts/bench_host.sh --smoke      # one 1/50-size run per workload, < 5 s
#
# A run takes about 30 s, so the default (3 untraced runs of 4 workloads)
# takes about six minutes.  POSIX sh and awk only; run from anywhere inside
# the repository.
set -eu

cd "$(dirname "$0")/.."

label=""
seed=42
runs=3
traced=0
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --label) label=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --runs) runs=$2; shift 2 ;;
        --traced) traced=$2; shift 2 ;;
        --smoke) smoke=1; runs=1; traced=0; shift ;;
        *) echo "bench_host.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The contract: the command (a JSON array of strings on one line), the run
# length, and the workloads (the entries that carry a "why").
command=$(awk '/"command"/ {
    sub(/^[^[]*\[/, ""); sub(/\].*$/, ""); gsub(/[",]/, " "); print; exit }' BENCHMARK.json)
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCHMARK.json)
workloads=$(awk '/"why"/ { sub(/^.*"name": *"/, ""); sub(/".*$/, ""); printf "%s ", $0 }' BENCHMARK.json)
if [ -z "$command" ] || [ -z "$seconds" ] || [ -z "$workloads" ]; then
    echo "bench_host.sh: cannot read command, run_seconds and workloads from BENCHMARK.json" >&2
    exit 2
fi
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit+dirty"
fi

lines=$(mktemp)
trap 'rm -f "$lines"' EXIT

# Every run's output, each line prefixed with its workload and kind.
run() { # <workload> <trace: 0|1>
    extra=""
    if [ "$smoke" = 1 ]; then extra="--smoke"; fi
    # shellcheck disable=SC2086  # the command and the flag are word lists
    $command --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" $extra |
        awk -v w="$1" -v kind="$2" '{ print w, kind, $0 }' >>"$lines"
}

for w in $workloads; do
    i=0
    while [ "$i" -lt "$runs" ]; do
        echo "bench_host.sh: $w, run $((i + 1)) of $runs" >&2
        run "$w" 0
        i=$((i + 1))
    done
    i=0
    while [ "$i" -lt "$traced" ]; do
        echo "bench_host.sh: $w, traced run $((i + 1)) of $traced" >&2
        run "$w" 1
        i=$((i + 1))
    done
done

awk -v label="$label" -v commit="$commit" -v seed="$seed" -v runs="$runs" \
    -v traced="$traced" -v smoke="$smoke" -v workloads="$workloads" '
# The value a fraction p of the way through the sorted samples v[1..n],
# interpolated between neighbours.
function quantile(v, n, p,    at, low, frac) {
    at = (n - 1) * p + 1
    low = int(at)
    frac = at - low
    if (low >= n) return v[n]
    return v[low] + frac * (v[low + 1] - v[low])
}
function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
}
# The samples of `key`, sorted into v; returns how many.
function sorted(key, v,    n, i) {
    n = count[key]
    for (i = 1; i <= n; i++) v[i] = sample[key, i]
    sort(v, n)
    return n
}
function summary(key,    n, v) {
    n = sorted(key, v)
    return sprintf("{\"median\": %.9g, \"q1\": %.9g, \"q3\": %.9g}",
                   quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
}
# The untraced median of the wall-clock metric `metric` of workload w, in
# nanoseconds (`per_unit` of them to its unit), as a multiple of one key
# hash; null when the record has no yardstick or no such metric.
function in_key_hashes(w, metric, per_unit,    n, v) {
    n = sorted(w SUBSEP 0 SUBSEP metric, v)
    if (key_hash == 0 || n == 0) return "null"
    return sprintf("%.9g", quantile(v, n, 0.5) * per_unit / key_hash)
}
function block(w, kind,    i, out, sep) {
    out = ""; sep = ""
    for (i = 1; i <= names[w, kind]; i++) {
        out = out sep "\"" name[w, kind, i] "\": " summary(w SUBSEP kind SUBSEP name[w, kind, i])
        sep = ", "
    }
    return "{" out "}"
}
$3 == "metric" {
    key = $1 SUBSEP $2 SUBSEP $4
    if (!(key in count)) name[$1, $2, ++names[$1, $2]] = $4
    sample[key, ++count[key]] = $5
}
# The last line of a run: {"correct": ..., "attempted": N, "failed": N, ...
$3 ~ /^\{"correct"/ {
    line = $0
    sub(/^.*"attempted": */, "", line); attempted[$1] += line + 0
    line = $0
    sub(/^.*"failed": */, "", line); failed[$1] += line + 0
    finished[$1]++
}
END {
    n = split(workloads, order, " ")
    for (i = 1; i <= n; i++) {
        key = order[i] SUBSEP 1 SUBSEP "common.key_hash_ns_p50"
        for (j = 1; j <= count[key]; j++)
            if (sample[key, j] > 0) probes[++probed] = sample[key, j]
    }
    sort(probes, probed)
    key_hash = probed ? quantile(probes, probed, 0.5) : 0
    printf("{\"label\": \"%s\", \"commit\": \"%s\", \"seed\": %d, \"runs\": %d, \"traced_runs\": %d, \"smoke\": %s, \"key_hash_ns_p50\": %s, \"workloads\": {",
        label, commit, seed, runs, traced, smoke ? "true" : "false",
        key_hash ? sprintf("%.9g", key_hash) : "null")
    for (i = 1; i <= n; i++) {
        w = order[i]
        if (finished[w] != runs + traced) {
            printf("bench_host.sh: %s finished %d of %d runs\n", w, finished[w], runs + traced) >"/dev/stderr"
            bad = 1
        }
        printf("%s\"%s\": {\"attempted\": %d, \"failed\": %d, \"metrics\": %s, \"in_key_hashes\": {\"op_ms_p25\": %s, \"setup_s\": %s}, \"layers\": %s}",
            (i > 1 ? ", " : ""), w, attempted[w], failed[w], block(w, 0),
            in_key_hashes(w, "op_ms_p25", 1e6), in_key_hashes(w, "setup_s", 1e9), block(w, 1))
    }
    print "}}"
    exit bad
}' "$lines"
