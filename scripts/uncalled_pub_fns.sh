#!/bin/sh
# Public functions that no product code calls.
#
# Product code is every `.rs` file under `crates/*/src` and `benchmark/src`,
# each read down to its first `#[cfg(test)]` item, without the seven files
# that are test modules of their parent (`exec/tests.rs`,
# `exec/answer_equivalence.rs`, `exec/scan_by_gather.rs`,
# `ops/join_agg_by_batch.rs`, `gossip/lag_equivalence.rs`,
# `page/page_equivalence.rs` and `adaptive/absorb_equivalence.rs`).  A `#[cfg(test)]` over a one-line
# `mod name;` only declares such a file, so reading goes on past it:
# `ops.rs` and `exec/mod.rs` declare theirs above their own product code.
#
# A `pub fn` is uncalled when its name, as a whole word, appears nowhere in
# product code but its own definition.  The search is by name only: any
# other use of the name hides the function — a second function, a field
# or a variable of that name (`MemberView::history`, which
# `tests/gossip_fingerprint.rs` reads, shares its name with the field it
# returns), or a comment that mentions it.
#
# Prints one line per uncalled function, `name path:line`, followed by the
# reason when the name is on the allow list below, and exits 1 when any
# printed name is not on it.  POSIX sh, find, grep and awk only; run from
# anywhere inside the repository.
#
#   sh scripts/uncalled_pub_fns.sh

set -eu
cd "$(dirname "$0")/.."

# One entry a line: the name, then why it stays without a product caller.
ALLOW='
equivalence_workloads the workloads tests/columnar_equivalence.rs pins and examples/record_equiv.rs records
'

files=$(find crates/*/src benchmark/src -name '*.rs' |
    grep -v -e '/exec/tests\.rs$' -e '/exec/answer_equivalence\.rs$' \
        -e '/exec/scan_by_gather\.rs$' -e '/ops/join_agg_by_batch\.rs$' \
        -e '/gossip/lag_equivalence\.rs$' -e '/page/page_equivalence\.rs$' \
        -e '/adaptive/absorb_equivalence\.rs$' |
    sort)
if [ -z "$files" ]; then
    echo "uncalled_pub_fns.sh: no product sources found" >&2
    exit 2
fi

# Paths hold no blanks, so the list splits on words.
# shellcheck disable=SC2086
awk -v allow="$ALLOW" '
        FNR == 1 { testing = 0; gate = 0 }
        testing { next }
        gate && /^[ \t]*(pub(\(crate\))? )?mod [A-Za-z0-9_]+;/ { gate = 0; next }
        gate { testing = 1; next }
        index($0, "#[cfg(test)]") { gate = 1; next }
        {
            line = $0
            while (match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(line, RSTART + 7, RLENGTH - 7)
                if (!(name in where)) where[name] = FILENAME ":" FNR
                line = substr(line, RSTART + RLENGTH)
            }
            line = $0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, words, " ")
            for (i = 1; i <= n; i++) uses[words[i]]++
        }
        END {
            n = split(allow, entries, "\n")
            for (i = 1; i <= n; i++) {
                if (entries[i] == "") continue
                split(entries[i], fields, " ")
                reason[fields[1]] = substr(entries[i], length(fields[1]) + 2)
            }
            bad = 0
            for (name in where) {
                if (uses[name] != 1) continue
                if (name in reason) {
                    print name, where[name], "(allowed: " reason[name] ")" | "sort"
                } else {
                    print name, where[name] | "sort"
                    bad = 1
                }
            }
            close("sort")
            exit bad
        }
    ' $files
