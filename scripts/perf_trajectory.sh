#!/usr/bin/env bash
# Reads and extends perf/trajectory.jsonl, the committed record of
# alternated-pairs runs that scripts/bench_pairs.sh --record appends.
#
# Usage: scripts/perf_trajectory.sh table [FILE]
#        scripts/perf_trajectory.sh drift ANCHOR WORKLOAD... [-- BENCH_PAIRS_OPTION...]
#
# table renders every record of FILE (default perf/trajectory.jsonl),
# in file order, under one header per run of records that share a
# change (and its tree), workload and seed, and whether they were
# traced. Each record is one row, indented two spaces: the metric, the
# parent's median [q1, q3] -> the change's median [q1, q3], the change
# in the median, the pairs the change won, and "holds" when the record
# says so. So the rows of a file are exactly its records.
#
# drift runs `scripts/bench_pairs.sh ANCHOR WORKLOAD --record
# perf/trajectory.jsonl [BENCH_PAIRS_OPTION...]` for each workload, one
# after another, then prints the table of the records they appended:
# where the working tree stands against ANCHOR (an older commit, to see
# how far the metrics have drifted since). A bench_pairs run that
# fails (an incorrect run, or a simulated column that differs from
# ANCHOR's) does not stop the others; drift then exits 1.
set -euo pipefail

usage() {
    echo "usage: scripts/perf_trajectory.sh table [FILE]" >&2
    echo "       scripts/perf_trajectory.sh drift ANCHOR WORKLOAD... [-- BENCH_PAIRS_OPTION...]" >&2
    exit 2
}

# table FILE: the rendering described above.
table() {
    jq -r '[.change, (.tree // "-"), .workload, .seed, .traced, .parent, .pairs, .seconds,
            .metric, .unit, .better, .parent_median, .parent_q1, .parent_q3,
            .change_median, .change_q1, .change_q3, .wins, .holds] | @tsv' "$1" |
        awk -F'\t' '
        function fmt(x) {
            return (x >= 1e5 || x <= -1e5) ? sprintf("%.0f", x) : sprintf("%.6g", x)
        }
        {
            key = $1 "\t" $2 "\t" $3 "\t" $4 "\t" $5
            if (key != last) {
                tree = $2 == "-" ? "" : sprintf(" (tree %s)", substr($2, 1, 7))
                printf "%s== %s: change %s%s vs parent %s, seed %s, %s pairs of %s s%s\n",
                    (NR > 1 ? "\n" : ""), $3, substr($1, 1, 7) ($1 ~ /-dirty$/ ? "-dirty" : ""),
                    tree, substr($6, 1, 7), $4, $7, $8, ($5 == "true" ? ", traced" : "")
                last = key
            }
            delta = $12 != 0 ? sprintf("%+.1f %%", 100 * ($15 - $12) / $12) : "-"
            printf "  %-40s %s [%s, %s] -> %s [%s, %s]  %s  %d/%d%s\n",
                $9 " (" $10 ", " $11 ")", fmt($12), fmt($13), fmt($14),
                fmt($15), fmt($16), fmt($17), delta, $18, $7, ($19 == "true" ? "  holds" : "")
        }'
}

[ $# -ge 1 ] || usage
cd "$(dirname "$0")/.."
record=perf/trajectory.jsonl
case "$1" in
table)
    [ $# -le 2 ] || usage
    table "${2:-$record}"
    ;;
drift)
    [ $# -ge 3 ] || usage
    anchor="$2"
    shift 2
    workloads=()
    while [ $# -gt 0 ] && [ "$1" != -- ]; do
        workloads+=("$1")
        shift
    done
    [ $# -eq 0 ] || shift
    [ ${#workloads[@]} -ge 1 ] || usage
    before="$(wc -l <"$record")"
    status=0
    for workload in "${workloads[@]}"; do
        scripts/bench_pairs.sh "$anchor" "$workload" --record "$record" "$@" || status=1
    done
    appended="$(mktemp)"
    trap 'rm -f "$appended"' EXIT
    tail -n +"$((before + 1))" "$record" >"$appended"
    echo
    table "$appended"
    exit "$status"
    ;;
*) usage ;;
esac
