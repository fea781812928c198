#!/usr/bin/env bash
# The alternated-pairs protocol of a performance claim, as one command
# (.claude/skills/verify/SKILL.md, "A performance claim").
#
# Usage: scripts/bench_pairs.sh PARENT WORKLOAD [--pairs 10] [--seed 1] [--seconds 12] [--layers]
#                               [--record FILE]
#
# Extracts PARENT (any commit-ish) into .bench_build/<sha>/ and builds
# its benchmark and the working tree's, offline, before timing
# anything. Then runs `bash benchmark/run.sh --workload WORKLOAD --seed
# S --seconds S --trace 0` once a side per pair — the parent first on
# odd pairs, the change first on even ones — and fails on any run whose
# last line is not `"correct":true` with `"failed":0`.
#
# For every end-to-end metric of BENCHMARK.json it prints each pair,
# both sides' median [q1, q3], the change against the parent's median
# and the pairs the change won (the direction is the metric's
# `better`). A row "holds" when, over ten pairs or more, the change
# wins at least nine in ten and the medians differ, in its favour, by
# more than the parent's interquartile range. On a simulated workload (one that prints a
# sim_fingerprint) the exact metrics must agree across every run of
# both sides: a difference is flagged and the exit status is 1. A
# flagged row prints each side's distinct values and, for a metric
# with a BENCHMARK.json bound, the change's median move beside that
# bound, so a change that moves the simulated stream can show where
# its columns landed.
#
# With --layers every run is traced instead (`--trace 1`) and the same
# table is printed for BENCHMARK.json's per-layer metrics: where a
# saving sits, layer by layer. That mode has no exact columns to check
# and exits 0 once every run was correct.
#
# With --record FILE it also appends to FILE one JSON line per metric
# the table reports: the parent SHA, the change's (HEAD, marked
# `-dirty` when the working tree differs from it), the git tree id of
# the working tree as built (untracked files included, ignored ones
# not; HEAD's tree when clean), the workload, seed, pairs and seconds,
# whether the runs were traced, both sides' median and quartiles, the
# wins, "holds", and a host note (nproc, the CPU model, the load
# average when the runs ended). The printed table and the exit status
# stay as they are without it. perf/trajectory.jsonl is the committed
# file of these records; a `-dirty` record there was measured before
# its change was committed and belongs to the commit that appends it.
set -euo pipefail

usage() {
    echo "usage: scripts/bench_pairs.sh PARENT WORKLOAD [--pairs N] [--seed S] [--seconds S] [--layers] [--record FILE]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev="$1" workload="$2"
shift 2
pairs=10 seed=1 seconds=12 trace=0 section=end_to_end record=
while [ $# -gt 0 ]; do
    if [ "$1" = --layers ]; then
        trace=1 section=per_layer
        shift
        continue
    fi
    [ $# -ge 2 ] || usage
    case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --record) record="$2" ;;
    *) usage ;;
    esac
    shift 2
done
[ "$pairs" -ge 1 ] 2>/dev/null || usage
case "$record" in
"" | /*) ;;
*) record="$PWD/$record" ;;
esac

cd "$(dirname "$0")/.."
root="$PWD"
sha="$(git rev-parse --verify "$rev^{commit}")"
parent="$root/.bench_build/$sha"
if [ ! -f "$parent/benchmark/run.sh" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
fi

# Each side builds into its own benchmark/target.
unset CARGO_TARGET_DIR
for dir in "$parent" "$root"; do
    echo "building $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The change as built, for --record. A dirty tree is named by content
# as well: its git tree id, written through a copy of the index so the
# real one is left alone.
if [ -n "$record" ]; then
    change="$(git rev-parse HEAD)" tree="$(git rev-parse "HEAD^{tree}")"
    if [ -n "$(git status --porcelain)" ]; then
        change="$change-dirty"
        cp "$(git rev-parse --git-path index)" "$out/index"
        GIT_INDEX_FILE="$out/index" git add -A
        tree="$(GIT_INDEX_FILE="$out/index" git write-tree)"
    fi
fi

# run SIDE DIR PAIR: one benchmark process; its stdout kept, its last
# line checked.
run() {
    local log="$out/$1.$3"
    if ! (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace") >"$log.txt" 2>"$log.err"; then
        echo "pair $3: the $1 run failed" >&2
        tail -n 20 "$log.err" >&2
        exit 1
    fi
    tail -n 1 "$log.txt" >"$log.json"
    if ! jq -e '.correct == true and .failed == 0' "$log.json" >/dev/null 2>&1; then
        echo "pair $3: the $1 run is not correct: $(head -c 200 "$log.json")" >&2
        exit 1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

# values SIDE METRIC: the metric of each run of a side, one a line.
values() {
    for ((i = 1; i <= pairs; i++)); do
        jq -r --arg m "$2" '.metrics[$m].value // "nan"' "$out/$1.$i.json"
    done
}

# One line per reported metric, for --record: name, unit, better, the
# parent's median, q1 and q3, the change's, the wins and holds (0/1).
summary="$out/summary.tsv"
: >"$summary"

title="== $workload: parent ${sha:0:7} vs the working tree, seed $seed, $pairs pairs of ${seconds} s"
[ "$trace" = 0 ] || title="$title, traced"
echo "$title"
jq -r --arg s "$section" '.[$s][] | "\(.name) \(.better) \(.unit)"' BENCHMARK.json |
    while read -r metric better unit; do
        paste <(values parent "$metric") <(values change "$metric") |
            awk -v metric="$metric" -v better="$better" -v unit="$unit" -v pairs="$pairs" \
                -v summary="$summary" '
            function fmt(x) {
                if (x != x + 0) return x
                return (x >= 1e5 || x <= -1e5) ? sprintf("%.0f", x) : sprintf("%.6g", x)
            }
            # Quartile p of the sorted a[1..n], linearly interpolated.
            function quart(a, n, p,    h, lo) {
                h = (n - 1) * p + 1
                lo = int(h)
                return lo < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[n]
            }
            function sorted(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                        t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                    }
            }
            {
                p[NR] = $1 + 0; c[NR] = $2 + 0; sp[NR] = p[NR]; sc[NR] = c[NR]
                if ($1 == "nan" || $2 == "nan") missing = 1
                won = better == "higher" ? c[NR] > p[NR] : c[NR] < p[NR]
                wins += won
                rows = rows sprintf("  %4d  %16s  %16s%s\n", NR, fmt($1), fmt($2), won ? "  win" : "")
            }
            END {
                printf "\n%s (%s, %s is better)\n%s", metric, unit, better, rows
                if (missing) { print "  not reported"; exit }
                sorted(sp, NR); sorted(sc, NR)
                pm = quart(sp, NR, 0.5); pq1 = quart(sp, NR, 0.25); pq3 = quart(sp, NR, 0.75)
                cm = quart(sc, NR, 0.5); cq1 = quart(sc, NR, 0.25); cq3 = quart(sc, NR, 0.75)
                gain = better == "higher" ? cm - pm : pm - cm
                delta = pm != 0 ? sprintf("%+.1f %%", 100 * (cm - pm) / pm) : "-"
                holds = pairs >= 10 && wins * 10 >= 9 * pairs && gain > pq3 - pq1
                printf "  median [q1, q3]: parent %s [%s, %s] -> change %s [%s, %s]  %s  wins %d/%d%s\n",
                    fmt(pm), fmt(pq1), fmt(pq3), fmt(cm), fmt(cq1), fmt(cq3), delta, wins, pairs,
                    holds ? "  holds" : ""
                printf "%s\t%s\t%s\t%.10g\t%.10g\t%.10g\t%.10g\t%.10g\t%.10g\t%d\t%d\n",
                    metric, unit, better, pm, pq1, pq3, cm, cq1, cq3, wins, holds >>summary
            }'
    done

if [ -n "$record" ]; then
    cpu="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo)"
    load="$(cut -d' ' -f1-3 /proc/loadavg)" date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    traced=false
    [ "$trace" = 0 ] || traced=true
    while IFS=$'\t' read -r metric unit better pm pq1 pq3 cm cq1 cq3 wins holds; do
        jq -nc --arg parent "$sha" --arg change "$change" --arg tree "$tree" \
            --arg workload "$workload" \
            --argjson seed "$seed" --argjson pairs "$pairs" --argjson seconds "$seconds" \
            --argjson traced "$traced" --arg metric "$metric" --arg unit "$unit" \
            --arg better "$better" --argjson pm "$pm" --argjson pq1 "$pq1" --argjson pq3 "$pq3" \
            --argjson cm "$cm" --argjson cq1 "$cq1" --argjson cq3 "$cq3" \
            --argjson wins "$wins" --argjson holds "$holds" \
            --argjson nproc "$(nproc)" --arg cpu "$cpu" --arg load "$load" --arg date "$date" '{
                parent: $parent, change: $change, tree: $tree, date: $date, workload: $workload,
                seed: $seed, pairs: $pairs, seconds: $seconds, traced: $traced,
                metric: $metric, unit: $unit, better: $better,
                parent_median: $pm, parent_q1: $pq1, parent_q3: $pq3,
                change_median: $cm, change_q1: $cq1, change_q3: $cq3,
                wins: $wins, holds: ($holds == 1),
                host: { nproc: $nproc, cpu: $cpu, loadavg: $load } }' >>"$record"
    done <"$summary"
fi

# The exact columns of a simulated workload, and its fingerprint.
if [ "$trace" = 1 ] || ! grep -q " sim_fingerprint " "$out"/parent.*.txt "$out"/change.*.txt; then
    exit 0
fi

# distinct SIDE METRIC: the distinct values of a side's runs, one a line.
distinct() {
    if [ "$2" = sim_fingerprint ]; then
        cat "$out/$1".*.txt | awk '$2 == "sim_fingerprint" { print $3 }' | sort -u
    else
        jq -r --arg m "$2" '.metrics[$m].value' "$out/$1".*.json | sort -u
    fi
}

# median SIDE METRIC: the median of a side's runs.
median() {
    values "$1" "$2" | sort -g | awk '{ v[NR] = $1 } END {
        print NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

differs=0
for metric in rel_half_width_p50 utilization_pct on_time_pct met_pct sim_makespan_ms \
    phys_reads_per_block ok_pct sim_fingerprint; do
    parent_seen="$(distinct parent "$metric")"
    change_seen="$(distinct change "$metric")"
    if [ "$(printf '%s\n%s\n' "$parent_seen" "$change_seen" | sort -u | wc -l)" -eq 1 ]; then
        echo "exact $metric ok: $parent_seen"
        continue
    fi
    differs=1
    line="exact $metric DIFFERS: parent $(printf '%s ' $parent_seen)| change $(printf '%s ' $change_seen)"
    if [ "$metric" != sim_fingerprint ]; then
        bound="$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)"
        line="$line$(awk -v p="$(median parent "$metric")" -v c="$(median change "$metric")" \
            -v b="$bound" 'BEGIN {
                move = p != 0 ? sprintf("%+.2f %%", 100 * (c - p) / p) : (c == p ? "0 %" : "from 0")
                printf "| median move %s, bound %g %%", move, 100 * b }')"
    fi
    echo "$line"
done
exit "$differs"
