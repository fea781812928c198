#!/usr/bin/env sh
# Regenerates everything under results/: the human-readable paper
# tables (*.txt), the machine-readable BENCH_*.json, and the fast CI
# baselines (results/ci/) that the bench-regression job gates against.
#
# Every column is read off the simulated clock, so every file is a
# pure function of the seeds: a regeneration on any machine leaves
# `git status --short results/` empty unless the engine's behaviour
# moved. Host wall time is measured in benchmark/, not here.
#
# Usage: scripts/regen_results.sh [RUNS]
#   RUNS defaults to 200 (the paper's trial count per row).
#        scripts/regen_results.sh check
#   Only the fast sweeps, into a temp dir, each file compared byte for
#   byte with results/ci/: the whole bench-regression job.
set -eu

cd "$(dirname "$0")/.."

bench() {
    bin="$1"
    shift
    cargo run --locked --offline --release -p eram-bench --bin "$bin" -- "$@"
}

# The gated suites and their flags, named here and nowhere else:
# results/ci/ is this function's output, and `check` compares with it.
ci_sweeps() {
    out="$1"
    mkdir -p "$out"
    for sweep in fig5_1_select:20 abl_faults:20 fig5_3_join:20 \
        abl_admission:5 abl_groupby:5; do
        suite="${sweep%:*}"
        echo "=== $suite --runs ${sweep#*:} (CI sweep)" >&2
        bench "$suite" --runs "${sweep#*:}" --json "$out/BENCH_$suite.json" > /dev/null
    done
}

if [ "${1:-}" = check ]; then
    fresh="$(mktemp -d)"
    trap 'rm -rf "$fresh"' EXIT
    ci_sweeps "$fresh"
    status=0
    for name in $( (ls results/ci; ls "$fresh") | sort -u); do
        if [ ! -f "results/ci/$name" ]; then
            echo "FAIL results/ci/$name: swept but not committed — run scripts/regen_results.sh and commit results/ci/"
            status=1
        elif [ ! -f "$fresh/$name" ]; then
            echo "FAIL results/ci/$name: no sweep writes it — delete the baseline or restore the sweep in ci_sweeps"
            status=1
        elif ! cmp -s "results/ci/$name" "$fresh/$name"; then
            echo "FAIL results/ci/$name: the fresh sweep differs"
            # The hunk header carries the row's label, the hunk the column.
            diff -u -F '"label"' "results/ci/$name" "$fresh/$name" || true
            status=1
        else
            echo "ok   results/ci/$name"
        fi
    done
    exit $status
fi

RUNS="${1:-200}"
mkdir -p results

run() {
    echo "=== $*" >&2
    bench "$@" > "results/$1.txt"
}

# Full sweeps: the paper tables plus BENCH_<suite>.json, both in
# results/ (BENCH path is the binary's default next to the tables).
run fig5_1_select --runs "$RUNS"
run fig5_2_intersect --runs "$RUNS"
run fig5_3_join --runs "$RUNS"
run abl_strategies --runs "$RUNS"
run abl_adaptive_costs --runs "$RUNS"
run abl_fulfillment --runs "$RUNS"
run abl_estimator_accuracy --runs "$RUNS"
run abl_memory_mode --runs "$RUNS"
run abl_prestored --runs "$RUNS"
run abl_clustering --runs "$RUNS"
run abl_faults --runs "$RUNS"
run abl_convergence
run abl_groupby --runs 50
# Whole-batch cells: the binary caps runs at 20 internally.
run abl_admission --runs 10

ci_sweeps results/ci

echo "done — git status --short results/ prints nothing unless behaviour moved" >&2
