#!/usr/bin/env sh
# Regenerates everything under results/: the human-readable paper
# tables (*.txt), the machine-readable flight-recorder output
# (BENCH_*.json), and the fast CI baselines (results/ci/) that the
# bench-regression job gates against.
#
# The simulated columns are pure functions of the seeds, so the .txt
# tables and every BENCH `simulated` section are identical on any
# machine; only the wall-clock stats differ (which is why CI compares
# with --ignore-wall).
#
# Usage: scripts/regen_results.sh [RUNS]
#   RUNS defaults to 200 (the paper's trial count per row).
#        scripts/regen_results.sh ci OUTDIR
#   Only the fast sweeps, written to OUTDIR/BENCH_<suite>.json: what
#   the bench-regression job runs and gates against results/ci/.
set -eu

cd "$(dirname "$0")/.."

bench() {
    bin="$1"
    shift
    cargo run --locked --offline --release -p eram-bench --bin "$bin" -- "$@"
}

# The gated suites and their flags, named here and nowhere else:
# results/ci/ is this function's output, and the bench-regression job
# calls it and compares (bench-diff matches the config section exactly).
ci_sweeps() {
    out="$1"
    mkdir -p "$out"
    for sweep in fig5_1_select:20 abl_faults:20 abl_parallel:5 fig5_3_join:20 \
        abl_admission:5 abl_groupby:5 abl_layout:5; do
        suite="${sweep%:*}"
        echo "=== $suite --runs ${sweep#*:} (CI sweep)" >&2
        bench "$suite" --runs "${sweep#*:}" --json "$out/BENCH_$suite.json" > /dev/null
    done
}

if [ "${1:-}" = ci ]; then
    ci_sweeps "${2:?usage: $0 ci OUTDIR}"
    exit 0
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
run abl_parallel --runs 50
run abl_layout --runs 50
# Whole-batch cells: the binary clamps runs to 20 internally.
run abl_admission --runs 10

ci_sweeps results/ci

echo "done — review git diff under results/ and commit" >&2
