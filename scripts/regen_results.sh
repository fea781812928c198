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
set -eu

cd "$(dirname "$0")/.."
RUNS="${1:-200}"
mkdir -p results results/ci

run() {
    bin="$1"
    shift
    echo "=== $bin $*" >&2
    cargo run --release -p eram-bench --bin "$bin" -- "$@" \
        > "results/$bin.txt"
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

# Fast CI baselines: MUST use the same flags as the bench-regression
# job in .github/workflows/ci.yml (bench-diff compares the config
# section exactly; changing either side means re-blessing the other).
echo "=== CI baselines (fast sweeps)" >&2
cargo run --release -p eram-bench --bin fig5_1_select -- \
    --runs 20 --json results/ci/BENCH_fig5_1_select.json > /dev/null
cargo run --release -p eram-bench --bin abl_faults -- \
    --runs 20 --json results/ci/BENCH_abl_faults.json > /dev/null
cargo run --release -p eram-bench --bin abl_parallel -- \
    --runs 5 --json results/ci/BENCH_abl_parallel.json > /dev/null
cargo run --release -p eram-bench --bin fig5_3_join -- \
    --runs 20 --json results/ci/BENCH_fig5_3_join.json > /dev/null
cargo run --release -p eram-bench --bin abl_admission -- \
    --runs 5 --json results/ci/BENCH_abl_admission.json > /dev/null
cargo run --release -p eram-bench --bin abl_groupby -- \
    --runs 5 --json results/ci/BENCH_abl_groupby.json > /dev/null
cargo run --release -p eram-bench --bin abl_layout -- \
    --runs 5 --json results/ci/BENCH_abl_layout.json > /dev/null

echo "done — review git diff under results/ and commit" >&2
