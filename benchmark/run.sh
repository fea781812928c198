#!/usr/bin/env bash
# The one command: build offline, run, print every metric as
# `workload metric value unit`, then one JSON line per workload.
#
#   benchmark/run.sh                      all workloads: 7 rounds end to end, then traced
#   benchmark/run.sh --quick              2 rounds, quarter counts, under 20 s
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         what the pipeline calls: one workload, one mode,
#                                         the JSON line last
#   --workload NAME (repeatable), --rounds R, --seed S pass through.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/eram-benchmark"
scratch=benchmark/results/scratch
mkdir -p "$scratch"

case " $* " in
    *" --trace "*)
        exec "$bin" run --scratch "$scratch" "$@"
        ;;
    *)
        "$bin" run --scratch "$scratch" --out "$scratch/run.json" "$@"
        "$bin" trace --scratch "$scratch" --out "$scratch/trace.json" "$@"
        ;;
esac
