#!/usr/bin/env sh
# The CLI byte-identity checks, end to end on the built binaries:
# block-layout equivalence, the ingestion round-trip, serving
# equivalence across concurrency modes, and the eram-explain
# postmortem. One release build; the first failed check
# exits nonzero. Needs jq.
#
# Usage: scripts/cli_smoke.sh [OUTDIR]
#   Artifacts land in OUTDIR (default: a temp dir, removed on exit).
set -eu

cd "$(dirname "$0")/.."
cargo build --locked --offline --release -p eram-cli -p eram-explain
eram="$PWD/target/release/eram"
explain="$PWD/target/release/eram-explain"

if [ $# -ge 1 ]; then
    mkdir -p "$1"
    cd "$1"
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    cd "$out"
fi

printf 'k,v\n' > smoke.csv
for i in $(seq 0 499); do printf '%s,%s\n' "$i" "$((i % 100))" >> smoke.csv; done
for i in $(seq 0 499); do printf '{"k": %s, "v": %s}\n' "$i" "$((i % 100))"; done > smoke.jsonl
cat > jobs.json <<'EOF'
[
  {"name": "dash", "expr": "select[#1 < 50](t)", "deadline_secs": 8.0},
  {"name": "tiny", "expr": "t", "deadline_secs": 0.05},
  {"name": "audit", "expr": "t", "deadline_secs": 25.0, "desired_secs": 5.0, "value": 0.5},
  {"name": "eon", "expr": "t", "deadline_secs": 1.7e19}
]
EOF

echo "=== block-layout equivalence" >&2
# Row scans evaluate the selection on the page bytes (and a
# plain COUNT decodes nothing); columnar decodes each page, then
# filters it inside the leaf. Every operator above the leaf gets the
# same rows either way, so the rendered result must not depend on
# which. The join needs --quota 60 to plan a stage at all; SUM over a
# projection is refused, so projections run under COUNT only.
rm -f out-row.txt out-columnar.txt
run() {
    "$eram" --load t=smoke.csv:k:int,v:int --header \
        --layout "$layout" "$@" >> "out-$layout.txt"
}
for layout in row columnar; do
    for agg in count sum:0; do
        for query in 'select[#1 < 50](t)' 'select[#1 < 50 and not (#0 >= 400)](t)'; do
            run --query "$query" --quota 10 --agg "$agg"
        done
        run --query 'join[#0=#0](select[#1 < 50](t), t)' --quota 60 --agg "$agg"
    done
    for query in 'project[#1](t)' 'project[#1](select[#1 < 50](t))'; do
        run --query "$query" --quota 10 --agg count
    done
    # On a cached, fault-armed disk the rendered storage.* counters
    # (cache hits and misses, faults, spikes) must not depend on the
    # layout either.
    run --query 'join[#0=#0](select[#1 < 50](t), t)' --quota 60 --agg count \
        --metrics --cache 8 --fault-transient 0.05 --fault-spike 0.02
done
cmp out-row.txt out-columnar.txt

echo "=== ingestion round-trip" >&2
"$eram" --load t=smoke.csv:k:int,v:int --header \
    --query 'select[#1 < 50](t)' --quota 10 > out-csv.txt
"$eram" --load t=smoke.jsonl:k:int,v:int --ingest jsonl \
    --query 'select[#1 < 50](t)' --quota 10 > out-jsonl.txt
# Same records, same seeds — the report must be identical.
cmp out-csv.txt out-jsonl.txt

echo "=== concurrency equivalence (seq vs interleaved)" >&2
for mode in seq interleaved; do
    "$eram" --load t=smoke.csv:k:int,v:int --header \
        --fault-transient 0.08 --fault-spike 0.2 --fault-spike-ms 400 \
        --serve jobs.json --concurrency "$mode" \
        --jobs-out outcome-$mode.json --trace trace-$mode.jsonl
done
# Trace bytes are mode-invariant outright...
cmp trace-seq.jsonl trace-interleaved.jsonl
# ...and outcomes agree once the schedule report is stripped.
for mode in seq interleaved; do
    jq -S 'del(.schedule)' outcome-$mode.json > stripped-$mode.json
done
cmp stripped-seq.json stripped-interleaved.json
# The interleaved run actually pooled draws; the oracle never does.
jq -e '.schedule.blocks_shared > 0' outcome-interleaved.json
jq -e '.schedule.blocks_shared == 0' outcome-seq.json

echo "=== postmortem (eram-explain over the sequential serve)" >&2
"$explain" --trace trace-seq.jsonl --outcome outcome-seq.json \
    --format json > postmortem.json
# Miss attribution and the tenant SLO tables must be present.
jq -e '.miss_attribution != null' postmortem.json
jq -e '(.tenants | length) == 4' postmortem.json
jq -e '(.jobs | length) == 4' postmortem.json
# The tenant table is one fold of the decision records: the
# outcome alone (its ledger) and the trace alone give the same rows.
"$explain" --outcome outcome-seq.json --format json > postmortem-outcome-only.json
"$explain" --trace trace-seq.jsonl --format json > postmortem-trace-only.json
jq -e '(.tenants | length) == 4' postmortem-outcome-only.json
for src in outcome trace; do
    jq -S '.tenants' postmortem-$src-only.json > tenants-$src-only.json
done
cmp tenants-outcome-only.json tenants-trace-only.json
# The text rendering works on the same artifacts.
"$explain" --trace trace-seq.jsonl --outcome outcome-seq.json > postmortem.txt
grep -q "tenant SLO table" postmortem.txt

echo "cli smoke: all checks passed" >&2
