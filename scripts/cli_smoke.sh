#!/usr/bin/env sh
# The CLI byte-identity checks, end to end on the built binaries: the
# --workers smoke, block-layout equivalence, the ingestion round-trip,
# serving equivalence across modes and worker counts, and the
# eram-explain postmortem. One release build; the first failed check
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
  {"name": "audit", "expr": "t", "deadline_secs": 25.0, "desired_secs": 5.0, "value": 0.5}
]
EOF

echo "=== --workers smoke" >&2
for w in 1 4; do
    "$eram" --load t=smoke.csv:k:int,v:int --header \
        --query 'select[#1 < 50](t)' --quota 10 \
        --workers $w
done

echo "=== block-layout equivalence" >&2
# Row scans evaluate the selection on the page bytes (and a
# plain COUNT decodes nothing); columnar decodes, then
# filters. The rendered result must not depend on which.
rm -f out-row.txt out-columnar.txt
for layout in row columnar; do
    for agg in count sum:0; do
        for query in 'select[#1 < 50](t)' 'select[#1 < 50 and not (#0 >= 400)](t)'; do
            "$eram" --load t=smoke.csv:k:int,v:int --header \
                --query "$query" --quota 10 --agg "$agg" \
                --layout "$layout" >> "out-$layout.txt"
        done
    done
done
cmp out-row.txt out-columnar.txt

echo "=== ingestion round-trip" >&2
"$eram" --load t=smoke.csv:k:int,v:int --header \
    --query 'select[#1 < 50](t)' --quota 10 > out-csv.txt
"$eram" --load t=smoke.jsonl:k:int,v:int --ingest jsonl \
    --query 'select[#1 < 50](t)' --quota 10 > out-jsonl.txt
# Same records, same seeds — the report must be identical.
cmp out-csv.txt out-jsonl.txt

echo "=== concurrency equivalence (seq vs interleaved, workers 1 vs 4)" >&2
for mode in seq interleaved; do
    for w in 1 4; do
        "$eram" --load t=smoke.csv:k:int,v:int --header \
            --fault-transient 0.08 --fault-spike 0.2 --fault-spike-ms 400 \
            --serve jobs.json --ledger --concurrency "$mode" \
            --jobs-out outcome-$mode-$w.json --trace trace-$mode-$w.jsonl \
            --workers $w
    done
    # Worker count never changes a byte within a mode.
    cmp outcome-$mode-1.json outcome-$mode-4.json
    cmp trace-$mode-1.jsonl trace-$mode-4.jsonl
done
# Trace bytes are mode-invariant outright...
cmp trace-seq-1.jsonl trace-interleaved-1.jsonl
# ...and outcomes agree once the schedule report and the
# sharing counters it feeds are stripped.
for mode in seq interleaved; do
    jq -S 'del(.schedule) | (.ledger.tenants[]? |= (.blocks_shared = 0 | .charge_saved_ns = 0))' \
        outcome-$mode-1.json > stripped-$mode.json
done
cmp stripped-seq.json stripped-interleaved.json
# The interleaved run actually pooled draws; the oracle never does.
jq -e '.schedule.blocks_shared > 0' outcome-interleaved-1.json
jq -e '.schedule.blocks_shared == 0' outcome-seq-1.json

echo "=== postmortem (eram-explain at workers 1 and 4)" >&2
for w in 1 4; do
    "$eram" --load t=smoke.csv:k:int,v:int --header \
        --fault-transient 0.08 --fault-spike 0.2 --fault-spike-ms 400 \
        --serve jobs.json --ledger \
        --jobs-out outcome-$w.json --trace trace-$w.jsonl \
        --workers $w
    "$explain" --trace trace-$w.jsonl --outcome outcome-$w.json \
        --format json > postmortem-$w.json
    # Miss attribution and the tenant SLO tables must be present.
    jq -e '.miss_attribution != null' postmortem-$w.json
    jq -e '(.tenants | length) == 3' postmortem-$w.json
    jq -e '(.jobs | length) == 3' postmortem-$w.json
done
# ...and byte-identical across worker counts.
cmp postmortem-1.json postmortem-4.json
# The tenant table is one fold of the decision records: the
# trace alone (no --outcome) gives the same rows as the
# ledger run, sharing credits aside (only a ledger has them).
"$explain" --trace trace-1.jsonl --format json > postmortem-trace-only.json
for pm in postmortem-1 postmortem-trace-only; do
    jq -S '.tenants | map(.blocks_shared = 0 | .charge_saved_ns = 0)' \
        $pm.json > tenants-$pm.json
done
cmp tenants-postmortem-1.json tenants-postmortem-trace-only.json
# The text rendering works on the same artifacts.
"$explain" --trace trace-1.jsonl --outcome outcome-1.json > postmortem.txt
grep -q "tenant SLO table" postmortem.txt

echo "cli smoke: all checks passed" >&2
