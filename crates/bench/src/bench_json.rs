//! Machine-readable sweep output: the `BENCH_<suite>.json` schema.
//!
//! Every experiment binary writes one [`BenchReport`] next to its
//! `.txt` table (default `results/BENCH_<suite>.json`, overridable
//! with `--json PATH`). Each row is a label and its **`simulated`**
//! columns — computed on the simulated clock from seeded trials, so
//! the whole file is a pure function of the seeds: byte-identical
//! across runs, machines, and core counts, and compared with `cmp`
//! (`scripts/regen_results.sh check`). Host wall time is not recorded
//! here; `benchmark/` measures it.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use eram_storage::{json, json_record, Json};

/// Version stamp of the `BENCH_*.json` schema — kept in lockstep with
/// the observability schema version.
pub const BENCH_SCHEMA_VERSION: u32 = eram_core::SCHEMA_VERSION;

/// One sweep row of a [`BenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row label (the swept parameter rendering, unique per report).
    pub label: String,
    /// Deterministic simulated columns. Usually a serialized
    /// [`RowStats`](crate::harness::RowStats); special sweeps
    /// (convergence, estimator accuracy) store their own shapes.
    pub simulated: Json,
}

json_record!(BenchRow {
    label: required,
    simulated: required,
});

/// The `BENCH_<suite>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Suite name — the experiment binary, e.g. `fig5_1_select`.
    pub suite: String,
    /// The sweep configuration (quota, runs, swept values...). Rows
    /// from different configs are not comparable, so a config change
    /// must re-bless the baseline.
    pub config: BTreeMap<String, Json>,
    /// The sweep rows, in emission order.
    pub rows: Vec<BenchRow>,
}

json_record!(BenchReport {
    schema_version: default,
    suite: required,
    config: default,
    rows: default,
});

impl BenchReport {
    /// An empty report for `suite` at the current schema version.
    pub fn new(suite: &str) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            suite: suite.to_string(),
            config: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// Records one configuration key.
    pub fn config_kv(&mut self, key: &str, value: impl Into<Json>) {
        self.config.insert(key.to_string(), value.into());
    }

    /// Appends a row: its label and its simulated columns.
    pub fn push_row(&mut self, label: impl Into<String>, simulated: Json) {
        self.rows.push(BenchRow {
            label: label.into(),
            simulated,
        });
    }

    /// Pretty JSON rendering. Deterministic for deterministic
    /// contents: struct field order is fixed and all maps are
    /// `BTreeMap`s.
    pub fn to_json(&self) -> String {
        let mut out = json::to_string_pretty(self);
        out.push('\n');
        out
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_renders_deterministically() {
        let mut r = BenchReport::new("fig5_x");
        r.config_kv("quota_secs", 10.0);
        r.config_kv("runs", 200u64);
        r.push_row("d_beta=12", json!({"stages": 2.0, "blocks": 126.0}));
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        let back: BenchReport = json::from_str(&a).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    }

    /// The whole file is a function of the seeds: one small sweep
    /// built twice in one process renders to identical bytes.
    #[test]
    fn a_sweep_built_twice_renders_identical_bytes() {
        use crate::{run_row, TrialConfig, WorkloadKind};
        use eram_storage::ToJson;
        let sweep = || {
            let mut r = BenchReport::new("twice");
            r.config_kv("runs", 3u64);
            for d_beta in [0.0, 12.0] {
                let kind = WorkloadKind::Select {
                    output_tuples: 5_000,
                };
                let cfg = TrialConfig::paper(kind, std::time::Duration::from_secs(4), d_beta);
                r.push_row(format!("d_beta={d_beta}"), run_row(&cfg, 3, 7).to_json());
            }
            r.to_json()
        };
        assert_eq!(sweep(), sweep());
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!("eram-bench-json-{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_test.json");
        let mut r = BenchReport::new("test");
        r.push_row("row", Json::U64(1));
        r.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
