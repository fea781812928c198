//! Machine-readable sweep output: the `BENCH_<suite>.json` schema.
//!
//! Every experiment binary writes one [`BenchReport`] next to its
//! `.txt` table (default `results/BENCH_<suite>.json`, overridable
//! with `--json PATH`). The schema splits each row into two parts
//! with different comparison rules:
//!
//! - **`simulated`** — columns computed on the simulated clock from
//!   seeded trials. Byte-identical across runs, machines, and worker
//!   counts at a fixed seed; [`crate::diff`] compares them *exactly*.
//! - **`wall`** — host wall-clock statistics (median/p95/... over the
//!   row's trials). Nondeterministic; compared with a noise-tolerant
//!   threshold (default ±20%).
//!
//! A row may also carry the phase [`ProfileSnapshot`] of its first
//! trial; it is informational and never gated on (its `sim_ns`
//! columns are deterministic, its `wall_*` columns are not, and the
//! diff tool must not fail a run for a shifted-but-in-budget phase
//! mix).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use eram_core::{Histogram, ProfileSnapshot};
use eram_storage::{json, json_record, Json, ToJson};

use crate::harness::MeasuredRow;

/// Version stamp of the `BENCH_*.json` schema — kept in lockstep with
/// the observability schema version (the profile payload embeds
/// [`ProfileSnapshot`], versioned by the same constant).
pub const BENCH_SCHEMA_VERSION: u32 = eram_core::SCHEMA_VERSION;

/// Host wall-clock statistics over one row's trials, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallStats {
    /// Number of timed trials.
    pub runs: usize,
    /// Mean wall seconds per trial.
    pub mean_secs: f64,
    /// Median (nearest-rank p50) wall seconds per trial.
    pub median_secs: f64,
    /// 95th-percentile (nearest-rank) wall seconds per trial.
    pub p95_secs: f64,
    /// Fastest trial.
    pub min_secs: f64,
    /// Slowest trial.
    pub max_secs: f64,
}

json_record!(WallStats {
    runs: required,
    mean_secs: required,
    median_secs: required,
    p95_secs: required,
    min_secs: required,
    max_secs: required,
});

impl WallStats {
    /// Aggregates per-trial wall durations; `None` for an empty slice.
    pub fn from_trials(secs: &[f64]) -> Option<WallStats> {
        let mut h = Histogram::default();
        for s in secs {
            h.observe(*s);
        }
        Some(WallStats {
            runs: secs.len(),
            mean_secs: h.mean()?,
            median_secs: h.p50()?,
            p95_secs: h.p95()?,
            min_secs: h.min()?,
            max_secs: h.max()?,
        })
    }
}

/// One sweep row of a [`BenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row label (the swept parameter rendering, unique per report).
    pub label: String,
    /// Deterministic simulated columns — compared exactly by
    /// `bench-diff`. Usually a serialized
    /// [`RowStats`](crate::harness::RowStats); special sweeps
    /// (convergence, estimator accuracy) store their own shapes.
    pub simulated: Json,
    /// Host wall-clock stats — threshold-compared.
    pub wall: Option<WallStats>,
    /// Phase profile of the row's first trial — informational.
    pub profile: Option<ProfileSnapshot>,
}

json_record!(BenchRow {
    label: required,
    simulated: required,
    wall: omit_empty,
    profile: omit_empty,
});

/// The `BENCH_<suite>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Suite name — the experiment binary, e.g. `fig5_1_select`.
    pub suite: String,
    /// The sweep configuration (quota, runs, swept values...). Part
    /// of the exact comparison: rows from different configs are not
    /// comparable, so a config change must re-bless the baseline.
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

    /// Appends a row from the harness's measured output: the
    /// aggregated stats become the exact-compared `simulated` value,
    /// the per-trial walls collapse to [`WallStats`], and the trial-0
    /// profile rides along.
    pub fn push_measured(&mut self, label: impl Into<String>, row: &MeasuredRow) {
        self.rows.push(BenchRow {
            label: label.into(),
            simulated: row.stats.to_json(),
            wall: WallStats::from_trials(&row.wall_secs),
            profile: row.profile.clone(),
        });
    }

    /// Appends a row with a custom simulated payload (the special
    /// sweeps: convergence trajectories, estimator-accuracy grids).
    pub fn push_value(
        &mut self,
        label: impl Into<String>,
        simulated: Json,
        wall_secs: &[f64],
        profile: Option<ProfileSnapshot>,
    ) {
        self.rows.push(BenchRow {
            label: label.into(),
            simulated,
            wall: WallStats::from_trials(wall_secs),
            profile,
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

    /// Reads a report back from `path`.
    pub fn read(path: &Path) -> io::Result<BenchReport> {
        let text = std::fs::read_to_string(path)?;
        json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_stats_use_nearest_rank_quantiles() {
        let secs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let w = WallStats::from_trials(&secs).unwrap();
        assert_eq!(w.runs, 100);
        assert!((w.median_secs - 0.50).abs() < 1e-12);
        assert!((w.p95_secs - 0.95).abs() < 1e-12);
        assert!((w.min_secs - 0.01).abs() < 1e-12);
        assert!((w.max_secs - 1.00).abs() < 1e-12);
        assert!((w.mean_secs - 0.505).abs() < 1e-12);
        assert!(WallStats::from_trials(&[]).is_none());
    }

    #[test]
    fn report_round_trips_and_renders_deterministically() {
        let mut r = BenchReport::new("fig5_x");
        r.config_kv("quota_secs", 10.0);
        r.config_kv("runs", 200u64);
        r.push_value(
            "d_beta=12",
            json!({"stages": 2.0, "blocks": 126.0}),
            &[0.5, 0.7, 0.6],
            None,
        );
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        let back: BenchReport = json::from_str(&a).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.rows[0].wall.unwrap().runs, 3);
    }

    #[test]
    fn write_and_read_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("eram-bench-json-{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_test.json");
        let mut r = BenchReport::new("test");
        r.push_value("row", Json::U64(1), &[0.1], None);
        r.write(&path).unwrap();
        let back = BenchReport::read(&path).unwrap();
        assert_eq!(back, r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_report_is_an_invalid_data_error() {
        let dir = std::env::temp_dir().join(format!("eram-bench-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = BenchReport::read(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
