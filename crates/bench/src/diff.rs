//! Regression comparison of two `BENCH_*.json` reports.
//!
//! The comparison rules mirror the schema split in
//! [`bench_json`](crate::bench_json):
//!
//! - `schema_version`, `suite`, `config`, row count, row labels, and
//!   every row's `simulated` value must be **exactly** equal — any
//!   difference means the seeded simulation diverged (or the sweep
//!   was run with a different configuration) and is always a failure.
//! - every row's `wall` medians and p95s are compared with a relative
//!   threshold (default ±20%): host timings are noisy, so only a
//!   deviation beyond the threshold counts. `--ignore-wall` skips
//!   wall comparison entirely (CI compares across machines, where
//!   absolute wall numbers are meaningless).
//! - `profile` payloads are informational and never compared.
//!
//! [`diff_reports`] returns the list of human-readable findings; the
//! `bench-diff` binary turns a non-empty list into exit code 1.

use eram_storage::json;

use crate::bench_json::{BenchReport, BENCH_SCHEMA_VERSION};

/// Rejects a report whose `schema_version` is newer than this build
/// understands, naming the offending version — a structured ingest
/// failure, not a parse panic or a spurious field-by-field diff.
/// Versions at or below [`BENCH_SCHEMA_VERSION`] pass (0 covers
/// pre-versioning reports, whose field defaults still deserialize).
pub fn validate_schema_version(what: &str, report: &BenchReport) -> Result<(), String> {
    if report.schema_version > BENCH_SCHEMA_VERSION {
        return Err(format!(
            "{what}: unknown schema_version {} (this build supports <= {BENCH_SCHEMA_VERSION})",
            report.schema_version
        ));
    }
    Ok(())
}

/// Tolerances and toggles for a diff run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Maximum allowed relative deviation of wall-clock columns
    /// (0.2 = ±20%).
    pub wall_tol: f64,
    /// When false, wall-clock columns are not compared at all.
    pub check_wall: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            wall_tol: 0.2,
            check_wall: true,
        }
    }
}

fn wall_deviation(
    issues: &mut Vec<String>,
    label: &str,
    col: &str,
    base: f64,
    cand: f64,
    tol: f64,
) {
    if !(base.is_finite() && cand.is_finite()) || base <= 0.0 {
        return;
    }
    let rel = (cand - base) / base;
    if rel.abs() > tol {
        let direction = if rel > 0.0 { "regressed" } else { "improved" };
        issues.push(format!(
            "row {label:?}: wall {col} {direction} beyond ±{:.0}%: {base:.4}s -> {cand:.4}s ({:+.1}%)",
            tol * 100.0,
            rel * 100.0
        ));
    }
}

/// Compares `candidate` against `baseline`; returns one finding per
/// violated rule (empty = pass).
pub fn diff_reports(
    baseline: &BenchReport,
    candidate: &BenchReport,
    opts: &DiffOptions,
) -> Vec<String> {
    let mut issues = Vec::new();
    if baseline.schema_version != candidate.schema_version {
        issues.push(format!(
            "schema_version mismatch: baseline {} vs candidate {}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    if baseline.suite != candidate.suite {
        issues.push(format!(
            "suite mismatch: baseline {:?} vs candidate {:?}",
            baseline.suite, candidate.suite
        ));
    }
    if baseline.config != candidate.config {
        issues.push(format!(
            "config mismatch (sweeps are only comparable at identical configs): baseline {} vs candidate {}",
            json::to_string(&baseline.config),
            json::to_string(&candidate.config)
        ));
    }
    if baseline.rows.len() != candidate.rows.len() {
        issues.push(format!(
            "row count mismatch: baseline {} vs candidate {}",
            baseline.rows.len(),
            candidate.rows.len()
        ));
    }
    for (b, c) in baseline.rows.iter().zip(&candidate.rows) {
        if b.label != c.label {
            issues.push(format!(
                "row label mismatch: baseline {:?} vs candidate {:?}",
                b.label, c.label
            ));
            continue;
        }
        if b.simulated != c.simulated {
            issues.push(format!(
                "row {:?}: simulated columns diverged (seeded runs must be byte-identical):\n  baseline:  {}\n  candidate: {}",
                b.label,
                json::to_string(&b.simulated),
                json::to_string(&c.simulated)
            ));
        }
        if opts.check_wall {
            if let (Some(bw), Some(cw)) = (&b.wall, &c.wall) {
                wall_deviation(
                    &mut issues,
                    &b.label,
                    "median",
                    bw.median_secs,
                    cw.median_secs,
                    opts.wall_tol,
                );
                wall_deviation(
                    &mut issues,
                    &b.label,
                    "p95",
                    bw.p95_secs,
                    cw.p95_secs,
                    opts.wall_tol,
                );
            }
        }
    }
    issues
}

/// Parsed `bench-diff` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCli {
    /// Path of the committed baseline report.
    pub baseline: std::path::PathBuf,
    /// Path of the freshly generated candidate report.
    pub candidate: std::path::PathBuf,
    /// Comparison options.
    pub opts: DiffOptions,
}

/// Parses `BASELINE CANDIDATE [--wall-tol FRAC] [--ignore-wall]`.
/// Returns a usage string on malformed input.
pub fn parse_diff_args<I: IntoIterator<Item = String>>(args: I) -> Result<DiffCli, String> {
    const USAGE: &str =
        "usage: bench-diff BASELINE.json CANDIDATE.json [--wall-tol FRAC] [--ignore-wall]";
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wall-tol" => {
                let v: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("--wall-tol needs a fraction\n{USAGE}"))?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!(
                        "--wall-tol must be a non-negative fraction\n{USAGE}"
                    ));
                }
                opts.wall_tol = v;
            }
            "--ignore-wall" => opts.check_wall = false,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => paths.push(std::path::PathBuf::from(other)),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if paths.len() != 2 {
        return Err(format!("expected exactly two report paths\n{USAGE}"));
    }
    let candidate = paths.pop().expect("two paths");
    let baseline = paths.pop().expect("two paths");
    Ok(DiffCli {
        baseline,
        candidate,
        opts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::WallStats;

    fn report(median: f64, stages: f64) -> BenchReport {
        let mut r = BenchReport::new("fig5_1_select");
        r.config_kv("quota_secs", 10.0);
        r.push_value(
            "d_beta=12",
            json!({"stages": stages, "blocks": 126.0}),
            &[],
            None,
        );
        r.rows[0].wall = Some(WallStats {
            runs: 8,
            mean_secs: median,
            median_secs: median,
            p95_secs: median * 1.5,
            min_secs: median * 0.8,
            max_secs: median * 2.0,
        });
        r
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(0.5, 2.0);
        assert!(diff_reports(&a, &a.clone(), &DiffOptions::default()).is_empty());
    }

    #[test]
    fn simulated_mismatch_always_fails() {
        let base = report(0.5, 2.0);
        let cand = report(0.5, 2.25);
        let issues = diff_reports(&base, &cand, &DiffOptions::default());
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("simulated columns diverged"));
        // ...even when wall comparison is off: determinism is not
        // negotiable.
        let issues = diff_reports(
            &base,
            &cand,
            &DiffOptions {
                check_wall: false,
                ..DiffOptions::default()
            },
        );
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn wall_regression_beyond_threshold_fails() {
        let base = report(0.5, 2.0);
        let slower = report(0.65, 2.0); // +30% > ±20%
        let issues = diff_reports(&base, &slower, &DiffOptions::default());
        assert!(
            issues.iter().any(|i| i.contains("median regressed")),
            "{issues:?}"
        );
        // Within threshold: quiet.
        let ok = report(0.55, 2.0); // +10%
        assert!(diff_reports(&base, &ok, &DiffOptions::default()).is_empty());
        // A looser threshold admits the slower run.
        assert!(diff_reports(
            &base,
            &slower,
            &DiffOptions {
                wall_tol: 0.5,
                ..DiffOptions::default()
            }
        )
        .is_empty());
        // --ignore-wall admits anything on the wall axis.
        assert!(diff_reports(
            &base,
            &slower,
            &DiffOptions {
                check_wall: false,
                ..DiffOptions::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn large_improvements_are_flagged_too() {
        // ±20% is symmetric: a 3x speedup on a simulated-clock bench
        // usually means the sweep silently did less work.
        let base = report(0.9, 2.0);
        let fast = report(0.3, 2.0);
        let issues = diff_reports(&base, &fast, &DiffOptions::default());
        assert!(issues.iter().any(|i| i.contains("improved")), "{issues:?}");
    }

    #[test]
    fn structural_mismatches_fail() {
        let base = report(0.5, 2.0);
        let mut cand = report(0.5, 2.0);
        cand.suite = "fig5_3_join".into();
        cand.config_kv("quota_secs", 2.5);
        cand.rows[0].label = "d_beta=24".into();
        cand.rows.push(cand.rows[0].clone());
        let issues = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(issues.iter().any(|i| i.contains("suite mismatch")));
        assert!(issues.iter().any(|i| i.contains("config mismatch")));
        assert!(issues.iter().any(|i| i.contains("row count mismatch")));
        assert!(issues.iter().any(|i| i.contains("row label mismatch")));
    }

    #[test]
    fn schema_version_mismatch_fails() {
        let base = report(0.5, 2.0);
        let mut cand = report(0.5, 2.0);
        cand.schema_version += 1;
        let issues = diff_reports(&base, &cand, &DiffOptions::default());
        assert!(issues.iter().any(|i| i.contains("schema_version mismatch")));
    }

    #[test]
    fn unknown_schema_versions_are_refused_by_name() {
        let mut report = report(0.5, 2.0);
        assert!(validate_schema_version("baseline", &report).is_ok());
        report.schema_version = BENCH_SCHEMA_VERSION + 3;
        let err = validate_schema_version("candidate", &report).unwrap_err();
        assert!(
            err.contains(&format!("schema_version {}", BENCH_SCHEMA_VERSION + 3)),
            "the error names the version: {err}"
        );
        assert!(err.starts_with("candidate:"), "{err}");
        // Pre-versioning reports (version 0) still ingest.
        report.schema_version = 0;
        assert!(validate_schema_version("baseline", &report).is_ok());
    }

    #[test]
    fn cli_parsing_covers_flags_and_misuse() {
        let ok = parse_diff_args(["a.json".into(), "b.json".into()]).unwrap();
        assert_eq!(ok.baseline, std::path::PathBuf::from("a.json"));
        assert_eq!(ok.candidate, std::path::PathBuf::from("b.json"));
        assert_eq!(ok.opts, DiffOptions::default());

        let tuned = parse_diff_args([
            "a.json".into(),
            "--wall-tol".into(),
            "0.35".into(),
            "b.json".into(),
            "--ignore-wall".into(),
        ])
        .unwrap();
        assert!((tuned.opts.wall_tol - 0.35).abs() < 1e-12);
        assert!(!tuned.opts.check_wall);

        assert!(parse_diff_args(["a.json".into()]).is_err());
        assert!(parse_diff_args(Vec::<String>::new()).is_err());
        assert!(parse_diff_args(["a".into(), "b".into(), "c".into()]).is_err());
        assert!(parse_diff_args(["--wall-tol".into(), "nope".into()]).is_err());
        assert!(parse_diff_args(["--bogus".into()]).is_err());
    }
}
