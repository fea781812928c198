//! Paper-format table rendering.
//!
//! Each Section 5 table has one row per `d_β` with the columns
//! `stages | risk | ovsp | utilization | blocks`. [`render_table`]
//! prints that layout (plus our extra accuracy column) and
//! [`PaperRow`] pairs a measured row with the paper's published
//! values so EXPERIMENTS.md can show paper-vs-measured side by side.

use crate::harness::RowStats;

/// One rendered row: the sweep parameter and the measured stats.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// The swept `d_β` (or other parameter) label.
    pub label: String,
    /// Measured statistics.
    pub stats: RowStats,
}

/// Renders a Section 5-style table to a string. When any row saw
/// storage faults, three health columns (`faults`, `lost`,
/// `degraded%`) are appended so ablation tables over fault rates read
/// like the paper's.
pub fn render_table(title: &str, param_name: &str, rows: &[PaperRow]) -> String {
    let with_health = rows
        .iter()
        .any(|r| r.stats.faults > 0.0 || r.stats.degraded_pct > 0.0);
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>8} | {:>7} | {:>6} | {:>7} | {:>11} | {:>8} | {:>8} | {:>7}",
        param_name, "stages", "risk%", "ovsp(s)", "utilization%", "blocks", "rel.err", "rel.hw"
    ));
    if with_health {
        out.push_str(&format!(
            " | {:>7} | {:>6} | {:>9}",
            "faults", "lost", "degraded%"
        ));
    }
    out.push('\n');
    out.push_str(&"-".repeat(if with_health { 114 } else { 84 }));
    out.push('\n');
    for row in rows {
        let s = &row.stats;
        let err = if s.mean_rel_error.is_nan() {
            "  n/a".to_string()
        } else {
            format!("{:>8.3}", s.mean_rel_error)
        };
        let hw = if s.mean_rel_hw.is_nan() {
            "  n/a".to_string()
        } else {
            format!("{:>7.3}", s.mean_rel_hw)
        };
        out.push_str(&format!(
            "{:>8} | {:>7.2} | {:>6.1} | {:>7.2} | {:>11.1} | {:>8.1} | {err} | {hw}",
            row.label, s.stages, s.risk_pct, s.ovsp_secs, s.utilization_pct, s.blocks
        ));
        if with_health {
            out.push_str(&format!(
                " | {:>7.1} | {:>6.1} | {:>9.1}",
                s.faults, s.blocks_lost, s.degraded_pct
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RowStats {
        RowStats {
            runs: 200,
            stages: 1.56,
            risk_pct: 56.0,
            ovsp_secs: 0.11,
            utilization_pct: 63.0,
            blocks: 54.0,
            mean_rel_error: 0.08,
            mean_rel_hw: 0.05,
            faults: 0.0,
            blocks_lost: 0.0,
            degraded_pct: 0.0,
        }
    }

    #[test]
    fn table_contains_all_columns() {
        let rows = vec![PaperRow {
            label: "0".into(),
            stats: stats(),
        }];
        let t = render_table("Figure 5.1 — Selection", "d_beta", &rows);
        assert!(t.contains("Figure 5.1"));
        assert!(t.contains("stages"));
        assert!(t.contains("1.56"));
        assert!(t.contains("56.0"));
        assert!(t.contains("0.11"));
        assert!(t.contains("63.0"));
        assert!(t.contains("54.0"));
        assert!(t.contains("rel.hw"));
        assert!(t.contains("0.050"));
        // Clean rows keep the paper's original column set.
        assert!(!t.contains("degraded%"));
    }

    #[test]
    fn health_columns_appear_when_rows_saw_faults() {
        let mut s = stats();
        s.faults = 3.5;
        s.blocks_lost = 1.2;
        s.degraded_pct = 40.0;
        let rows = vec![PaperRow {
            label: "5%".into(),
            stats: s,
        }];
        let t = render_table("Fault ablation", "rate", &rows);
        assert!(t.contains("faults"));
        assert!(t.contains("degraded%"));
        assert!(t.contains("3.5"));
        assert!(t.contains("1.2"));
        assert!(t.contains("40.0"));
    }

    #[test]
    fn nan_error_renders_as_na() {
        let mut s = stats();
        s.mean_rel_error = f64::NAN;
        let rows = vec![PaperRow {
            label: "12".into(),
            stats: s,
        }];
        let t = render_table("x", "d", &rows);
        assert!(t.contains("n/a"));
    }
}
