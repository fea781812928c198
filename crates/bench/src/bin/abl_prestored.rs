//! Ablation — **run-time estimation vs. prestored statistics**
//! (Section 3.1).
//!
//! The paper weighs two ways to get the selectivities its cost
//! formulas need: "prestored selectivities [PSCo 84, Rowe 85,
//! MuDe 88] ... simple and may have a very good performance \[but\]
//! best suited for database environments where only a fixed set of
//! query types are to be issued", versus the run-time estimation it
//! adopts ("the greatest flexibility because it does not need any
//! specific information about a query").
//!
//! This ablation measures the trade: the same sweep with stage-1
//! selectivities (a) assumed at the Figure 3.3 maxima and revised at
//! run time (the paper), and (b) seeded from prestored equi-depth
//! histograms. Better stage-1 guesses size the first stage closer to
//! optimal, so (b) should reach the same sample in fewer stages —
//! the "very good performance" the paper concedes — while (a) needs
//! no statistics maintenance and covers every expression.
//!
//! Usage: `abl_prestored [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("abl_prestored");

    let mut bench = BenchReport::new("abl_prestored");
    bench.config_kv("runs", opts.runs as u64);
    // The join runs under min(quota, 2.5 s).
    let full = opts.quota.unwrap_or(Duration::from_secs(10));
    bench.config_kv("quota_secs", full.as_secs_f64());

    for (wname, kind, quota) in [
        (
            "select(5000)",
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            full,
        ),
        (
            "join(70000)",
            WorkloadKind::Join {
                output_tuples: 70_000,
            },
            full.min(Duration::from_millis(2500)),
        ),
    ] {
        let rows = [("run-time (paper)", false), ("histogram-seeded", true)].map(
            |(label, seed_from_stats)| {
                let mut cfg = TrialConfig::paper(kind, quota, 12.0);
                cfg.seed_from_stats = seed_from_stats;
                (label.to_string(), cfg, common::row_seed(wname, 2, 12.0))
            },
        );
        let title = format!(
            "Ablation — run-time vs prestored selectivities, {wname}, quota {:.1} s, {} runs/row",
            quota.as_secs_f64(),
            opts.runs
        );
        common::paper_table(
            &opts,
            &mut bench,
            &title,
            "source",
            &format!("{wname} "),
            rows,
        );
    }
    common::write_bench(&opts, &bench);
}
