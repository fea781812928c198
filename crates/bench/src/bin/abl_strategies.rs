//! Ablation — **time-control strategy comparison** (Section 3.3).
//!
//! The paper argues qualitatively that One-at-a-Time-Interval is
//! simpler and likely more efficient than Single-Interval (which
//! "requires more effort in computing the expected time cost ... a
//! very expensive procedure") and mentions an undescribed heuristic.
//! This ablation puts all three on the same workloads and reports the
//! paper's columns, so the trade-off (risk control vs. quota
//! utilization vs. stages) is measurable.
//!
//! Usage: `abl_strategies [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};
use std::sync::Arc;

use eram_core::{HeuristicStrategy, OneAtATimeInterval, SingleInterval, TimeControlStrategy};

mod common;

fn main() {
    let opts = common::Opts::parse("abl_strategies");
    let full = opts.quota.unwrap_or(Duration::from_secs(10));
    let workloads: [(&str, WorkloadKind, Duration); 2] = [
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
    ];

    let mut bench = BenchReport::new("abl_strategies");
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("quota_secs", full.as_secs_f64());

    for (wname, kind, quota) in workloads {
        let quota_secs = quota.as_secs_f64();
        let strategies: Vec<(&str, Arc<dyn TimeControlStrategy>)> = vec![
            (
                "one-at-a-time(d=12)",
                Arc::new(OneAtATimeInterval::new(12.0)),
            ),
            ("one-at-a-time(d=0)", Arc::new(OneAtATimeInterval::new(0.0))),
            ("single-interval(d=2)", Arc::new(SingleInterval::new(2.0))),
            (
                "heuristic(0.5,1.25)",
                Arc::new(HeuristicStrategy::new(0.5, 1.25)),
            ),
        ];
        let rows = strategies.into_iter().map(|(sname, strategy)| {
            let mut cfg = TrialConfig::paper(kind, quota, 12.0);
            cfg.engine.strategy = strategy;
            let seed = common::row_seed("abl-strategy", quota_secs.to_bits(), 0.0);
            (sname.to_string(), cfg, seed)
        });
        let title = format!(
            "Ablation — strategies on {wname}, quota {quota_secs:.1} s, {} runs/row",
            opts.runs
        );
        common::paper_table(
            &opts,
            &mut bench,
            &title,
            "strategy",
            &format!("{wname} "),
            rows,
        );
    }
    common::write_bench(&opts, &bench);
}
