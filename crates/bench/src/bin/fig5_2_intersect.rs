//! Regenerates **Figure 5.2** — performance of the time-control
//! algorithm for the intersection operation.
//!
//! Paper setup: `COUNT(r₁ ∩ r₂)` over two 10 000-tuple relations,
//! time quota 2.5 s, stage-1 selectivity `1/max(|r₁|,|r₂|)`
//! (Figure 3.3), full-fulfillment cluster sampling,
//! `d_β ∈ {0, 12, 24, 48, 72}`, 200 runs per row. The paper observed
//! that at high `d_β` "the amount of time left was not enough for a
//! further stage" and that blocks *decrease* from `d_β = 48` to `72`
//! "due to the increase in the overhead and the increase in the time
//! complexity of Intersection".
//!
//! Usage: `fig5_2_intersect [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("fig5_2_intersect");
    let quota = opts.quota.unwrap_or(Duration::from_millis(2500));
    let overlap = 5_000u64;

    let mut bench = BenchReport::new("fig5_2_intersect");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("overlap", overlap);

    let rows = [0.0, 12.0, 24.0, 48.0, 72.0].map(|d_beta| {
        (
            format!("{d_beta}"),
            TrialConfig::paper(WorkloadKind::Intersect { overlap }, quota, d_beta),
            common::row_seed("fig5.2", overlap, d_beta),
        )
    });
    let title = format!(
        "Figure 5.2 — Intersection, overlap {overlap}, quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "d_beta", "d_beta=", rows);
    common::write_bench(&opts, &bench);
}
