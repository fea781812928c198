//! Regenerates **Figure 5.1** — performance of the time-control
//! algorithm for the selection operation.
//!
//! Paper setup: `COUNT(σ(r))` over a 10 000-tuple relation, time
//! quota 10 s, selection formula with one integer comparison, assumed
//! maximum selectivity 1 at the first stage; sub-tables for 0, 5 000,
//! and 10 000 output tuples; `d_β ∈ {0, 12, 24, 48, 72}`;
//! 200 independent runs per row.
//!
//! Usage: `fig5_1_select [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("fig5_1_select");
    let quota = opts.quota.unwrap_or(Duration::from_secs(10));
    let d_betas = [0.0, 12.0, 24.0, 48.0, 72.0];

    let mut bench = BenchReport::new("fig5_1_select");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);

    for output_tuples in [0u64, 5_000, 10_000] {
        let rows = d_betas.map(|d_beta| {
            (
                format!("{d_beta}"),
                TrialConfig::paper(WorkloadKind::Select { output_tuples }, quota, d_beta),
                common::row_seed("fig5.1", output_tuples, d_beta),
            )
        });
        let title = format!(
            "Figure 5.1 — Selection, {output_tuples} output tuples, quota {:.1} s, {} runs/row",
            quota.as_secs_f64(),
            opts.runs
        );
        let prefix = format!("out={output_tuples} d_beta=");
        common::paper_table(&opts, &mut bench, &title, "d_beta", &prefix, rows);
    }
    common::write_bench(&opts, &bench);
}
