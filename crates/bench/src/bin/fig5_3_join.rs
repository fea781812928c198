//! Regenerates **Figure 5.3** — performance of the time-control
//! algorithm for the join operation.
//!
//! Paper setup: `COUNT(r₁ ⋈ r₂)` over two 10 000-tuple relations with
//! 70 000 output tuples (actual selectivity `70 000/10 000² =
//! 7·10⁻⁴`), one join attribute, time quota 2.5 s, **assumed stage-1
//! selectivity 0.1** ("if the maximum selectivity of 1 were assumed,
//! the sample size was so small that the system clock did not provide
//! enough accuracy"), `d_β` sweep, 200 runs per row. The paper
//! observed early termination at `d_β ∈ {24, 48, 72}` — the leftover
//! could not fund another full-fulfillment stage.
//!
//! Usage: `fig5_3_join [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("fig5_3_join");
    let quota = opts.quota.unwrap_or(Duration::from_millis(2500));
    let output_tuples = 70_000u64;

    let mut bench = BenchReport::new("fig5_3_join");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("output_tuples", output_tuples);

    let rows = [0.0, 12.0, 24.0, 48.0, 72.0].map(|d_beta| {
        (
            format!("{d_beta}"),
            TrialConfig::paper(WorkloadKind::Join { output_tuples }, quota, d_beta),
            common::row_seed("fig5.3", output_tuples, d_beta),
        )
    });
    let title = format!(
        "Figure 5.3 — Join, {output_tuples} output tuples, quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "d_beta", "d_beta=", rows);
    common::write_bench(&opts, &bench);
}
