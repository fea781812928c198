//! Ablation — **full vs. partial fulfillment** (Section 4 /
//! [HoOT 88a]).
//!
//! "The full fulfillment approach has the advantage of making the
//! most use of the sampled data, and hence it is time-efficient. The
//! disadvantage is that the intermediate results, from all the
//! previous stages, have to be kept ... (Another implementation, a
//! partial fulfillment, is less costly)". The paper also suggests
//! partial fulfillment "may have its place" to use small leftover
//! slices that cannot fund a full-fulfillment stage.
//!
//! This ablation runs the intersection workload under both plans and
//! reports points covered (via blocks and estimate quality) and the
//! usual time-control columns.
//!
//! Usage: `abl_fulfillment [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};
use eram_core::Fulfillment;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_fulfillment");
    let quota = opts.quota.unwrap_or(Duration::from_millis(2500));
    let kind = WorkloadKind::Intersect { overlap: 5_000 };
    let d_beta = 12.0;

    let mut bench = BenchReport::new("abl_fulfillment");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);

    let rows = [
        ("full", Fulfillment::Full),
        ("partial", Fulfillment::Partial),
    ]
    .map(|(name, fulfillment)| {
        let mut cfg = TrialConfig::paper(kind, quota, d_beta);
        cfg.engine.fulfillment = fulfillment;
        let seed = common::row_seed("abl-fulfill", 0, d_beta);
        (name.to_string(), cfg, seed)
    });
    let title = format!(
        "Ablation — full vs partial fulfillment, intersect(5000), quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "plan", "", rows);
    common::write_bench(&opts, &bench);
}
