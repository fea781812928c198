//! Ablation — **adaptive vs. fixed-form cost formulas** (Section 4).
//!
//! "We think that using a fixed-form cost formula for an operation
//! (i.e., one with all the values of coefficients fixed) is not
//! flexible enough..." This ablation quantifies the claim: the same
//! workload is run with (a) adaptive coefficients from generic
//! initial values (the paper's design), (b) the same generic values
//! *frozen* (fixed-form with a bad guess), and (c) frozen *oracle*
//! values derived from the true device profile (the best any
//! fixed-form formula could do — but note the oracle cannot track
//! per-query specifics either).
//!
//! Usage: `abl_adaptive_costs [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};
use eram_core::CostModel;
use eram_storage::DeviceProfile;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_adaptive_costs");
    let quota = opts.quota.unwrap_or(Duration::from_secs(10));
    let kind = WorkloadKind::Select {
        output_tuples: 5_000,
    };
    let d_beta = 12.0;

    let models: Vec<(&str, CostModel)> = vec![
        ("adaptive", CostModel::generic_default()),
        ("frozen-generic", CostModel::generic_default().frozen()),
        (
            "frozen-oracle",
            CostModel::oracle(&DeviceProfile::sun_3_60(), 5.0).frozen(),
        ),
    ];

    let mut bench = BenchReport::new("abl_adaptive_costs");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);

    let rows = models.into_iter().map(|(name, model)| {
        let mut cfg = TrialConfig::paper(kind, quota, d_beta);
        cfg.engine.cost_model = Some(model);
        let seed = common::row_seed("abl-adaptive", 0, d_beta);
        (name.to_string(), cfg, seed)
    });
    let title = format!(
        "Ablation — adaptive vs fixed cost formulas, select(5000), quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "model", "", rows);
    common::write_bench(&opts, &bench);
}
