//! Ablation — estimator degradation under injected storage faults.
//!
//! Runs the Figure 5.1 selection workload (5 000 output tuples,
//! `d_β = 12`) while the device suffers seeded transient read errors
//! and permanent block corruption at swept rates. The health columns
//! show the trade the engine makes: every trial still returns an
//! estimate within the quota, but lost blocks shrink the sample, so
//! accuracy decays gracefully instead of the query failing.
//!
//! Usage: `abl_faults [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};
use eram_storage::FaultPlan;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_faults");
    let quota = opts.quota.unwrap_or(Duration::from_secs(10));
    let d_beta = 12.0;

    // (label, transient rate, corruption rate)
    let sweep = [
        ("clean", 0.0, 0.0),
        ("t=1%", 0.01, 0.0),
        ("t=5%", 0.05, 0.0),
        ("t=10%", 0.10, 0.0),
        ("c=1%", 0.0, 0.01),
        ("c=5%", 0.0, 0.05),
        ("t=5% c=1%", 0.05, 0.01),
    ];

    let mut bench = BenchReport::new("abl_faults");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);

    let rows = sweep
        .iter()
        .enumerate()
        .map(|(i, (label, transient, corrupt))| {
            let mut cfg = TrialConfig::paper(
                WorkloadKind::Select {
                    output_tuples: 5_000,
                },
                quota,
                d_beta,
            );
            if *transient > 0.0 || *corrupt > 0.0 {
                cfg.fault_plan = Some(
                    FaultPlan::new(0xFA17_0000 + i as u64)
                        .with_transient(*transient)
                        .with_corruption(*corrupt),
                );
            }
            let seed = common::row_seed("abl-faults", i as u64, d_beta);
            (label.to_string(), cfg, seed)
        });
    let title = format!(
        "Ablation — storage faults, selection 5000/10000, d_beta {d_beta}, quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "faults", "", rows);
    common::write_bench(&opts, &bench);
}
