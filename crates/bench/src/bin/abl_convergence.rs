//! Ablation — per-stage convergence of the running estimate.
//!
//! Runs the Figure 5.1 selection workload (5 000 output tuples) once
//! per swept `d_β` with a recording [`Tracer`] attached, then prints
//! the `convergence` trace records as a per-stage table: estimate,
//! relative 95% CI half-width, blocks drawn, and quota spent. This is
//! the trajectory the paper's tables summarize into a single row —
//! watching it per stage shows *how* the interval tightens as stages
//! bank more sample.
//!
//! The machine-readable `BENCH_abl_convergence.json` stores the full
//! trajectory per row — the raw convergence records, clock-charged
//! and therefore deterministic.
//!
//! Usage: `abl_convergence [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, Workload, WorkloadKind};
use eram_core::{StoppingCriterion, TraceKind, Tracer};
use eram_storage::json;

mod common;

fn field_f64(rec: &eram_core::TraceRecord, name: &str) -> f64 {
    rec.fields.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn main() {
    let opts = common::Opts::parse("abl_convergence");
    let quota = opts.quota.unwrap_or(Duration::from_secs(10));

    let mut bench = BenchReport::new("abl_convergence");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("output_tuples", 5_000u64);

    for (i, d_beta) in [0.0, 12.0, 24.0, 48.0].into_iter().enumerate() {
        let seed = common::row_seed("abl-convergence", i as u64, d_beta);
        let mut workload = Workload::build_on(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            seed,
            0,
        );
        let tracer = Tracer::recording(workload.db.disk().clock().clone());
        let out = workload
            .db
            .count(workload.expr.clone())
            .within(quota)
            .strategy(eram_core::OneAtATimeInterval::new(d_beta))
            .stopping(StoppingCriterion::SoftDeadline)
            .seed(seed ^ 0x5EED)
            .tracer(tracer.clone())
            .run()
            .expect("experiment query must execute");

        println!(
            "Convergence — selection 5000/10000, d_beta {d_beta}, quota {:.1} s (truth {})",
            quota.as_secs_f64(),
            workload.truth
        );
        println!(
            "{:>5} | {:>10} | {:>8} | {:>7} | {:>9}",
            "stage", "estimate", "rel.hw", "blocks", "spent(s)"
        );
        println!("{}", "-".repeat(52));
        let records = tracer.records();
        let convergence: Vec<&eram_core::TraceRecord> = records
            .iter()
            .filter(|r| r.kind == TraceKind::Stage && r.name == "convergence")
            .collect();
        for rec in &convergence {
            println!(
                "{:>5} | {:>10.1} | {:>8.4} | {:>7.0} | {:>9.3}",
                rec.stage,
                field_f64(rec, "estimate"),
                field_f64(rec, "rel_half_width"),
                field_f64(rec, "blocks_stage"),
                field_f64(rec, "spent_ns") / 1e9,
            );
        }
        println!(
            "final estimate {:.1} after {} stages ({} trace records)\n",
            out.estimate.estimate,
            out.report.stages.len(),
            tracer.record_count()
        );
        bench.push_row(
            format!("d_beta={d_beta}"),
            json!({
                "truth": workload.truth,
                "final_estimate": out.estimate.estimate,
                "stages": out.report.stages.len(),
                "trajectory": convergence,
            }),
        );
    }
    common::write_bench(&opts, &bench);
}
