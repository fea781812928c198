//! Ablation — **random vs. clustered tuple placement**.
//!
//! The paper's experiments state, almost in passing, "Tuples in a
//! relation are randomly distributed" — a load-bearing sentence:
//! cluster sampling (whole disk blocks as sample units) has variance
//! proportional to the *between-block* variance of the quantity being
//! counted. With qualifying tuples scattered randomly, a block total
//! is a small binomial and the cluster estimator behaves like simple
//! random sampling; with qualifying tuples packed into contiguous
//! blocks (a clustered index, a sorted load), block totals are all-or-
//! nothing and the same sample size buys a far worse estimate.
//!
//! Usage: `abl_clustering [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("abl_clustering");
    let quota = opts.quota.unwrap_or(Duration::from_secs(10));
    let d_beta = 12.0;
    let output_tuples = 2_000u64;

    let mut bench = BenchReport::new("abl_clustering");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);
    bench.config_kv("output_tuples", output_tuples);

    let rows = [
        ("random (paper)", WorkloadKind::Select { output_tuples }),
        ("clustered", WorkloadKind::SelectClustered { output_tuples }),
    ]
    .map(|(label, kind)| {
        let cfg = TrialConfig::paper(kind, quota, d_beta);
        (label.to_string(), cfg, common::row_seed(label, 3, d_beta))
    });
    let title = format!(
        "Ablation — tuple placement, select({output_tuples}), quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::paper_table(&opts, &mut bench, &title, "layout", "", rows);
    println!(
        "Same control loop, same blocks — the clustered layout's estimate error is the\n\
         between-block variance the paper dodged by loading tuples in random order."
    );
    common::write_bench(&opts, &bench);
}
