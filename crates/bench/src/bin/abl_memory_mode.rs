//! Ablation — **disk-resident vs. main-memory evaluation**
//! (Section 4's anticipated variant).
//!
//! "We have made a design decision that all the input relations and
//! all the intermediate relations are always kept on disks ... A
//! main-memory-only version of the prototype DBMS is also being
//! developed now ... We believe that when large main memory is
//! available, the sampling approach with a time-control mechanism can
//! be efficiently implemented and will be very promising for
//! real-time database applications."
//!
//! This ablation quantifies that belief: the same intersection and
//! join workloads under both modes. Main-memory evaluation skips all
//! temporary-file writes and re-reads, so a given quota buys far more
//! sample blocks — and a correspondingly better estimate.
//!
//! Usage: `abl_memory_mode [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};
use eram_core::MemoryMode;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_memory_mode");
    let quota = opts.quota.unwrap_or(Duration::from_millis(2500));
    let d_beta = 12.0;

    let mut bench = BenchReport::new("abl_memory_mode");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);

    for (wname, kind) in [
        (
            "intersect(5000)",
            WorkloadKind::Intersect { overlap: 5_000 },
        ),
        (
            "join(70000)",
            WorkloadKind::Join {
                output_tuples: 70_000,
            },
        ),
    ] {
        let rows = [
            ("disk-resident", MemoryMode::DiskResident, 0usize),
            ("disk+cache(4k)", MemoryMode::DiskResident, 4_096),
            ("main-memory", MemoryMode::MainMemory, 0),
        ]
        .map(|(name, memory, cache_blocks)| {
            let mut cfg = TrialConfig::paper(kind, quota, d_beta);
            cfg.cache_blocks = cache_blocks;
            cfg.engine.memory = memory;
            (name.to_string(), cfg, common::row_seed(wname, 1, d_beta))
        });
        let title = format!(
            "Ablation — disk vs main-memory evaluation, {wname}, quota {:.1} s, {} runs/row",
            quota.as_secs_f64(),
            opts.runs
        );
        common::paper_table(
            &opts,
            &mut bench,
            &title,
            "mode",
            &format!("{wname} "),
            rows,
        );
    }
    common::write_bench(&opts, &bench);
}
