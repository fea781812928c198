//! Ablation — **the buffer cache under the disk-resident plan**.
//!
//! "We have made a design decision that all the input relations and
//! all the intermediate relations are always kept on disks": every
//! operator writes its output and every binary operator re-reads its
//! sorted runs at each merge. An LRU buffer cache in front of the
//! device serves a repeated run re-read from memory, so a given quota
//! buys more sample blocks while the Section 4 cost formulas, and
//! with them `d_β`'s control of the risk, stay those of the paper.
//!
//! This ablation runs the same intersection and join workloads with
//! no cache and with a 4 096-block cache.
//!
//! Usage: `abl_buffer_cache [--runs N] [--quota SECS] [--json PATH]`

use std::time::Duration;

use eram_bench::{BenchReport, TrialConfig, WorkloadKind};

mod common;

fn main() {
    let opts = common::Opts::parse("abl_buffer_cache");
    let quota = opts.quota.unwrap_or(Duration::from_millis(2500));
    let d_beta = 12.0;

    let mut bench = BenchReport::new("abl_buffer_cache");
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
        let rows =
            [("disk-resident", 0usize), ("disk+cache(4k)", 4_096)].map(|(name, cache_blocks)| {
                let mut cfg = TrialConfig::paper(kind, quota, d_beta);
                cfg.cache_blocks = cache_blocks;
                (name.to_string(), cfg, common::row_seed(wname, 1, d_beta))
            });
        let title = format!(
            "Ablation — buffer cache under disk-resident evaluation, {wname}, quota {:.1} s, {} runs/row",
            quota.as_secs_f64(),
            opts.runs
        );
        common::paper_table(
            &opts,
            &mut bench,
            &title,
            "store",
            &format!("{wname} "),
            rows,
        );
    }
    common::write_bench(&opts, &bench);
}
