//! Ablation: **worker threads for the pure-CPU stage work**.
//!
//! Sweeps `workers ∈ {1, 2, 4, 8}` over the Figure 5.3 join workload
//! (`COUNT(r₁ ⋈ r₂)`, 70 000 output tuples, 2.5 s quota, `d_β = 12`)
//! and reports, per worker count, the usual paper columns plus the
//! *wall-clock* time the sweep's trials took and the speedup over one
//! worker. The simulated-clock columns must be **identical** in every
//! row — charges, traces, and estimator state all stay on the calling
//! thread in canonical order; workers only decode blocks and merge
//! runs — and the binary asserts exactly that before printing.
//!
//! Trials run serially here (unlike `run_row`) so the wall-clock
//! column isolates intra-stage parallelism instead of mixing it with
//! inter-trial parallelism. The emitted `BENCH_abl_parallel.json`
//! carries per-row wall stats and the trial-0 phase profile, so the
//! flight recorder shows *where* the speedup lands (block decode and
//! run merge shrink; the serial phases do not).
//!
//! Usage: `abl_parallel [--runs N] [--quota SECS] [--jsonl] [--json PATH]`

use std::time::{Duration, Instant};

use eram_bench::harness::run_trial_with;
use eram_bench::{
    render_table, BenchReport, MeasuredRow, PaperRow, RowStats, TrialConfig, TrialResult,
    WorkloadKind,
};
use eram_storage::SeedSeq;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_parallel");
    let quota = Duration::from_secs_f64(opts.quota.unwrap_or(2.5));
    let output_tuples = 70_000u64;
    let d_beta = 12.0;
    let seeds = SeedSeq::new(common::row_seed("abl-parallel", output_tuples, d_beta));

    let mut bench = BenchReport::new("abl_parallel");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);
    bench.config_kv("output_tuples", output_tuples);

    let mut rows: Vec<PaperRow> = Vec::new();
    let mut walls: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut cfg = TrialConfig::paper(WorkloadKind::Join { output_tuples }, quota, d_beta);
        cfg.engine.workers = workers;
        let started = Instant::now();
        let mut trials: Vec<TrialResult> = Vec::with_capacity(opts.runs);
        let mut wall_secs: Vec<f64> = Vec::with_capacity(opts.runs);
        let mut profile = None;
        for i in 0..opts.runs {
            let trial_started = Instant::now();
            let (trial, prof) = run_trial_with(&cfg, seeds.derive(i as u64), i == 0);
            wall_secs.push(trial_started.elapsed().as_secs_f64());
            trials.push(trial);
            if prof.is_some() {
                profile = prof;
            }
        }
        let wall = started.elapsed().as_secs_f64();
        let stats = RowStats::aggregate(&trials);
        if let Some(first) = rows.first() {
            assert_eq!(
                first.stats, stats,
                "workers={workers} changed the simulated results — determinism broken"
            );
        }
        bench.push_measured(
            format!("workers={workers}"),
            &MeasuredRow {
                stats,
                wall_secs,
                profile,
            },
        );
        rows.push(PaperRow {
            label: format!("{workers}"),
            stats,
        });
        walls.push((workers, wall));
    }

    let title = format!(
        "Ablation — worker threads, join {output_tuples} output tuples, quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::emit(&opts, &title, "workers", &rows);
    println!("{}", render_table(&title, "workers", &rows));
    println!("simulated columns identical at every worker count ✓");
    println!("{:>8} | {:>9} | {:>7}", "workers", "wall (s)", "speedup");
    let base = walls[0].1;
    for (workers, wall) in &walls {
        println!(
            "{workers:>8} | {wall:>9.3} | {:>6.2}x",
            if *wall > 0.0 { base / wall } else { 1.0 }
        );
    }
    common::write_bench(&opts, &bench);
}
