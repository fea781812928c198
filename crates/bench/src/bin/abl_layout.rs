//! Ablation: **block layout for sampled-block traversal**.
//!
//! Sweeps `layout ∈ {row, columnar}` over the Figure 5.1 selection
//! workload and the Figure 5.3 join workload (2.5 s quota,
//! `d_β = 12`) and reports, per layout, the usual paper columns plus
//! the *wall-clock* time the sweep's trials took and the speedup over
//! the row layout. The simulated-clock columns must be **identical**
//! within each workload — the columnar layout only changes how the
//! pure-CPU kernels walk a decoded block (per-column predicate
//! bitmaps, key columns read off typed arrays) — and the binary
//! asserts exactly that before printing.
//!
//! The selection workload is where the layout pays: the predicate
//! runs over one typed array and only survivors are ever materialized
//! as row tuples. The join workload bounds the cost of the other
//! extreme — ingest must materialize every sampled row anyway, so the
//! layouts should be within noise of each other there.
//!
//! Trials run serially so the wall-clock column isolates the layout
//! choice. The emitted `BENCH_abl_layout.json` carries per-row wall
//! stats and the trial-0 phase profile.
//!
//! Usage: `abl_layout [--runs N] [--quota SECS] [--jsonl] [--json PATH]`

use std::time::{Duration, Instant};

use eram_bench::harness::run_trial_with;
use eram_bench::{
    render_table, BenchReport, MeasuredRow, PaperRow, RowStats, TrialConfig, TrialResult,
    WorkloadKind,
};
use eram_core::BlockLayout;
use eram_storage::SeedSeq;

mod common;

fn main() {
    let opts = common::Opts::parse("abl_layout");
    let quota = Duration::from_secs_f64(opts.quota.unwrap_or(2.5));
    let output_tuples = 70_000u64;
    let d_beta = 12.0;

    let mut bench = BenchReport::new("abl_layout");
    bench.config_kv("quota_secs", quota.as_secs_f64());
    bench.config_kv("runs", opts.runs as u64);
    bench.config_kv("d_beta", d_beta);
    bench.config_kv("output_tuples", output_tuples);

    // Selection caps at the base relation size (10 000 tuples); the
    // join uses the Figure 5.3 sizing.
    let workloads = [
        (
            "select",
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
        ),
        ("join", WorkloadKind::Join { output_tuples }),
    ];
    let mut all_rows: Vec<PaperRow> = Vec::new();
    let mut walls: Vec<(String, f64)> = Vec::new();
    for (wname, kind) in workloads {
        let seeds = SeedSeq::new(common::row_seed("abl-layout", output_tuples, d_beta));
        let mut rows: Vec<PaperRow> = Vec::new();
        for (label, layout) in [
            ("row", BlockLayout::Row),
            ("columnar", BlockLayout::Columnar),
        ] {
            let mut cfg = TrialConfig::paper(kind, quota, d_beta);
            cfg.engine.block_layout = layout;
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
                    "{wname}: layout={label} changed the simulated results — determinism broken"
                );
            }
            bench.push_measured(
                format!("{wname} layout={label}"),
                &MeasuredRow {
                    stats,
                    wall_secs,
                    profile,
                },
            );
            rows.push(PaperRow {
                label: format!("{wname}/{label}"),
                stats,
            });
            walls.push((format!("{wname}/{label}"), wall));
        }
        all_rows.append(&mut rows);
    }

    let title = format!(
        "Ablation — block layout, select+join, {output_tuples} output tuples, quota {:.1} s, {} runs/row",
        quota.as_secs_f64(),
        opts.runs
    );
    common::emit(&opts, &title, "layout", &all_rows);
    println!("{}", render_table(&title, "layout", &all_rows));
    println!("simulated columns identical under both layouts ✓");
    println!(
        "{:>16} | {:>9} | {:>7}",
        "workload/layout", "wall (s)", "speedup"
    );
    for pair in walls.chunks(2) {
        let base = pair[0].1;
        for (label, wall) in pair {
            println!(
                "{label:>16} | {wall:>9.3} | {:>6.2}x",
                if *wall > 0.0 { base / wall } else { 1.0 }
            );
        }
    }
    common::write_bench(&opts, &bench);
}
