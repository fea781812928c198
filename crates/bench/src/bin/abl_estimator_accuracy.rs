//! Ablation — **estimator accuracy vs. sample fraction** ([HoOT 88]).
//!
//! The paper defers estimator-quality results to its companion papers
//! ("We do not report the performance of the estimation, which is
//! already reported in [HoOT 88] ... and in [HouO 88]"). This
//! ablation reproduces that companion experiment on our substrate:
//! for each operator, sweep the sample fraction and report mean
//! relative error and 95 % CI coverage of the count estimators
//! (`û` for select/join/intersect, Goodman for projection).
//!
//! Usage: `abl_estimator_accuracy [--runs N] [--json PATH]`

use eram_bench::{BenchReport, Workload, WorkloadKind};
use eram_core::{ops, term_estimate, term_estimate_with, EngineConfig};
use eram_relalg::PieRewrite;
use eram_sampling::DistinctEstimator;
use eram_storage::{json, Rng, SeedSeq};

mod common;

/// The workload's physical tree after one stage at a fixed fraction —
/// no time control, pure estimator quality.
fn one_stage(w: &Workload, seed: u64, fraction: f64) -> ops::PhysTree {
    let config = EngineConfig::default();
    let rewrite = PieRewrite::rewrite(&w.expr).unwrap();
    let mut rng = Rng::seed_from_u64(seed ^ 0xFACE);
    let (catalog, disk) = (w.db.catalog(), w.db.disk());
    let mut tree =
        ops::PhysTree::build(&rewrite.terms[0].expr, catalog, disk, &config, &mut rng).unwrap();
    let mut env = ops::StageEnv::new(disk.clone(), &config, None, fraction);
    tree.advance(&mut env).expect("no deadline to abort");
    tree
}

fn measure(
    kind: WorkloadKind,
    name: &str,
    fractions: &[f64],
    runs: usize,
    bench: &mut BenchReport,
) {
    println!("Estimator accuracy — {name} ({runs} runs per fraction, 95% CI coverage)");
    println!(
        "{:>9} | {:>12} | {:>10}",
        "fraction", "mean rel.err", "coverage%"
    );
    println!("{}", "-".repeat(38));
    let seeds = SeedSeq::new(0xACC0);
    for &fraction in fractions {
        let mut errs = Vec::new();
        let mut covered = 0usize;
        for run in 0..runs {
            let seed = seeds.child(fraction.to_bits()).derive(run as u64);
            let w = Workload::build(kind, seed);
            let truth = w.truth as f64;
            let est = term_estimate(&one_stage(&w, seed, fraction));
            if truth > 0.0 {
                errs.push((est.estimate - truth).abs() / truth);
            }
            let (lo, hi) = est.ci(0.95);
            if lo <= truth && truth <= hi {
                covered += 1;
            }
        }
        let mean_rel_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let coverage_pct = 100.0 * covered as f64 / runs as f64;
        println!("{fraction:>9.3} | {mean_rel_err:>12.4} | {coverage_pct:>10.1}");
        bench.push_row(
            format!("{name} f={fraction}"),
            json!({
                "fraction": fraction,
                "mean_rel_err": mean_rel_err,
                "coverage_pct": coverage_pct,
            }),
        );
    }
    println!();
}

/// Compares the distinct-count estimators on the projection workload
/// (Goodman is the paper's choice; Chao1/jackknife are the stable
/// alternatives this library adds).
fn measure_distinct(fractions: &[f64], runs: usize, bench: &mut BenchReport) {
    let kind = WorkloadKind::Project { groups: 100 };
    println!("Distinct-count estimators — project workload, truth 100 groups ({runs} runs)");
    println!(
        "{:>9} | {:>14} | {:>14} | {:>14}",
        "fraction", "goodman", "chao1", "jackknife1"
    );
    println!("{}", "-".repeat(60));
    let seeds = SeedSeq::new(0xD157);
    for &fraction in fractions {
        let mut errs = [0.0f64; 3];
        for run in 0..runs {
            let seed = seeds.child(fraction.to_bits()).derive(run as u64);
            let w = Workload::build(kind, seed);
            let truth = w.truth as f64;
            let tree = one_stage(&w, seed, fraction);
            for (i, est) in [
                DistinctEstimator::Goodman,
                DistinctEstimator::Chao1,
                DistinctEstimator::Jackknife1,
            ]
            .into_iter()
            .enumerate()
            {
                let e = term_estimate_with(&tree, est);
                errs[i] += (e.estimate - truth).abs() / truth;
            }
        }
        let [goodman, chao1, jackknife1] = errs.map(|e| e / runs as f64);
        println!("{fraction:>9.3} | {goodman:>14.3} | {chao1:>14.3} | {jackknife1:>14.3}");
        bench.push_row(
            format!("distinct f={fraction}"),
            json!({
                "fraction": fraction,
                "goodman": goodman,
                "chao1": chao1,
                "jackknife1": jackknife1,
            }),
        );
    }
    println!();
}

fn main() {
    let opts = common::Opts::parse("abl_estimator_accuracy");
    let runs = opts.runs.min(400);

    let mut bench = BenchReport::new("abl_estimator_accuracy");
    bench.config_kv("runs", runs as u64);

    measure(
        WorkloadKind::Select {
            output_tuples: 5_000,
        },
        "COUNT(select), truth 5000",
        &[0.01, 0.02, 0.05, 0.1, 0.2],
        runs,
        &mut bench,
    );
    measure(
        WorkloadKind::Join {
            output_tuples: 70_000,
        },
        "COUNT(join), truth 70000",
        &[0.01, 0.02, 0.05, 0.1],
        runs,
        &mut bench,
    );
    measure(
        WorkloadKind::Intersect { overlap: 5_000 },
        "COUNT(intersect), truth 5000",
        &[0.02, 0.05, 0.1, 0.2],
        runs,
        &mut bench,
    );
    measure(
        WorkloadKind::Project { groups: 100 },
        "COUNT(project), truth 100 groups",
        &[0.01, 0.02, 0.05, 0.1],
        runs,
        &mut bench,
    );
    measure_distinct(&[0.01, 0.05, 0.2, 0.5], runs, &mut bench);
    common::write_bench(&opts, &bench);
}
