//! Ablation — **per-group stopping for grouped aggregates**.
//!
//! The paper's time-control loop stops a query as a whole; the
//! grouped-aggregate extension stops each group on its own precision
//! target, freezing converged groups so the remaining quota
//! concentrates on the loose ones. This ablation measures what that
//! buys on a skewed grouped relation:
//!
//! 1. **Precision sweep** — GROUP BY SUM under `GroupErrorBound` at
//!    several targets: simulated time to deliver, how many groups
//!    froze early, and the realized per-group relative error.
//! 2. **Hard-deadline sweep** — the same query under plain quotas:
//!    per-group error and 95 % CI coverage of the partial answers an
//!    abort leaves behind (the paper's "approximate answer instead of
//!    missed deadline" contract, now per group).
//!
//! Usage: `abl_groupby [--runs N] [--json PATH]`

use std::collections::BTreeMap;
use std::time::Duration;

use eram_bench::BenchReport;
use eram_core::{AggregateFn, Database, StoppingCriterion};
use eram_relalg::{eval, CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, Schema, SeedSeq, Tuple, Value};

mod common;

/// Group layout: (tuples, base amount, amount spread). Group 0 is
/// large and near-constant (freezes fast); group 1 is the skew tail
/// (wide dispersion, slow to converge); groups 2–3 sit in between.
const GROUPS: [(i64, i64, i64); 4] = [
    (5_000, 1_000, 3),
    (3_000, 0, 9_999),
    (1_500, 200, 400),
    (500, 800, 50),
];

fn grouped_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("grp", ColumnType::Int),
    ])
    .padded_to(200);
    let mut tuples = Vec::new();
    let mut k = 0i64;
    for (g, (n, base, spread)) in GROUPS.into_iter().enumerate() {
        for i in 0..n {
            tuples.push(Tuple::new(vec![
                Value::Int(k),
                Value::Int(base + (i * 37) % spread.max(1)),
                Value::Int(g as i64),
            ]));
            k += 1;
        }
    }
    // Interleave the groups so sampled blocks mix them.
    tuples.sort_by_key(|t| t.value(0).as_int().unwrap() % 997);
    db.load_relation("g", schema, tuples).unwrap();
    db
}

fn query_expr() -> Expr {
    Expr::relation("g").select(Predicate::col_cmp(0, CmpOp::Lt, 10_000))
}

/// Exact per-group SUM of `amount` under the query expression.
fn truth_sums(db: &Database) -> BTreeMap<i64, f64> {
    let mut out = BTreeMap::new();
    for t in eval::eval(&query_expr(), db.catalog()).unwrap().iter() {
        let key = t.value(2).as_int().unwrap();
        *out.entry(key).or_insert(0.0) += t.value(1).as_int().unwrap() as f64;
    }
    out
}

fn measure_precision_sweep(runs: usize, bench: &mut BenchReport) {
    println!("GROUP BY SUM — per-group stopping, precision sweep ({runs} runs per target)");
    println!(
        "{:>7} | {:>10} | {:>12} | {:>12}",
        "target", "frozen", "mean rel.err", "sim ms"
    );
    println!("{}", "-".repeat(50));
    let seeds = SeedSeq::new(0x6B09);
    for target in [0.05f64, 0.10, 0.20] {
        let mut frozen = 0.0f64;
        let mut rel_err = 0.0f64;
        let mut sim_ms = 0.0f64;
        for run in 0..runs {
            let seed = seeds.child(target.to_bits()).derive(run as u64);
            let mut db = grouped_db(seed);
            let truth = truth_sums(&db);
            let out = db
                .aggregate(
                    AggregateFn::SumBy {
                        column: 1,
                        group: 2,
                    },
                    query_expr(),
                )
                .within(Duration::from_secs(60))
                .stopping(StoppingCriterion::GroupErrorBound {
                    target,
                    confidence: 0.95,
                    min_tuples: 25,
                })
                .seed(seed ^ 0x9B0B)
                .run()
                .expect("grouped query must execute");
            sim_ms += out.report.total_elapsed.as_secs_f64() * 1_000.0;
            for g in &out.report.groups {
                if g.converged_at_stage.is_some() {
                    frozen += 1.0;
                }
                let t = truth[&g.key];
                rel_err += (g.estimate.estimate - t).abs() / t / GROUPS.len() as f64;
            }
        }
        let frozen = frozen / runs as f64;
        let rel_err = rel_err / runs as f64;
        let sim_ms = sim_ms / runs as f64;
        println!("{target:>7.2} | {frozen:>10.2} | {rel_err:>12.4} | {sim_ms:>12.1}");
        bench.push_row(
            format!("precision target={target}"),
            json!({
                "target": target,
                "groups_frozen": frozen,
                "mean_rel_err": rel_err,
                "sim_ms": sim_ms,
            }),
        );
    }
    println!();
}

fn measure_deadline_sweep(runs: usize, bench: &mut BenchReport) {
    println!("GROUP BY SUM — hard-deadline partial answers ({runs} runs per quota)");
    println!(
        "{:>7} | {:>12} | {:>10} | {:>12}",
        "quota s", "mean rel.err", "coverage%", "sim ms"
    );
    println!("{}", "-".repeat(50));
    let seeds = SeedSeq::new(0x6B0A);
    for quota_s in [1u64, 2, 4, 8] {
        let mut rel_err = 0.0f64;
        let mut covered = 0u64;
        let mut cells = 0u64;
        let mut sim_ms = 0.0f64;
        for run in 0..runs {
            let seed = seeds.child(quota_s).derive(run as u64);
            let mut db = grouped_db(seed);
            let truth = truth_sums(&db);
            let out = db
                .aggregate(
                    AggregateFn::SumBy {
                        column: 1,
                        group: 2,
                    },
                    query_expr(),
                )
                .within(Duration::from_secs(quota_s))
                .seed(seed ^ 0x9B0B)
                .run()
                .expect("grouped query must execute");
            sim_ms += out.report.total_elapsed.as_secs_f64() * 1_000.0;
            for g in &out.report.groups {
                let t = truth[&g.key];
                rel_err += (g.estimate.estimate - t).abs() / t;
                let (lo, hi) = g.estimate.ci(0.95);
                if lo <= t && t <= hi {
                    covered += 1;
                }
                cells += 1;
            }
        }
        let rel_err = rel_err / cells.max(1) as f64;
        let coverage_pct = 100.0 * covered as f64 / cells.max(1) as f64;
        let sim_ms = sim_ms / runs as f64;
        println!("{quota_s:>7} | {rel_err:>12.4} | {coverage_pct:>10.1} | {sim_ms:>12.1}");
        bench.push_row(
            format!("deadline quota={quota_s}s"),
            json!({
                "quota_s": quota_s,
                "mean_rel_err": rel_err,
                "coverage_pct": coverage_pct,
                "sim_ms": sim_ms,
            }),
        );
    }
    println!();
}

fn main() {
    let opts = common::Opts::parse("abl_groupby");
    let runs = opts.runs.min(200);

    let mut bench = BenchReport::new("abl_groupby");
    bench.config_kv("runs", runs as u64);

    measure_precision_sweep(runs, &mut bench);
    measure_deadline_sweep(runs, &mut bench);
    common::write_bench(&opts, &bench);
}
