//! Property tests on the time-control loop's invariants.

use std::time::Duration;

use testkit::prelude::*;

use eram_bench::{harness::run_trial, TrialConfig, WorkloadKind};
use eram_core::{Database, OneAtATimeInterval, StoppingCriterion};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, Schema, Tuple, Value};

fn tiny_db(seed: u64, rows: i64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..rows).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)])),
    )
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the quota, seed, and d_β: utilization ∈ [0,1], the
    /// hard-deadline overspend is at most block-granularity, blocks
    /// and stages are consistent, and the estimate is within the
    /// point space.
    #[test]
    fn report_invariants_hold(
        quota_ms in 50u64..8_000,
        seed in 0u64..500,
        d_beta in prop::sample::select(vec![0.0, 12.0, 48.0]),
        rows in 500i64..6_000,
    ) {
        let mut db = tiny_db(seed, rows);
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 3));
        let out = db
            .count(expr)
            .within(Duration::from_millis(quota_ms))
            .strategy(OneAtATimeInterval::new(d_beta))
            .stopping(StoppingCriterion::HardDeadline)
            .seed(seed)
            .run()
            .unwrap();
        let r = &out.report;
        prop_assert!(r.utilization() >= 0.0 && r.utilization() <= 1.0);
        prop_assert!(r.wasted() <= r.quota);
        // Hard deadline: abort happens at block granularity, which is
        // ≤ ~120 ms of simulated time on this device.
        prop_assert!(r.overspend() <= Duration::from_millis(250),
            "overspend {:?}", r.overspend());
        prop_assert_eq!(r.completed_stages(),
            r.stages.iter().filter(|s| s.within_quota).count());
        let blocks: u64 = r.stages.iter().filter(|s| s.within_quota)
            .map(|s| s.blocks_drawn).sum();
        prop_assert_eq!(blocks, r.blocks_evaluated());
        prop_assert!(out.estimate.estimate >= 0.0);
        prop_assert!(out.estimate.estimate <= out.estimate.total_points.max(1.0));
        prop_assert!(out.estimate.variance >= 0.0);
        // Stage numbering is 1..=k in order.
        for (i, s) in r.stages.iter().enumerate() {
            prop_assert_eq!(s.stage, i + 1);
        }
    }

    /// The quota is monotone in information: a strictly larger quota
    /// (same seed) never samples fewer points.
    #[test]
    fn more_quota_never_means_fewer_points(
        seed in 0u64..200,
        base_ms in 300u64..2_000,
    ) {
        let run = |ms: u64| {
            let mut db = tiny_db(seed, 4_000);
            let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 3));
            db.count(expr)
                .within(Duration::from_millis(ms))
                .seed(seed)
                .run()
                .unwrap()
                .estimate
                .points_sampled
        };
        // 4× the quota with the same sampling seed: the block
        // permutation is identical, so coverage can only grow.
        prop_assert!(run(4 * base_ms) >= run(base_ms));
    }

    /// Trials never panic across the paper workload grid, and the
    /// harness columns stay in range.
    #[test]
    fn harness_columns_in_range(
        seed in 0u64..100,
        d_beta in prop::sample::select(vec![0.0, 24.0, 72.0]),
        out_tuples in prop::sample::select(vec![0u64, 2_500, 5_000, 10_000]),
    ) {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select { output_tuples: out_tuples },
            Duration::from_secs(4),
            d_beta,
        );
        let t = run_trial(&cfg, seed);
        prop_assert!(t.utilization >= 0.0 && t.utilization <= 1.0);
        prop_assert!(t.stages <= 100);
        prop_assert!(t.ovsp_secs >= 0.0);
        prop_assert!(t.overspent == (t.ovsp_secs > 0.0));
    }
}

/// Aggregate risk ordering: large d_β must not overspend more often
/// than d_β = 0 (checked over a seed ensemble, not per-run).
#[test]
fn risk_decreases_with_d_beta_in_aggregate() {
    let risk = |d_beta: f64| {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(6),
            d_beta,
        );
        let mut overspent = 0;
        for seed in 0..40u64 {
            if run_trial(&cfg, seed).overspent {
                overspent += 1;
            }
        }
        overspent
    };
    let low = risk(0.0);
    let high = risk(72.0);
    assert!(
        high <= low,
        "risk must not increase with d_beta: {high} vs {low} / 40 runs"
    );
    assert!(low >= 5, "d_beta = 0 should carry real risk, saw {low}/40");
}
