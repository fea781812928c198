//! Failure injection and degenerate inputs: the engine must degrade
//! gracefully, never panic, and keep its reports consistent.
//!
//! The second half is a chaos suite against the storage layer's
//! deterministic [`FaultPlan`] injector: transient read errors,
//! checksum-detected corruption, and latency spikes at swept rates,
//! with the invariants that every run returns an estimate, the hard
//! deadline holds (retry backoff is charged to the clock), lost
//! blocks flag the report as degraded, and identical seeds replay to
//! bit-identical reports.

use std::sync::Arc;
use std::time::Duration;

use testkit::prelude::*;

use eram_core::{Database, EngineConfig, EngineError, OneAtATimeInterval, StoppingCriterion};
use eram_relalg::{CmpOp, Expr, ExprError, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Schema, Tuple, Value};

fn db_with(rows: i64, seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..rows).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])),
    )
    .unwrap();
    db
}

#[test]
fn empty_relation_is_handled() {
    let mut db = db_with(0, 1);
    let out = db
        .count(Expr::relation("t").select(Predicate::True))
        .within(Duration::from_secs(2))
        .run()
        .unwrap();
    assert_eq!(out.estimate.estimate, 0.0);
    assert_eq!(out.estimate.variance, 0.0);
}

#[test]
fn empty_side_of_binary_operators() {
    let mut db = db_with(1_000, 2);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation("empty", schema, std::iter::empty())
        .unwrap();
    for expr in [
        Expr::relation("t").intersect(Expr::relation("empty")),
        Expr::relation("t").join(Expr::relation("empty"), vec![(0, 0)]),
        Expr::relation("empty").union(Expr::relation("t")),
    ] {
        let truth = db.exact_count(&expr).unwrap() as f64;
        let out = db
            .count(expr)
            .within(Duration::from_secs(30))
            .run()
            .unwrap();
        // Either exact (census reached) or a sane non-negative value.
        assert!(out.estimate.estimate >= 0.0);
        if truth == 0.0 {
            assert_eq!(out.estimate.estimate, 0.0);
        }
    }
}

#[test]
fn quota_smaller_than_one_block_read() {
    let mut db = db_with(10_000, 3);
    let out = db
        .count(Expr::relation("t").select(Predicate::True))
        .within(Duration::from_millis(1))
        .run()
        .unwrap();
    assert_eq!(out.report.completed_stages(), 0);
    assert_eq!(out.estimate.points_sampled, 0.0);
    assert_eq!(out.report.blocks_evaluated(), 0);
}

#[test]
fn zero_quota() {
    let mut db = db_with(1_000, 4);
    let out = db
        .count(Expr::relation("t"))
        .within(Duration::ZERO)
        .run()
        .unwrap();
    assert!(out.report.stages.is_empty());
}

#[test]
fn max_stages_caps_the_loop() {
    let mut db = db_with(10_000, 5);
    let config = EngineConfig {
        strategy: Arc::new(OneAtATimeInterval::new(72.0)),
        max_stages: 2,
        ..Default::default()
    };
    let out = db
        .count(Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2)))
        .within(Duration::from_secs(600))
        .config(config)
        .run()
        .unwrap();
    assert!(out.report.stages.len() <= 2);
}

#[test]
fn unknown_relation_is_an_expr_error() {
    let mut db = db_with(10, 6);
    let err = db
        .count(Expr::relation("ghost"))
        .within(Duration::from_secs(1))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Expr(ExprError::UnknownRelation(_))
    ));
}

#[test]
fn projection_over_difference_is_rejected_not_wrong() {
    let mut db = db_with(100, 7);
    let expr = Expr::relation("t")
        .difference(Expr::relation("t"))
        .project(vec![0]);
    let err = db
        .count(expr)
        .within(Duration::from_secs(1))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Expr(ExprError::ProjectionOverSetOp)
    ));
}

#[test]
fn self_join_uses_independent_dimensions() {
    // r ⋈ r: two occurrences of the same relation are two point-space
    // dimensions with independent samplers.
    let mut db = db_with(1_000, 8);
    let expr = Expr::relation("t").join(Expr::relation("t"), vec![(0, 0)]);
    let truth = db.exact_count(&expr).unwrap() as f64; // 1000 (key is unique)
    let out = db
        .count(expr)
        .within(Duration::from_secs(120))
        .run()
        .unwrap();
    assert!(out.estimate.estimate >= 0.0);
    assert!(
        out.estimate.estimate <= truth * 50.0,
        "runaway self-join estimate {}",
        out.estimate.estimate
    );
}

#[test]
fn error_bound_with_zero_truth_falls_back_to_deadline() {
    let mut db = db_with(5_000, 9);
    // Impossible precision target on a zero count: the deadline must
    // still end the query.
    let out = db
        .count(Expr::relation("t").select(Predicate::False))
        .within(Duration::from_secs(5))
        .stopping(StoppingCriterion::Combined(vec![
            StoppingCriterion::HardDeadline,
            StoppingCriterion::ErrorBound {
                target: 0.01,
                confidence: 0.99,
            },
        ]))
        .run()
        .unwrap();
    assert!(out.report.total_elapsed <= Duration::from_secs(6));
    assert_eq!(out.estimate.estimate, 0.0);
}

/// The paper's Figure 5.1 selection setup (10 000 tuples, 10 s quota)
/// with ≥5% transient faults and ≥1% corruption: every seeded run
/// must deliver an estimate under the hard deadline, and any run that
/// lost blocks must say so.
#[test]
fn chaos_selection_200_runs_all_deliver_under_faults() {
    let mut db = db_with(10_000, 11);
    let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2));
    let truth = db.exact_count(&expr).unwrap() as f64; // 4000
    let quota = Duration::from_secs(10);
    let mut degraded_runs = 0usize;
    let mut faulted_runs = 0usize;
    let mut covered = 0usize;
    for i in 0..200u64 {
        db.inject_faults(
            FaultPlan::new(0xC4A0_5000 + i)
                .with_transient(0.05)
                .with_corruption(0.01),
        );
        let out = db
            .count(expr.clone())
            .within(quota)
            .seed(i)
            .run()
            .expect("faulted run still delivers");
        // Hard deadline at block granularity, even mid-retry.
        assert!(
            out.report.overspend() < Duration::from_millis(300),
            "run {i} overspent {:?}",
            out.report.overspend()
        );
        assert!(out.estimate.estimate >= 0.0);
        let h = out.report.health;
        assert_eq!(h.degraded, h.blocks_lost > 0, "run {i}");
        assert!(h.retries <= h.faults_seen.saturating_mul(4), "run {i}");
        if h.faults_seen > 0 {
            faulted_runs += 1;
        }
        if h.degraded {
            degraded_runs += 1;
        }
        let (lo, hi) = out.estimate.ci(0.95);
        if lo <= truth && truth <= hi {
            covered += 1;
        }
    }
    // At 5% + 1% rates, faults and losses are statistically certain
    // across 200 runs of hundreds of block reads each.
    assert!(faulted_runs > 150, "only {faulted_runs} runs saw faults");
    assert!(degraded_runs > 0, "no run lost a block");
    // Degradation widens the interval but must not break coverage.
    assert!(
        covered >= 150,
        "95% CI covered truth in only {covered}/200 runs"
    );
}

/// Retry backoff is charged to the clock, so a fault storm cannot
/// stretch the hard deadline: a tiny quota under heavy transient
/// faults still ends on time.
#[test]
fn hard_deadline_holds_mid_retry_storm() {
    let mut db = db_with(10_000, 12);
    db.inject_faults(FaultPlan::new(77).with_transient(0.5));
    let out = db
        .count(Expr::relation("t").select(Predicate::True))
        .within(Duration::from_secs(1))
        .run()
        .unwrap();
    assert!(out.report.overspend() < Duration::from_millis(300));
    assert!(out.report.utilization() <= 1.0);
}

/// Latency spikes consume quota like any other device time.
#[test]
fn latency_spikes_eat_quota_not_correctness() {
    let mut db = db_with(10_000, 13);
    db.inject_faults(FaultPlan::new(5).with_spikes(0.2, Duration::from_millis(200)));
    let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2));
    let out = db
        .count(expr)
        .within(Duration::from_secs(10))
        .run()
        .unwrap();
    // Spikes are delays, not faults: nothing is lost or degraded.
    assert_eq!(out.report.health.blocks_lost, 0);
    assert!(!out.report.health.degraded);
    assert!(out.report.overspend() < Duration::from_millis(500));
}

/// Same data seed, same fault plan, same query seed → the entire
/// execution report replays bit-identically.
#[test]
fn fault_injection_replay_is_bit_identical() {
    let run = || {
        let mut db = db_with(10_000, 14);
        db.inject_faults(
            FaultPlan::new(0xD00D)
                .with_transient(0.08)
                .with_corruption(0.02),
        );
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2));
        let out = db
            .count(expr)
            .within(Duration::from_secs(10))
            .seed(99)
            .run()
            .unwrap();
        json::to_string(&out.report)
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No seeded fault plan — any rates, any seed, spikes included —
    /// may panic the engine or break report invariants.
    #[test]
    fn any_fault_plan_degrades_gracefully(
        seed in any::<u64>(),
        transient in 0.0f64..=1.0,
        corrupt in 0.0f64..=1.0,
        spike_rate in 0.0f64..=0.5,
        spike_ms in 0u64..200,
    ) {
        let mut db = db_with(1_000, seed ^ 0xBAD);
        db.inject_faults(
            FaultPlan::new(seed)
                .with_transient(transient)
                .with_corruption(corrupt)
                .with_spikes(spike_rate, Duration::from_millis(spike_ms)),
        );
        let out = db
            .count(Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2)))
            .within(Duration::from_secs(2))
            .run()
            .unwrap();
        prop_assert!(out.report.utilization() <= 1.0);
        prop_assert!(out.estimate.estimate >= 0.0);
        prop_assert!(out.estimate.estimate.is_finite());
        let h = out.report.health;
        prop_assert_eq!(h.degraded, h.blocks_lost > 0);
        // Whatever happened, the hard deadline held.
        prop_assert!(out.report.overspend() < Duration::from_millis(300));
    }
}

#[test]
fn repeated_queries_on_one_database_are_independent() {
    let mut db = db_with(10_000, 10);
    let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
    let first = db
        .count(expr.clone())
        .within(Duration::from_secs(5))
        .run()
        .unwrap();
    let second = db.count(expr).within(Duration::from_secs(5)).run().unwrap();
    // The second query starts from a fresh deadline even though the
    // simulated clock has advanced past the first quota.
    assert!(second.report.completed_stages() >= 1);
    assert!(first.report.completed_stages() >= 1);
}
