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

use eram_core::executor::MAX_STAGES;
use eram_core::ops::PhysTree;
use eram_core::{
    AggregateFn, CostModel, Database, EngineConfig, EngineError, JobState, QueryServer,
    RetryPolicy, ServerJob, StagePlan, StoppingCriterion, TimeControlStrategy,
};
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

/// Plans one block a stage, whatever the quota: only the stage cap
/// can end a run over more blocks than the cap.
#[derive(Debug)]
struct OneBlockAStage;

impl TimeControlStrategy for OneBlockAStage {
    fn name(&self) -> &'static str {
        "one-block-a-stage"
    }

    fn plan_stage(
        &self,
        _trees: &[PhysTree],
        _model: &CostModel,
        _remaining: Duration,
        _stage: usize,
    ) -> Option<StagePlan> {
        Some(StagePlan {
            fraction: 0.0, // a leaf draws at least one block
            predicted: Duration::ZERO,
            predicted_blocks: 1.0,
        })
    }
}

#[test]
fn max_stages_caps_the_loop() {
    // 10 000 tuples of 200 bytes: 2 000 blocks, twice the cap.
    let mut db = db_with(10_000, 5);
    let config = EngineConfig {
        strategy: Arc::new(OneBlockAStage),
        ..Default::default()
    };
    let out = db
        .count(Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 2)))
        .within(Duration::from_secs(100_000))
        .config(config)
        .run()
        .unwrap();
    assert_eq!(out.report.stages.len(), MAX_STAGES);
    assert_eq!(out.report.blocks_evaluated(), MAX_STAGES as u64);
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

/// A precision member whose confidence has no interval (0, 1, NaN) is
/// refused before the first block is read, top-level, inside
/// `Combined` and per group, rather than panicking mid-query.
#[test]
fn out_of_range_confidence_is_refused_before_any_read() {
    let mut db = db_with(5_000, 10);
    for confidence in [0.0, 1.0, f64::NAN] {
        let bound = StoppingCriterion::ErrorBound {
            target: 0.5,
            confidence,
        };
        let cases = [
            (AggregateFn::Count, bound.clone()),
            (
                AggregateFn::Count,
                StoppingCriterion::Combined(vec![StoppingCriterion::HardDeadline, bound]),
            ),
            (
                AggregateFn::AvgBy {
                    column: 0,
                    group: 1,
                },
                StoppingCriterion::GroupErrorBound {
                    target: 0.5,
                    confidence,
                    min_tuples: 1,
                },
            ),
        ];
        for (agg, stopping) in cases {
            let reads = db.disk().stats().block_reads;
            let err = db
                .aggregate(agg, Expr::relation("t").select(Predicate::True))
                .within(Duration::from_secs(5))
                .stopping(stopping.clone())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidConfig(_)),
                "{stopping:?}: {err}"
            );
            assert_eq!(db.disk().stats().block_reads, reads, "{stopping:?}");
        }
    }
}

/// Engine settings outside their range, each of which used to panic
/// mid-query: a join's stage-1 selectivity outside (0, 1] (at the
/// join's compile) and a retry backoff factor that is negative, not
/// finite or large enough to overflow a duration (at the first
/// transient fault); and a backoff that fits a duration but not the
/// simulated clock's `u64` nanoseconds, which used to wrap the clock
/// backwards.
fn out_of_range_configs() -> Vec<EngineConfig> {
    let retry = |backoff_factor: f64| EngineConfig {
        retry: RetryPolicy {
            backoff_factor,
            ..RetryPolicy::default()
        },
        ..EngineConfig::default()
    };
    let join_selectivity = |join_selectivity: f64| EngineConfig {
        join_selectivity,
        ..EngineConfig::default()
    };
    vec![
        join_selectivity(0.0),
        join_selectivity(-0.5),
        join_selectivity(1.5),
        join_selectivity(f64::NAN),
        retry(-1.0),
        retry(f64::NAN),
        retry(f64::INFINITY),
        retry(1e300),
        EngineConfig {
            retry: RetryPolicy {
                backoff: Duration::from_secs(1_000_000_000_000),
                ..RetryPolicy::default()
            },
            ..EngineConfig::default()
        },
    ]
}

/// A join over a faulty device, so both settings are reached.
fn faulty_join_db() -> (Database, Expr) {
    let mut db = db_with(2_000, 12);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "u",
        schema,
        (0..2_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])),
    )
    .unwrap();
    db.inject_faults(FaultPlan::new(12).with_transient(0.3));
    let join = Expr::relation("t").join(Expr::relation("u"), vec![(0, 0)]);
    (db, join)
}

#[test]
fn out_of_range_settings_are_refused_before_any_read() {
    let (mut db, join) = faulty_join_db();
    for config in out_of_range_configs() {
        let reads = db.disk().stats().block_reads;
        let err = db
            .count(join.clone())
            .within(Duration::from_secs(5))
            .config(config.clone())
            .run()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidConfig(_)),
            "{config:?}: {err}"
        );
        assert_eq!(db.disk().stats().block_reads, reads, "{config:?}");
    }
}

#[test]
fn a_served_batch_under_out_of_range_settings_fails_every_job() {
    let (mut db, join) = faulty_join_db();
    let jobs = || {
        vec![
            ServerJob::count("join", join.clone(), Duration::from_secs(20)),
            ServerJob::count("scan", Expr::relation("t"), Duration::from_secs(30)),
        ]
    };
    for engine in out_of_range_configs() {
        let reads = db.disk().stats().block_reads;
        let outcome = QueryServer {
            engine: engine.clone(),
            ..QueryServer::default()
        }
        .run(&mut db, jobs());
        for job in &outcome.jobs {
            assert!(
                matches!(job.state, JobState::Failed { .. }),
                "{engine:?}: {} ended {:?}",
                job.name,
                job.state
            );
        }
        assert_eq!(db.disk().stats().block_reads, reads, "{engine:?}");
    }
    // The lanes run under a hard deadline whatever the server's own
    // criterion says, so a criterion they override is not refused.
    let outcome = QueryServer {
        engine: EngineConfig {
            stopping: StoppingCriterion::ErrorBound {
                target: 0.1,
                confidence: 1.5,
            },
            ..EngineConfig::default()
        },
        ..QueryServer::default()
    }
    .run(&mut db, jobs());
    assert!(outcome
        .jobs
        .iter()
        .all(|job| !matches!(job.state, JobState::Failed { .. })));
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

/// A lost run-file block takes its tuples' share of the run's leaf
/// points out of the coverage, so COUNT(t ⋈ u) under 5 % corruption
/// stays unbiased and its interval keeps its coverage. On the key
/// `j % 5` every leaf block holds one tuple of each key, so a clean
/// run of this join is exact.
#[test]
fn a_join_under_run_block_corruption_stays_unbiased() {
    let (mut db, _) = faulty_join_db();
    let join = Expr::relation("t").join(Expr::relation("u"), vec![(1, 1)]);
    let truth = db.exact_count(&join).unwrap() as f64; // 800 000
    let runs = 100u64;
    let (mut ratios, mut covered) = (Vec::new(), 0u64);
    for i in 0..runs {
        db.inject_faults(FaultPlan::new(0xD3_0000 + i).with_corruption(0.05));
        let out = db
            .count(join.clone())
            .within(Duration::from_secs(10))
            .seed(i)
            .run()
            .expect("a corrupted run still delivers");
        ratios.push(out.estimate.estimate / truth);
        let (lo, hi) = out.estimate.ci(0.95);
        if lo <= truth && truth <= hi {
            covered += 1;
        }
    }
    let n = ratios.len() as f64;
    let mean = ratios.iter().sum::<f64>() / n;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    assert!(
        (mean - 1.0).abs() <= 3.0 * se,
        "mean estimate/truth {mean:.4} (se {se:.4})"
    );
    assert!(
        covered * 10 >= runs * 9,
        "95% CI covered truth in only {covered}/{runs} runs"
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
