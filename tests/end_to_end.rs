//! End-to-end integration: the full pipeline (PIE rewrite → compiled
//! terms → stage loop → estimate) against exact ground truth, across
//! every operator, both clock modes, and all strategies.

use std::sync::Arc;
use std::time::Duration;

use eram_bench::{Workload, WorkloadKind};
use eram_core::{
    Database, HeuristicStrategy, OneAtATimeInterval, SingleInterval, StoppingCriterion,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, Schema, Tuple, Value};

fn small_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    for (name, stride, modulo) in [("r", 1i64, 50i64), ("s", 3i64, 40i64)] {
        let schema =
            Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            name,
            schema,
            (0..4_000).map(|i| Tuple::new(vec![Value::Int(i * stride), Value::Int(i % modulo)])),
        )
        .unwrap();
    }
    db
}

/// With a quota comfortably above a full census, every operator's
/// estimate must be exact (the loop drains the point space and
/// reports zero variance).
#[test]
fn census_quota_is_exact_for_every_operator() {
    let mut db = small_db(1);
    let huge = Duration::from_secs(1_000_000);
    let queries = vec![
        Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 10)),
        Expr::relation("r").project(vec![1]),
        Expr::relation("r").intersect(Expr::relation("s")),
        Expr::relation("r").union(Expr::relation("s")),
        Expr::relation("r").difference(Expr::relation("s")),
    ];
    for expr in queries {
        let truth = db.exact_count(&expr).unwrap() as f64;
        let out = db.count(expr.clone()).within(huge).seed(9).run().unwrap();
        assert!(
            (out.estimate.estimate - truth).abs() < 1e-6,
            "census must be exact for {expr}: {} vs {truth}",
            out.estimate.estimate
        );
    }
}

/// Join census through the full loop (multi-stage, full fulfillment).
#[test]
fn join_census_is_exact() {
    let mut db = small_db(2);
    let expr = Expr::relation("r").join(Expr::relation("s"), vec![(1, 1)]);
    let truth = db.exact_count(&expr).unwrap() as f64;
    let out = db
        .count(expr)
        .within(Duration::from_secs(10_000_000))
        .seed(5)
        .run()
        .unwrap();
    assert!(
        (out.estimate.estimate - truth).abs() < 1e-6,
        "{} vs {truth}",
        out.estimate.estimate
    );
}

/// Paper workloads end to end: reasonable estimates inside the quota.
#[test]
fn paper_workloads_estimate_within_quota() {
    for (kind, quota, tolerance) in [
        (
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(10),
            0.25,
        ),
        (
            WorkloadKind::Select { output_tuples: 0 },
            Duration::from_secs(10),
            f64::INFINITY, // zero truth: just must terminate sanely
        ),
    ] {
        let mut w = Workload::build(kind, 77);
        let truth = w.truth;
        let out =
            w.db.count(w.expr.clone())
                .within(quota)
                .seed(3)
                .run()
                .unwrap();
        assert!(out.report.utilization() <= 1.0);
        assert!(out.report.completed_stages() >= 1);
        if truth > 0 {
            let rel = (out.estimate.estimate - truth as f64).abs() / truth as f64;
            assert!(rel < tolerance, "rel error {rel} for {kind:?}");
        } else {
            assert!(out.estimate.estimate < 500.0, "zero-truth runaway estimate");
        }
    }
}

/// Every strategy completes the loop and respects the quota's hard
/// view.
#[test]
fn all_strategies_run_the_paper_select() {
    let strategies: Vec<Arc<dyn eram_core::TimeControlStrategy>> = vec![
        Arc::new(OneAtATimeInterval::new(0.0)),
        Arc::new(OneAtATimeInterval::new(48.0)),
        Arc::new(SingleInterval::new(2.0)),
        Arc::new(HeuristicStrategy::new(0.5, 1.25)),
        Arc::new(HeuristicStrategy::probing(0.2, 1.1)),
    ];
    for (i, strategy) in strategies.into_iter().enumerate() {
        let mut w = Workload::build(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            100 + i as u64,
        );
        let config = eram_core::EngineConfig {
            strategy,
            ..Default::default()
        };
        let out =
            w.db.count(w.expr.clone())
                .within(Duration::from_secs(10))
                .config(config)
                .seed(i as u64)
                .run()
                .unwrap();
        assert!(out.report.completed_stages() >= 1, "strategy {i} idle");
        assert!(out.report.utilization() > 0.1, "strategy {i} wasted quota");
    }
}

/// The wall-clock mode executes the same pipeline against real time.
#[test]
fn wall_clock_mode_end_to_end() {
    let mut db = Database::wall(4);
    let schema = Schema::new(vec![("v", ColumnType::Int)]);
    db.load_relation(
        "w",
        schema,
        (0..50_000).map(|i| Tuple::new(vec![Value::Int(i % 1000)])),
    )
    .unwrap();
    let expr = Expr::relation("w").select(Predicate::col_cmp(0, CmpOp::Lt, 100));
    let start = std::time::Instant::now();
    let out = db
        .count(expr)
        .within(Duration::from_millis(300))
        .run()
        .unwrap();
    // Real time respected (with scheduling slack).
    assert!(start.elapsed() < Duration::from_secs(3));
    assert!(out.estimate.estimate > 0.0);
}

/// Hard vs soft views of the same seeded run: the hard estimate never
/// uses post-quota work, the soft one may.
#[test]
fn hard_view_is_a_prefix_of_soft_view() {
    let build = || {
        Workload::build(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            55,
        )
    };
    let mut soft_w = build();
    let soft = soft_w
        .db
        .count(soft_w.expr.clone())
        .within(Duration::from_secs(6))
        .stopping(StoppingCriterion::SoftDeadline)
        .strategy(OneAtATimeInterval::new(0.0))
        .seed(1234)
        .run()
        .unwrap();
    // The hard-view estimate recorded in the report equals the
    // estimate of the last within-quota stage.
    let last_ok = soft.report.stages.iter().rfind(|s| s.within_quota);
    if let Some(stage) = last_ok {
        assert_eq!(stage.estimate, soft.report.final_estimate);
    } else {
        assert_eq!(soft.report.final_estimate.points_sampled, 0.0);
    }
}

/// Deterministic replay: identical seeds → identical reports.
#[test]
fn seeded_runs_replay_exactly() {
    let run = || {
        let mut w = Workload::build(WorkloadKind::Intersect { overlap: 3_000 }, 31);
        let out =
            w.db.count(w.expr.clone())
                .within(Duration::from_secs_f64(2.5))
                .seed(42)
                .run()
                .unwrap();
        out.report
    };
    assert_eq!(run(), run());
}

/// The file-backed block store runs the whole pipeline too: same
/// estimates as in-memory under the same seed.
#[test]
fn file_backed_store_end_to_end() {
    let dir = std::env::temp_dir().join(format!("eram-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let run = |db: &mut Database| {
        let schema =
            Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            "t",
            schema,
            (0..4_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 50)])),
        )
        .unwrap();
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 10));
        db.count(expr)
            .within(Duration::from_secs(5))
            .seed(77)
            .run()
            .unwrap()
    };

    let mut mem_db = Database::sim(eram_storage::DeviceProfile::sun_3_60(), 42);
    let mem = run(&mut mem_db);
    let mut file_db =
        Database::sim_file_backed(eram_storage::DeviceProfile::sun_3_60(), 42, &dir).unwrap();
    let file = run(&mut file_db);

    assert_eq!(mem.estimate, file.estimate);
    assert_eq!(
        mem.report.blocks_evaluated(),
        file.report.blocks_evaluated()
    );
    // Real files were created for the relation and temporaries.
    assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
