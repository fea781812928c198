//! Run-budget equivalence, locked down end to end.
//!
//! A binary operator's sorted run keeps its decoded tuples while the
//! node's `run_cache_tuples` budget has room, and serves re-reads
//! from them while still charging every simulated block read of its
//! file. The observable contract is therefore the same as the worker
//! pool's: a seeded `SimClock` run must produce a **byte-identical**
//! [`eram_core::ExecutionReport`] (as JSON) and a byte-identical
//! JSONL trace with the budget at any size — including off — at any
//! worker count, and under injected storage faults.

use std::time::Duration;

use eram_bench::{Workload, WorkloadKind};
use eram_core::{AggregateFn, Database, Tracer};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Schema, Tuple, Value};

/// Runs one seeded workload query and returns the serialized report
/// plus the JSONL trace. `cache_tuples` of `None` keeps the engine's
/// default run budget.
fn run_workload(
    kind: WorkloadKind,
    workers: usize,
    seed: u64,
    quota: Duration,
    cache_tuples: Option<usize>,
    faults: Option<FaultPlan>,
) -> (String, String) {
    let mut w = Workload::build_on(kind, seed, 0);
    if let Some(plan) = faults {
        w.db.disk().set_fault_plan(plan);
    }
    let tracer = Tracer::recording(w.db.disk().clock().clone());
    let mut query =
        w.db.count(w.expr.clone())
            .within(quota)
            .workers(workers)
            .seed(seed ^ 0x5EED)
            .tracer(tracer.clone());
    if let Some(tuples) = cache_tuples {
        query = query.run_cache(tuples);
    }
    let out = query.run().expect("workload query must execute");
    (json::to_string(&out.report), tracer.to_jsonl())
}

#[test]
fn join_reports_are_byte_identical_with_cache_on_and_off() {
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    for workers in [1, 4] {
        let (report_on, trace_on) = run_workload(kind, workers, 42, quota, None, None);
        let (report_off, trace_off) = run_workload(kind, workers, 42, quota, Some(0), None);
        assert!(!trace_on.is_empty());
        assert_eq!(
            report_on, report_off,
            "ExecutionReport diverged with the run cache off at workers={workers}"
        );
        assert_eq!(
            trace_on, trace_off,
            "trace diverged with the run cache off at workers={workers}"
        );
    }
}

#[test]
fn tiny_cache_bounds_are_also_invisible() {
    // A budget far too small to hold every run leaves most of them
    // re-decoded at every read; the simulated results must not notice.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let (report_default, trace_default) = run_workload(kind, 1, 17, quota, None, None);
    let (report_tiny, trace_tiny) = run_workload(kind, 1, 17, quota, Some(64), None);
    assert_eq!(report_default, report_tiny);
    assert_eq!(trace_default, trace_tiny);
}

/// A grouped-SUM run over an interleaved three-group relation; the
/// run cache must stay invisible to the per-group report too.
fn run_grouped_sum(workers: usize, seed: u64, cache_tuples: Option<usize>) -> (String, String) {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("grp", ColumnType::Int),
    ])
    .padded_to(200);
    let mut tuples = Vec::new();
    let mut k = 0i64;
    for (g, (n, spread)) in [(6_000i64, 5i64), (3_000, 800), (1_000, 90)]
        .into_iter()
        .enumerate()
    {
        for i in 0..n {
            tuples.push(Tuple::new(vec![
                Value::Int(k),
                Value::Int((i * 37) % spread),
                Value::Int(g as i64),
            ]));
            k += 1;
        }
    }
    tuples.sort_by_key(|t| t.value(0).as_int().unwrap() % 997);
    db.load_relation("g", schema, tuples).unwrap();
    let tracer = Tracer::recording(db.disk().clock().clone());
    let expr = Expr::relation("g").select(Predicate::col_cmp(1, CmpOp::Lt, 700));
    let mut query = db
        .aggregate(
            AggregateFn::SumBy {
                column: 1,
                group: 2,
            },
            expr,
        )
        .within(Duration::from_secs_f64(2.5))
        .workers(workers)
        .seed(seed ^ 0x5EED)
        .tracer(tracer.clone());
    if let Some(tuples) = cache_tuples {
        query = query.run_cache(tuples);
    }
    let out = query.run().expect("grouped query must execute");
    (json::to_string(&out.report), tracer.to_jsonl())
}

#[test]
fn grouped_sum_reports_are_byte_identical_with_cache_on_and_off() {
    for workers in [1, 4] {
        let (report_on, trace_on) = run_grouped_sum(workers, 37, None);
        let (report_off, trace_off) = run_grouped_sum(workers, 37, Some(0));
        assert!(report_on.contains("\"groups\""), "grouped report present");
        assert_eq!(
            report_on, report_off,
            "grouped report diverged with the run cache off at workers={workers}"
        );
        assert_eq!(trace_on, trace_off);
    }
}

#[test]
fn faulted_runs_stay_identical_with_and_without_the_cache() {
    // Corrupt and transient faults make run re-reads lossy; degraded
    // reads must not be served from the tuples a run kept, so
    // executions with and without a budget still agree charge for
    // charge and tuple for tuple.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let plan = || FaultPlan::new(9).with_corruption(0.05).with_transient(0.05);
    for workers in [1, 4] {
        let (report_on, trace_on) = run_workload(kind, workers, 23, quota, None, Some(plan()));
        let (report_off, trace_off) = run_workload(kind, workers, 23, quota, Some(0), Some(plan()));
        assert_eq!(
            report_on, report_off,
            "faulted run diverged with the run cache off at workers={workers}"
        );
        assert_eq!(trace_on, trace_off);
    }
}

#[test]
fn heavy_chaos_cannot_expose_stale_cached_runs() {
    // Much heavier degradation than the leg above: with one in five
    // run-block reads corrupted or transiently lost, most runs come
    // back incomplete, which drives the degraded-read path in
    // `read_run` on nearly every stage. Default, tiny and zero
    // budgets must still agree byte for byte.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let plan = || FaultPlan::new(31).with_corruption(0.2).with_transient(0.2);
    for workers in [1, 4] {
        let (report_on, trace_on) = run_workload(kind, workers, 51, quota, None, Some(plan()));
        let (report_tiny, trace_tiny) =
            run_workload(kind, workers, 51, quota, Some(256), Some(plan()));
        let (report_off, trace_off) = run_workload(kind, workers, 51, quota, Some(0), Some(plan()));
        assert_eq!(
            report_on, report_off,
            "heavy-chaos run diverged with the run cache off at workers={workers}"
        );
        assert_eq!(
            report_tiny, report_off,
            "heavy-chaos run diverged with a tiny run cache at workers={workers}"
        );
        assert_eq!(trace_on, trace_off);
        assert_eq!(trace_tiny, trace_off);
    }
}
