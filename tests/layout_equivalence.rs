//! Row-vs-columnar layout equivalence, locked down end to end.
//!
//! [`BlockLayout::Columnar`] changes how sampled blocks are decoded
//! and how the pure-CPU operator kernels traverse a stage's data —
//! per-column predicate bitmaps, gather-only materialization, merge
//! keys read straight off key columns. It must change *nothing* else:
//! a seeded `SimClock` run must produce a **byte-identical**
//! [`eram_core::ExecutionReport`] (as JSON) and a byte-identical
//! JSONL trace under either layout, at any worker count, under
//! deadline aborts, and under injected storage faults — the same
//! contract the worker pool and the run cache are held to.

use std::time::Duration;

use eram_bench::{Workload, WorkloadKind};
use eram_core::{AggregateFn, BlockLayout, Database, ExecutionReport, Tracer};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Schema, Tuple, Value};

/// Renders a run's artifacts for comparison: the serialized report
/// plus the JSONL trace.
fn render(report: &ExecutionReport, tracer: &Tracer) -> (String, String) {
    (json::to_string(report), tracer.to_jsonl())
}

/// Runs one seeded workload query under the given layout and returns
/// the rendered report plus trace.
fn run_workload(
    kind: WorkloadKind,
    layout: BlockLayout,
    workers: usize,
    seed: u64,
    quota: Duration,
    faults: Option<FaultPlan>,
) -> (String, String) {
    let mut w = Workload::build_on(kind, seed, 0);
    if let Some(plan) = faults {
        w.db.disk().set_fault_plan(plan);
    }
    let tracer = Tracer::recording(w.db.disk().clock().clone());
    let out =
        w.db.count(w.expr.clone())
            .within(quota)
            .workers(workers)
            .block_layout(layout)
            .seed(seed ^ 0x5EED)
            .tracer(tracer.clone())
            .run()
            .expect("workload query must execute");
    render(&out.report, &tracer)
}

#[test]
fn join_reports_are_byte_identical_across_layouts() {
    // The join path exercises every columnar kernel at once: leaf
    // decode, ingest key extraction, prekeyed sorts, and run merges.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    for workers in [1, 4] {
        let (report_row, trace_row) =
            run_workload(kind, BlockLayout::Row, workers, 42, quota, None);
        let (report_col, trace_col) =
            run_workload(kind, BlockLayout::Columnar, workers, 42, quota, None);
        assert!(!trace_row.is_empty());
        assert_eq!(
            report_row, report_col,
            "ExecutionReport diverged across layouts at workers={workers}"
        );
        assert_eq!(
            trace_row, trace_col,
            "trace diverged across layouts at workers={workers}"
        );
    }
}

#[test]
fn intersect_reports_are_byte_identical_across_layouts() {
    // Intersection keys on the whole tuple (`KeySpec::Whole`), the
    // one ingest shape with no precomputed key column — the columnar
    // path must fall back to the ordinary sort and still agree.
    let kind = WorkloadKind::Intersect { overlap: 5_000 };
    let quota = Duration::from_secs_f64(2.5);
    for workers in [1, 4] {
        let (report_row, trace_row) =
            run_workload(kind, BlockLayout::Row, workers, 11, quota, None);
        let (report_col, trace_col) =
            run_workload(kind, BlockLayout::Columnar, workers, 11, quota, None);
        assert_eq!(
            report_row, report_col,
            "intersect diverged across layouts at workers={workers}"
        );
        assert_eq!(trace_row, trace_col);
    }
}

#[test]
fn hard_deadline_abort_is_identical_across_layouts() {
    // A quota this tight fires the deadline mid-stage: the abort path
    // banks decoded rows as pending tuples, which the next columnar
    // stage must deliver as the delta's row prefix ahead of its
    // columnar blocks — in exactly the row path's order.
    let kind = WorkloadKind::Select {
        output_tuples: 10_000,
    };
    let quota = Duration::from_millis(600);
    for workers in [1, 4] {
        let (report_row, trace_row) = run_workload(kind, BlockLayout::Row, workers, 7, quota, None);
        let (report_col, trace_col) =
            run_workload(kind, BlockLayout::Columnar, workers, 7, quota, None);
        assert_eq!(
            report_row, report_col,
            "abort path diverged across layouts at workers={workers}"
        );
        assert_eq!(trace_row, trace_col);
    }
}

#[test]
fn faulted_runs_are_identical_across_layouts() {
    // Lost and corrupt blocks shrink the sample; both layouts must
    // drop exactly the same clusters and charge exactly the same
    // retries.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let plan = || FaultPlan::new(9).with_corruption(0.05).with_transient(0.05);
    for workers in [1, 4] {
        let (report_row, trace_row) =
            run_workload(kind, BlockLayout::Row, workers, 23, quota, Some(plan()));
        let (report_col, trace_col) = run_workload(
            kind,
            BlockLayout::Columnar,
            workers,
            23,
            quota,
            Some(plan()),
        );
        assert_eq!(
            report_row, report_col,
            "faulted run diverged across layouts at workers={workers}"
        );
        assert_eq!(trace_row, trace_col);
    }
}

/// A three-group relation with distinct per-group value dispersion,
/// interleaved so sampled blocks mix the groups.
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
    db
}

/// Runs one grouped-SUM query under the given layout and returns the
/// serialized report plus the JSONL trace.
fn run_grouped_sum(layout: BlockLayout, workers: usize, seed: u64) -> (String, String) {
    let mut db = grouped_db(seed);
    let tracer = Tracer::recording(db.disk().clock().clone());
    let expr = Expr::relation("g").select(Predicate::col_cmp(1, CmpOp::Lt, 700));
    let out = db
        .aggregate(
            AggregateFn::SumBy {
                column: 1,
                group: 2,
            },
            expr,
        )
        .within(Duration::from_secs_f64(2.5))
        .workers(workers)
        .block_layout(layout)
        .seed(seed ^ 0x5EED)
        .tracer(tracer.clone())
        .run()
        .expect("grouped query must execute");
    render(&out.report, &tracer)
}

#[test]
fn grouped_sum_reports_are_byte_identical_across_layouts() {
    for workers in [1, 4] {
        let (report_row, trace_row) = run_grouped_sum(BlockLayout::Row, workers, 37);
        let (report_col, trace_col) = run_grouped_sum(BlockLayout::Columnar, workers, 37);
        assert!(report_row.contains("groups"), "grouped report present");
        assert_eq!(
            report_row, report_col,
            "grouped report diverged across layouts at workers={workers}"
        );
        assert_eq!(trace_row, trace_col);
    }
}

/// A SUM over a bare relation (no operator above the leaf): the root
/// delta reaches the executor's value accumulator still in columnar
/// form, exercising the boundary materialization.
#[test]
fn bare_leaf_sum_is_identical_across_layouts() {
    let run = |layout: BlockLayout, workers: usize| {
        let mut db = grouped_db(97);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let out = db
            .aggregate(AggregateFn::Sum { column: 1 }, Expr::relation("g"))
            .within(Duration::from_secs_f64(1.5))
            .workers(workers)
            .block_layout(layout)
            .seed(0xBEEF)
            .tracer(tracer.clone())
            .run()
            .expect("bare-leaf query must execute");
        render(&out.report, &tracer)
    };
    for workers in [1, 4] {
        let (report_row, trace_row) = run(BlockLayout::Row, workers);
        let (report_col, trace_col) = run(BlockLayout::Columnar, workers);
        assert_eq!(
            report_row, report_col,
            "bare-leaf sum diverged across layouts at workers={workers}"
        );
        assert_eq!(trace_row, trace_col);
    }
}
