//! Row-vs-columnar layout equivalence, locked down end to end.
//!
//! [`BlockLayout::Columnar`] changes only how a leaf decodes the
//! blocks it samples: each page is transposed whole into per-column
//! arrays, and every operator above the leaf sees the same rows as
//! under the row layout. It must change *nothing* else: a seeded
//! `SimClock` run must produce a **byte-identical**
//! [`eram_core::ExecutionReport`] (as JSON) and a byte-identical
//! JSONL trace under either layout, under deadline aborts, and under
//! injected storage faults — the same contract the run cache is held
//! to.
//!
//! It is also the fused-versus-decode-first oracle. A selection
//! directly over a leaf runs inside the leaf's scan under either
//! layout. The row layout evaluates the compiled formula on the page
//! bytes and decodes only the records that pass (none at all for a
//! plain COUNT). The columnar layout decodes the whole page first and
//! evaluates the formula as a bitmap (`Predicate::eval_mask`, an
//! evaluator independent of the compiled one). Every case below that
//! selects over a base relation therefore compares the two scans byte
//! for byte.

use std::time::Duration;

use eram_bench::{Workload, WorkloadKind};
use eram_core::{AggregateFn, BlockLayout, Database, ExecutionReport, Tracer};
use eram_relalg::{parse_expr, CmpOp, Expr, Predicate};
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
            .block_layout(layout)
            .seed(seed ^ 0x5EED)
            .tracer(tracer.clone())
            .run()
            .expect("workload query must execute");
    render(&out.report, &tracer)
}

#[test]
fn join_reports_are_byte_identical_across_layouts() {
    // The join path feeds a columnar leaf's rows to every kernel
    // above it at once: ingest sorts, run writes, and run merges.
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let (report_row, trace_row) = run_workload(kind, BlockLayout::Row, 42, quota, None);
    let (report_col, trace_col) = run_workload(kind, BlockLayout::Columnar, 42, quota, None);
    assert!(!trace_row.is_empty());
    assert_eq!(
        report_row, report_col,
        "ExecutionReport diverged across layouts"
    );
    assert_eq!(trace_row, trace_col, "trace diverged across layouts");
}

#[test]
fn intersect_reports_are_byte_identical_across_layouts() {
    // Intersection keys on the whole tuple (`KeySpec::Whole`), so a
    // row decoded from columns must equal the row-codec one in every
    // field, not only the key.
    let kind = WorkloadKind::Intersect { overlap: 5_000 };
    let quota = Duration::from_secs_f64(2.5);
    let (report_row, trace_row) = run_workload(kind, BlockLayout::Row, 11, quota, None);
    let (report_col, trace_col) = run_workload(kind, BlockLayout::Columnar, 11, quota, None);
    assert_eq!(report_row, report_col, "intersect diverged across layouts");
    assert_eq!(trace_row, trace_col);
}

#[test]
fn hard_deadline_abort_is_identical_across_layouts() {
    // A quota this tight fires the deadline mid-stage: the abort path
    // banks the pages already fetched, undecoded, under either
    // layout.
    let kind = WorkloadKind::Select {
        output_tuples: 10_000,
    };
    let quota = Duration::from_millis(600);
    let (report_row, trace_row) = run_workload(kind, BlockLayout::Row, 7, quota, None);
    let (report_col, trace_col) = run_workload(kind, BlockLayout::Columnar, 7, quota, None);
    assert_eq!(report_row, report_col, "abort path diverged across layouts");
    assert_eq!(trace_row, trace_col);
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
    let (report_row, trace_row) = run_workload(kind, BlockLayout::Row, 23, quota, Some(plan()));
    let (report_col, trace_col) =
        run_workload(kind, BlockLayout::Columnar, 23, quota, Some(plan()));
    assert_eq!(
        report_row, report_col,
        "faulted run diverged across layouts"
    );
    assert_eq!(trace_row, trace_col);
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
fn run_grouped_sum(layout: BlockLayout, seed: u64) -> (String, String) {
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
        .block_layout(layout)
        .seed(seed ^ 0x5EED)
        .tracer(tracer.clone())
        .run()
        .expect("grouped query must execute");
    render(&out.report, &tracer)
}

#[test]
fn grouped_sum_reports_are_byte_identical_across_layouts() {
    let (report_row, trace_row) = run_grouped_sum(BlockLayout::Row, 37);
    let (report_col, trace_col) = run_grouped_sum(BlockLayout::Columnar, 37);
    assert!(report_row.contains("groups"), "grouped report present");
    assert_eq!(
        report_row, report_col,
        "grouped report diverged across layouts"
    );
    assert_eq!(trace_row, trace_col);
}

/// A SUM over a bare relation (no operator above the leaf): the leaf's
/// unfiltered rows go straight to the executor's value accumulator.
#[test]
fn bare_leaf_sum_is_identical_across_layouts() {
    let run = |layout: BlockLayout| {
        let mut db = grouped_db(97);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let out = db
            .aggregate(AggregateFn::Sum { column: 1 }, Expr::relation("g"))
            .within(Duration::from_secs_f64(1.5))
            .block_layout(layout)
            .seed(0xBEEF)
            .tracer(tracer.clone())
            .run()
            .expect("bare-leaf query must execute");
        render(&out.report, &tracer)
    };
    let (report_row, trace_row) = run(BlockLayout::Row);
    let (report_col, trace_col) = run(BlockLayout::Columnar);
    assert_eq!(
        report_row, report_col,
        "bare-leaf sum diverged across layouts"
    );
    assert_eq!(trace_row, trace_col);
}

/// 10 000 orders carrying every column type — a string tag and a
/// float score beside the integers — and a 1 000-row dimension table
/// that `amount` joins against one to one.
fn orders_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let orders = Schema::new(vec![
        ("k", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("tag", ColumnType::Str { width: 6 }),
        ("score", ColumnType::Float),
        ("vip", ColumnType::Bool),
    ])
    .padded_to(200);
    let tags = ["red", "green", "blue", "", "yellow"];
    db.load_relation(
        "orders",
        orders,
        (0..10_000i64).map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int((i * 37) % 1_000),
                Value::Int(i % 4),
                Value::Str(tags[(i * 7 % 5) as usize].into()),
                Value::Float((i % 97) as f64 * 0.5 - 10.0),
                Value::Bool(i % 3 == 0),
            ])
        }),
    )
    .unwrap();
    let dims = Schema::new(vec![("key", ColumnType::Int), ("w", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "dims",
        dims,
        (0..1_000i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
    )
    .unwrap();
    db
}

/// Runs `agg(query)` over [`orders_db`] under both layouts and
/// requires byte-identical reports and traces. Returns the row
/// layout's report for shape assertions.
fn assert_layouts_agree(
    agg: AggregateFn,
    query: &str,
    quota: Duration,
    faults: Option<fn() -> FaultPlan>,
) -> String {
    let expr = parse_expr(query).expect("test query parses");
    let run = |layout: BlockLayout| {
        let mut db = orders_db(61);
        if let Some(plan) = faults {
            db.inject_faults(plan());
        }
        let tracer = Tracer::recording(db.disk().clock().clone());
        let out = db
            .aggregate(agg, expr.clone())
            .within(quota)
            .block_layout(layout)
            .seed(0xC0FFEE)
            .tracer(tracer.clone())
            .run()
            .expect("query must execute");
        render(&out.report, &tracer)
    };
    let (report_row, trace_row) = run(BlockLayout::Row);
    let (report_col, trace_col) = run(BlockLayout::Columnar);
    assert_eq!(
        report_row, report_col,
        "{agg} of {query}: report diverged across layouts"
    );
    assert_eq!(
        trace_row, trace_col,
        "{agg} of {query}: trace diverged across layouts"
    );
    report_row
}

const QUOTA: Duration = Duration::from_millis(2_500);

#[test]
fn fused_count_is_identical_to_decode_then_filter() {
    // Plain COUNT: the row scan decodes nothing, the columnar one
    // everything. One atom, two atoms, `not`/`or`, and atoms on a
    // string, a float and a bool column.
    for query in [
        "select[#1 < 300](orders)",
        "select[#1 < 300 and #2 = 1](orders)",
        "select[not (#1 >= 300 or #2 = 1)](orders)",
        "select[#3 >= \"green\"](orders)",
        "select[(#4 > 12.5 or #5 = true) and not (#3 = \"\")](orders)",
    ] {
        assert_layouts_agree(AggregateFn::Count, query, QUOTA, None);
    }
}

#[test]
fn fused_scan_feeding_sum_avg_and_group_by_decodes_the_same_survivors() {
    // The aggregate reads the qualifying rows, so the fused scan
    // must hand up exactly the rows the filter-after-decode path
    // does, in the same order (GROUP BY freezes groups in order).
    let query = "select[#1 < 700 and not (#3 = \"blue\")](orders)";
    for agg in [
        AggregateFn::Sum { column: 1 },
        AggregateFn::Avg { column: 4 },
        AggregateFn::CountBy { group: 2 },
        AggregateFn::SumBy {
            column: 1,
            group: 2,
        },
    ] {
        assert_layouts_agree(agg, query, QUOTA, None);
    }
}

#[test]
fn fused_scan_under_a_join_is_identical_across_layouts() {
    // Push-down leaves the selection directly on `orders`' leaf; its
    // survivors feed the join's sort, so they are decoded even though
    // the query is a COUNT.
    let query = "select[#2 < 2 and #3 != \"red\"](join[#1=#0](orders, dims))";
    assert_layouts_agree(AggregateFn::Count, query, QUOTA, None);
    assert_layouts_agree(AggregateFn::Sum { column: 7 }, query, QUOTA, None);
}

#[test]
fn projection_reports_are_byte_identical_across_layouts() {
    // A projection root takes the Goodman estimator path; it projects
    // the rows its child hands up — a bare leaf's, or a fused scan's
    // survivors.
    for query in [
        "project[#1](orders)",
        "project[#1](select[#1 < 50](orders))",
    ] {
        assert_layouts_agree(AggregateFn::Count, query, QUOTA, None);
    }
}

#[test]
fn fused_scan_under_block_loss_is_identical_across_layouts() {
    // Corrupt and retry-exhausted blocks drop out of the draw before
    // either scan sees them.
    let plan: fn() -> FaultPlan = || FaultPlan::new(5).with_corruption(0.1).with_transient(0.3);
    let query = "select[#1 < 300 or #3 = \"green\"](orders)";
    let report = assert_layouts_agree(AggregateFn::Count, query, QUOTA, Some(plan));
    assert!(report.contains("\"degraded\":true"), "no block was lost");
    assert_layouts_agree(AggregateFn::Sum { column: 1 }, query, QUOTA, Some(plan));
}

#[test]
fn fused_scan_aborted_mid_draw_is_identical_across_layouts() {
    // Latency spikes the cost model cannot foresee push a stage past
    // the hard deadline inside its draw: the pages already fetched
    // are dropped with the stage — nothing decoded on the way out
    // under either layout. Every read spikes, so the first stage's
    // 12 blocks (sized from the prior, whatever the draw) cost 3 s in
    // spikes alone against a 2.5 s quota: the abort is certain.
    let spikes: fn() -> FaultPlan =
        || FaultPlan::new(7).with_spikes(1.0, Duration::from_millis(250));
    let query = "select[#1 < 300 and #3 != \"red\"](orders)";
    for agg in [AggregateFn::Count, AggregateFn::Sum { column: 1 }] {
        let report = assert_layouts_agree(agg, query, QUOTA, Some(spikes));
        assert!(
            report.contains("\"within_quota\":false"),
            "the spikes were meant to abort a stage: {report}"
        );
    }
}
