//! End-to-end forensics: real engine runs → postmortems.
//!
//! 1. **Waterfall/convergence** — a traced Figure 5.1 selection's
//!    postmortem reconstructs the stage table the report carries.
//! 2. **Deadline-miss attribution** — a deliberately overrun,
//!    fault-stormed run's postmortem names the overrunning stage and
//!    the phase that consumed the slack.
//! 3. **Serving forensics** — a serve yields the same tenant SLO
//!    table whether the ledger, only the trace, or only the job
//!    reports survived it, and the trace carves into per-job windows.
//! 4. **Golden postmortem** — the JSON rendering of the Figure 5.1
//!    postmortem is pinned under `tests/golden/`; drift fails.
//!    Regenerate with `BLESS=1 cargo test -p eram-explain` after an
//!    intentional change.

use std::path::Path;
use std::time::Duration;

use eram_core::{
    Database, ExecutionReport, QueryServer, ServerJob, ServerOutcome, TenantSlo, TraceRecord,
    Tracer,
};
use eram_explain::{
    attribute, convergence_timeline, job_windows, parse_trace, postmortem, waterfall,
    waterfall_from_report, Format,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, FaultPlan, Schema, Tuple, Value};

/// The paper's Figure 5.1 artificial relation: 10 000 tuples of
/// 200 bytes, value column uniform over 0..100.
fn fig51_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "r",
        schema,
        (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100)])),
    )
    .unwrap();
    db
}

fn fig51_expr() -> Expr {
    Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50))
}

/// One deterministic traced run; returns the records and the report.
fn traced_run(
    seed: u64,
    quota: Duration,
    faults: Option<FaultPlan>,
) -> (Vec<TraceRecord>, ExecutionReport) {
    let mut db = fig51_db(seed);
    if let Some(plan) = faults {
        db.inject_faults(plan);
    }
    let tracer = Tracer::recording(db.disk().clock().clone());
    let result = db
        .count(fig51_expr())
        .within(quota)
        .seed(7)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    (tracer.records(), result.report)
}

#[test]
fn waterfall_reconstructs_the_report_stage_table() {
    let (records, report) = traced_run(42, Duration::from_secs(10), None);
    let from_trace = waterfall(&records);
    let from_report = waterfall_from_report(&report);
    assert!(!from_trace.is_empty());
    assert_eq!(
        from_trace.len(),
        from_report.len(),
        "trace and report must agree on the stage count"
    );
    for (t, r) in from_trace.iter().zip(from_report.iter()) {
        assert_eq!(t.stage, r.stage);
        assert_eq!(t.fraction, r.fraction, "stage {}", t.stage);
        assert_eq!(t.blocks, r.blocks, "stage {}", t.stage);
        assert_eq!(t.within_quota, r.within_quota, "stage {}", t.stage);
    }
    // The charged stage spans sum into the cumulative column.
    let last = from_trace.last().unwrap();
    assert_eq!(
        last.cumulative_ns,
        from_trace
            .iter()
            .map(|r| r.actual_ns.unwrap_or(0))
            .sum::<u64>()
    );
    let timeline = convergence_timeline(&records);
    assert_eq!(timeline.len(), from_trace.len(), "one batch per stage");
    // CI half-widths are recorded and finite.
    for p in &timeline {
        let w = p.rel_half_width.expect("half-width recorded");
        assert!(w.is_finite() && w >= 0.0);
    }
}

#[test]
fn deadline_missed_run_names_the_phase_that_consumed_the_slack() {
    // A fault storm of transient errors plus latency spikes the
    // admission-time cost model never saw: the in-flight stage blows
    // past its prediction and the hard deadline aborts it mid-draw.
    let (records, report) = traced_run(
        42,
        Duration::from_millis(1500),
        Some(
            FaultPlan::new(0xFA11)
                .with_transient(0.4)
                .with_spikes(0.4, Duration::from_millis(100)),
        ),
    );
    let quota_ns = report.quota.as_nanos() as u64;
    assert!(report.overspent(), "the run was engineered to overrun");
    let attr = attribute(&records, Some(quota_ns));
    assert!(
        attr.overrun_stage.is_some(),
        "the aborted stage is named; health: {:?}",
        report.health
    );
    assert!(attr.aborted, "the stage was cut mid-draw");
    assert!(attr.spent_ns > quota_ns, "slack was consumed past quota");
    let culprit = attr.culprit.as_deref().expect("a culprit is named");
    assert!(
        attr.consumers.iter().any(|c| c.name == "block_draw"),
        "draw spans are the consumers: {:?}",
        attr.consumers
    );
    // The top consumer is a real phase, not an empty label.
    assert!(!culprit.is_empty());
    // The postmortem carries the same attribution.
    let pm = postmortem(Some(&records), None, Some(&report));
    let pm_attr = pm.miss_attribution.as_ref().expect("attribution present");
    assert_eq!(pm_attr.culprit.as_deref(), Some(culprit));
    assert_eq!(pm.quota_ns, Some(quota_ns));
    let text = pm.render(Format::Text);
    assert!(
        text.contains(&format!("top consumer: {culprit}")),
        "rendering names the culprit:\n{text}"
    );
}

/// Serves `jobs` with the ledger and a trace on; returns the outcome
/// and the trace records.
fn traced_serve(
    seed: u64,
    faults: FaultPlan,
    jobs: Vec<ServerJob>,
) -> (ServerOutcome, Vec<TraceRecord>) {
    let mut db = fig51_db(seed);
    db.inject_faults(faults);
    let tracer = Tracer::recording(db.disk().clock().clone());
    let outcome = QueryServer::new()
        .ledger(true)
        .tracer(tracer.clone())
        .run(&mut db, jobs);
    (outcome, tracer.records())
}

/// One fold, three sources: the postmortem's tenant table is the
/// ledger's when the outcome carries one, and without it the same
/// table comes from the trace's decision lines, without the trace too
/// from what the job reports imply, and from a trace alone — every
/// column equal each time (a sequential serve shares no draws).
fn assert_table_is_source_independent(outcome: &ServerOutcome, records: &[TraceRecord]) {
    let with_ledger = postmortem(Some(records), Some(outcome), None);
    let ledger = outcome.ledger.as_ref().expect("served with the ledger on");
    assert_eq!(with_ledger.tenants.len(), ledger.tenants.len());
    for row in &with_ledger.tenants {
        assert_eq!(Some(&row.slo), ledger.tenants.get(&row.tenant));
    }
    let mut bare = outcome.clone();
    bare.ledger = None;
    let from_trace = postmortem(Some(records), Some(&bare), None);
    let from_reports = postmortem(None, Some(&bare), None);
    let trace_alone = postmortem(Some(records), None, None);
    for other in [&from_trace, &from_reports, &trace_alone] {
        assert_eq!(other.tenants, with_ledger.tenants);
    }
    assert_eq!(
        from_trace.render(Format::Text),
        with_ledger.render(Format::Text),
        "the postmortem must not depend on --ledger"
    );
}

#[test]
fn serving_postmortem_builds_tenant_tables_and_job_windows() {
    // A storm cell of `tests/admission_chaos.rs` with a deflated
    // dispatch and a late shed, plus an infeasible job.
    let sel = |k| Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, k));
    let (outcome, records) = traced_serve(
        4,
        FaultPlan::new(4 ^ 0xC4A0)
            .with_transient(0.15)
            .with_spikes(0.4, Duration::from_millis(400)),
        vec![
            ServerJob::count("fast", sel(30), Duration::from_secs(4)),
            ServerJob::count("mid", sel(50), Duration::from_secs(10)).with_value(2.0),
            ServerJob::count("slow", sel(70), Duration::from_secs(18)).with_value(0.5),
            ServerJob::count("tail", sel(90), Duration::from_secs(26))
                .with_desired_quota(Duration::from_secs(4)),
            ServerJob::count("tiny", fig51_expr(), Duration::from_millis(1)),
        ],
    );

    // The assembled postmortem has all three planes; its tenant rows
    // cross-check the stats.
    let pm = postmortem(Some(&records), Some(&outcome), None);
    let rows = &pm.tenants;
    assert_eq!(rows.len(), 5);
    assert_eq!(pm.jobs.len(), 5);
    let sum = |f: fn(&TenantSlo) -> u64| rows.iter().map(|r| f(&r.slo)).sum::<u64>();
    assert_eq!(sum(|t| t.offered), outcome.stats.offered);
    assert_eq!(sum(|t| t.deadlines_met), outcome.stats.deadlines_met);
    let done = rows.iter().find(|r| r.slo.completed == 1).unwrap();
    assert!(done.slo.granted_ns > 0 && done.slo.spent_ns > 0);
    assert!(done.slo.spend_ratio() > 0.0);
    let text = pm.render(Format::Text);
    assert!(text.contains("tenant SLO table"));
    assert!(text.contains("fast"));
    // The late shed's burned time counts as spent, and the deflated
    // dispatch is granted what it ran under.
    let late = rows.iter().find(|r| r.slo.shed == 1).expect("a late shed");
    assert!(late.slo.spent_ns > late.slo.granted_ns, "{text}");
    let ledger = outcome.ledger.as_ref().unwrap();
    let deflated = ledger.decisions.iter().find(|d| d.deflated_ns.is_some());
    let deflated = deflated.expect("a deflation");
    assert_eq!(
        ledger.tenants[&deflated.job].granted_ns,
        deflated.deflated_ns.unwrap()
    );
    assert_table_is_source_independent(&outcome, &records);

    // The trace carves into one window per job that ran to a done
    // record, and each window encloses that job's engine records.
    let windows = job_windows(&records);
    assert_eq!(windows.len() as u64, outcome.stats.completed);
    for w in &windows {
        assert!(w.grant_ns.unwrap_or(0) > 0, "{} got a grant", w.job);
        assert_eq!(w.met, Some(true), "{} met its deadline", w.job);
        assert!(
            records[w.start..w.end].iter().any(|r| r.name == "execute"),
            "{}'s window holds its engine run",
            w.job
        );
    }

    // Every read spiked past a small quota: watchdog trips and a
    // pre-dispatch shed, the same on every path.
    let small = |name: &str, deadline: f64| {
        ServerJob::count(name, fig51_expr(), Duration::from_secs_f64(deadline))
            .with_desired_quota(Duration::from_millis(600))
    };
    let (outcome, records) = traced_serve(
        23,
        FaultPlan::new(9).with_spikes(1.0, Duration::from_secs(1)),
        vec![
            small("a", 2.0),
            small("b", 4.0),
            ServerJob::count("cheap", fig51_expr(), Duration::from_secs_f64(4.4))
                .with_min_quota(Duration::from_millis(1200))
                .with_value(0.1),
        ],
    );
    assert!(outcome.stats.watchdog_overruns > 0 && outcome.stats.shed > 0);
    assert_table_is_source_independent(&outcome, &records);
}

/// `eram-explain --trace` on a record line of 100 000 `[`: exit 2
/// with the line named, not a stack overflow.
#[test]
fn nesting_bomb_in_a_trace_is_a_line_numbered_error() {
    let path = std::env::temp_dir().join(format!("eram-explain-bomb-{}.jsonl", std::process::id()));
    let bomb = "[".repeat(100_000);
    std::fs::write(&path, format!("{{\"schema_version\":1}}\n{bomb}\n")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_eram-explain"))
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("eram-explain runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fig5_1_select.postmortem.json"
);

#[test]
fn golden_postmortem_is_stable() {
    let mut db = fig51_db(42);
    let tracer = Tracer::recording(db.disk().clock().clone());
    let result = db
        .count(fig51_expr())
        .within(Duration::from_secs(10))
        .seed(7)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    // Through the same ingestion path the binary uses: JSONL → records.
    let records = parse_trace(&tracer.to_jsonl()).expect("own trace parses");
    assert_eq!(records, tracer.records(), "JSONL round-trips the records");
    let pm = postmortem(Some(&records), None, Some(&result.report));
    testkit::assert_golden(Path::new(GOLDEN), &pm.render(Format::Json));
}
