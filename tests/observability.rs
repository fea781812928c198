//! The observability layer's contract, locked down end to end:
//!
//! 1. **Determinism** — same data seed + query seed on a `SimClock`
//!    produce a byte-identical JSONL trace, run after run.
//! 2. **Golden trace** — one Figure 5.1 selection query's trace is
//!    pinned under `tests/golden/`, beside the report of one cached,
//!    fault-armed run with all ten `storage.*` counters; any drift in
//!    the span taxonomy, record schema, charged timestamps or counter
//!    set fails with a line diff.
//!    Regenerate with `BLESS=1 cargo test -p eram-bench --test
//!    observability` after an intentional change.
//! 3. **Accounting invariants** — stage spans partition the charged
//!    time, the `execute` span equals `total_elapsed`, and the
//!    metrics snapshot agrees with the disk's own counters and the
//!    report health, even when a fault plan is re-armed mid-run.
//! 4. **Well-formedness** (property-based) — for arbitrary
//!    expressions and quotas: spans nest, stage indices and
//!    timestamps are monotone, every executed stage emits exactly one
//!    stopping check, and every run emits exactly one terminal stop.
//!
//! Set `ERAM_TRACE_OUT=<path>` to dump the determinism trace as a CI
//! artifact.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use testkit::prelude::*;

use eram_core::{
    AggregateFn, Database, EngineConfig, MetricsSnapshot, Profiler, QueryServer, ReportHealth,
    ServerJob, StageRun, StoppingCriterion, Store, TraceKind, TraceRecord, Tracer, SCHEMA_VERSION,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Json, Schema, ToJson, Tuple, Value};

/// The paper's Figure 5.1 artificial relation: 10 000 tuples of
/// 200 bytes, value column uniform over 0..100 so `#1 < 50` selects
/// 5 000 tuples.
fn fig51_db(seed: u64) -> Database {
    fig51_on(Database::sim_default(seed))
}

/// Loads the Figure 5.1 relation `r` into `db`.
fn fig51_on(mut db: Database) -> Database {
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

/// One deterministic Figure 5.1 selection run with a recording
/// tracer; returns the JSONL trace and the records.
fn fig51_trace() -> (String, Vec<TraceRecord>) {
    let mut db = fig51_db(42);
    let tracer = Tracer::recording(db.disk().clock().clone());
    db.count(fig51_expr())
        .within(Duration::from_secs(10))
        .seed(7)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    (tracer.to_jsonl(), tracer.records())
}

#[test]
fn identical_seeds_yield_byte_identical_jsonl() {
    let (a, _) = fig51_trace();
    let (b, _) = fig51_trace();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + SimClock must replay byte-identically");
    // The first line is the versioned schema header, not a record.
    assert_eq!(
        a.lines().next().unwrap(),
        format!("{{\"schema_version\":{SCHEMA_VERSION}}}")
    );
    if let Some(path) = std::env::var_os("ERAM_TRACE_OUT") {
        std::fs::write(&path, &a).expect("ERAM_TRACE_OUT must be writable");
    }
}

/// The profiler is pure observation: attaching it must not perturb
/// the charged clock, the RNG, the trace, or the report. This is the
/// end-to-end (Database-level) counterpart of the executor's unit
/// test.
#[test]
fn profiling_never_perturbs_trace_or_report() {
    let run = |profile: bool| {
        let mut db = fig51_db(42);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let profiler = if profile {
            Profiler::recording(db.disk().clock().clone())
        } else {
            Profiler::disabled()
        };
        let out = db
            .count(fig51_expr())
            .within(Duration::from_secs(10))
            .seed(7)
            .tracer(tracer.clone())
            .profiler(profiler)
            .run()
            .unwrap();
        (out, tracer.to_jsonl())
    };
    let (base, base_trace) = run(false);
    assert!(base.report.profile.is_none());
    let (prof, prof_trace) = run(true);
    assert_eq!(prof_trace, base_trace);
    assert_eq!(
        prof.estimate.estimate.to_bits(),
        base.estimate.estimate.to_bits()
    );
    let snap = prof.report.profile.as_ref().expect("profiler attached");
    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    assert!(snap.total_wall_ns() > 0);
    // Everything except the profile field is byte-identical.
    let strip = |r: &eram_core::ExecutionReport| {
        let mut v = r.to_json();
        v.remove("profile");
        v
    };
    assert_eq!(strip(&prof.report), strip(&base.report));
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fig5_1_select.trace.jsonl"
);

#[test]
fn golden_trace_is_stable() {
    let (trace, _) = fig51_trace();
    testkit::assert_golden(Path::new(GOLDEN), &trace);
}

const GOLDEN_METRICS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/metrics.report.json"
);

/// The pretty report of one seeded metrics run of a self-join on a
/// cached disk with transient, corruption and spike faults armed, so
/// every `storage.*` counter — device, cache and fault — appears in
/// its snapshot.
#[test]
fn golden_metrics_report_is_stable() {
    let cached = Store {
        cache_blocks: 64,
        ..Store::default()
    };
    let mut db = fig51_on(Database::open(cached, 4).unwrap());
    db.inject_faults(
        FaultPlan::new(0x3E7)
            .with_transient(0.05)
            .with_corruption(0.02)
            .with_spikes(0.03, Duration::from_millis(40)),
    );
    let out = db
        .count(Expr::relation("r").join(Expr::relation("r"), vec![(1, 1)]))
        .within(Duration::from_secs(10))
        .seed(11)
        .metrics(true)
        .run()
        .unwrap();
    let m = out.report.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.counters.len(), 10, "{:?}", m.counters);
    assert!(m.counter("storage.cache_hits") > 0 && m.counter("storage.latency_spikes") > 0);
    let report = json::to_string_pretty(&out.report) + "\n";
    testkit::assert_golden(Path::new(GOLDEN_METRICS), &report);
}

const GOLDEN_GROUPED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/groupby_sum.trace.jsonl"
);

/// One deterministic grouped-SUM run with a recording tracer: two
/// interleaved groups with distinct value dispersion, so the trace
/// pins the per-group stopping taxonomy too.
fn grouped_trace() -> String {
    let mut db = Database::sim_default(42);
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("grp", ColumnType::Int),
    ])
    .padded_to(200);
    let mut tuples = Vec::new();
    for i in 0..10_000i64 {
        tuples.push(Tuple::new(vec![
            Value::Int(i),
            Value::Int((i * 37) % if i % 3 == 0 { 5 } else { 800 }),
            Value::Int(i % 3),
        ]));
    }
    tuples.sort_by_key(|t| t.value(0).as_int().unwrap() % 997);
    db.load_relation("g", schema, tuples).unwrap();
    let tracer = Tracer::recording(db.disk().clock().clone());
    db.aggregate(
        eram_core::AggregateFn::SumBy {
            column: 1,
            group: 2,
        },
        Expr::relation("g").select(Predicate::col_cmp(1, CmpOp::Lt, 700)),
    )
    .within(Duration::from_secs(3))
    .seed(7)
    .tracer(tracer.clone())
    .run()
    .unwrap();
    tracer.to_jsonl()
}

#[test]
fn golden_grouped_trace_is_stable() {
    testkit::assert_golden(Path::new(GOLDEN_GROUPED), &grouped_trace());
}

#[test]
fn stage_spans_partition_the_charged_time() {
    let mut db = fig51_db(42);
    let tracer = Tracer::recording(db.disk().clock().clone());
    let out = db
        .count(fig51_expr())
        .within(Duration::from_secs(10))
        .seed(7)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    let records = tracer.records();
    let total_ns = out.report.total_elapsed.as_nanos() as u64;
    let stage_dur: u64 = records
        .iter()
        .filter(|r| r.kind == TraceKind::End && r.name == "stage")
        .map(|r| r.dur_ns.unwrap())
        .sum();
    assert_eq!(
        stage_dur, total_ns,
        "stage span durations must sum to ExecutionReport::total_elapsed"
    );
    let execute_dur = records
        .iter()
        .find(|r| r.kind == TraceKind::End && r.name == "execute")
        .and_then(|r| r.dur_ns)
        .unwrap();
    assert_eq!(execute_dur, total_ns, "root span must cover the whole run");
    // Per-stage span durations match the per-stage reports.
    let stage_ends: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == TraceKind::End && r.name == "stage")
        .map(|r| r.dur_ns.unwrap())
        .collect();
    let reported: Vec<u64> = out
        .report
        .stages
        .iter()
        .map(|s| s.actual_cost.as_nanos() as u64)
        .collect();
    assert_eq!(stage_ends, reported);
}

#[test]
fn metrics_agree_with_injector_health_and_device_counters() {
    let mut db = fig51_db(1);
    db.inject_faults(
        FaultPlan::new(0x0B5E)
            .with_transient(0.08)
            .with_corruption(0.02),
    );
    let disk_before = db.disk().stats();
    let out = db
        .count(fig51_expr())
        .within(Duration::from_secs(10))
        .seed(3)
        .metrics(true)
        .run()
        .unwrap();
    let disk_after = db.disk().stats();
    let m = out.report.metrics.as_ref().expect("metrics requested");
    let h = out.report.health;

    // Storage counters are exact deltas of the device's lifetime
    // totals across the run.
    assert_eq!(
        m.counter("storage.block_reads"),
        disk_after.block_reads - disk_before.block_reads
    );
    assert_eq!(
        m.counter("storage.checksum_verifies"),
        disk_after.checksum_verifies - disk_before.checksum_verifies
    );

    // The fault metrics are exactly what the injector decided.
    let transient = disk_after.faults_transient - disk_before.faults_transient;
    let corrupt = disk_after.faults_corrupt - disk_before.faults_corrupt;
    assert_eq!(m.counter("storage.faults_transient"), transient);
    assert_eq!(m.counter("storage.faults_corrupt"), corrupt);
    assert!(transient + corrupt > 0, "8%+2% rates must fault");
    // Every injected error surfaced to the loop as an observed fault.
    assert_eq!(h.faults_seen, transient + corrupt);
}

/// Re-arming a plan mid-run starts a fresh injector, but the metrics
/// delta is taken over the disk's lifetime counters: it counts what
/// the run saw on either side of the re-arm, and never runs backwards.
#[test]
fn rearming_faults_mid_run_keeps_the_metrics_delta_whole() {
    let mut db = fig51_db(5);
    let plan = FaultPlan::new(0x5EA)
        .with_transient(0.10)
        .with_corruption(0.02);
    db.inject_faults(plan);
    db.count(fig51_expr())
        .within(Duration::from_secs(20))
        .seed(1)
        .run()
        .unwrap();
    let config = EngineConfig {
        collect_metrics: true,
        ..EngineConfig::default()
    };
    let mut spec = db.prepare(AggregateFn::Count, fig51_expr(), config);
    spec.quota = Duration::from_secs(2);
    let mut run = StageRun::start(db.disk(), db.catalog(), &spec).unwrap();
    assert!(run.step().unwrap(), "the run outlives its first stage");
    db.inject_faults(plan);
    while run.step().unwrap() {}
    let out = run.finish();
    let m = out.report.metrics.as_ref().expect("metrics requested");
    let faults = m.counter("storage.faults_transient") + m.counter("storage.faults_corrupt");
    assert_eq!(faults, out.report.health.faults_seen);
}

#[test]
fn retry_and_block_loss_events_ride_the_trace() {
    let mut db = fig51_db(2);
    db.inject_faults(FaultPlan::new(0xBAD5EED).with_transient(0.20));
    let tracer = Tracer::recording(db.disk().clock().clone());
    let out = db
        .count(fig51_expr())
        .within(Duration::from_secs(10))
        .seed(5)
        .tracer(tracer.clone())
        .run()
        .unwrap();
    let records = tracer.records();
    let retries = records.iter().filter(|r| r.name == "retry").count() as u64;
    assert_eq!(
        retries, out.report.health.retries,
        "one retry event per charged retry"
    );
    let lost = records.iter().filter(|r| r.name == "block_lost").count() as u64;
    assert_eq!(lost, out.report.health.blocks_lost);
}

#[test]
fn report_health_serde_round_trips_with_partial_defaults() {
    let h = ReportHealth {
        faults_seen: 4,
        retries: 2,
        blocks_lost: 1,
        degraded: true,
        refusal: None,
    };
    let json = json::to_string(&h);
    let back: ReportHealth = json::from_str(&json).unwrap();
    assert_eq!(back, h);
    // Fields default individually: an older writer's partial object
    // deserializes instead of erroring.
    let partial: ReportHealth = json::from_str(r#"{"retries": 7}"#).unwrap();
    assert_eq!(
        partial,
        ReportHealth {
            retries: 7,
            ..ReportHealth::default()
        }
    );
    let empty: ReportHealth = json::from_str("{}").unwrap();
    assert_eq!(empty, ReportHealth::default());
}

#[test]
fn the_metrics_snapshot_counters_survive_the_report_round_trip() {
    let mut db = fig51_db(3);
    let out = db
        .count(fig51_expr())
        .within(Duration::from_secs(5))
        .seed(9)
        .metrics(true)
        .run()
        .unwrap();
    let json = json::to_string(&out.report);
    assert!(json.contains("metrics"));
    let back: eram_core::ExecutionReport = json::from_str(&json).unwrap();
    assert_eq!(back.metrics, out.report.metrics);
    // Both the report and its embedded snapshot carry the schema tag.
    assert_eq!(out.report.schema_version, SCHEMA_VERSION);
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    let m: &MetricsSnapshot = back.metrics.as_ref().unwrap();
    assert_eq!(m.schema_version, SCHEMA_VERSION);
    assert!(!m.is_empty());
    assert!(m.counter("storage.block_reads") > 0);
}

/// Structural checks on one trace: spans nest properly, timestamps
/// and stage indices are monotone, each executed stage has exactly
/// one stopping check and one convergence record, and exactly one
/// terminal stop event exists.
fn assert_well_formed(records: &[TraceRecord]) {
    let mut span_stack: Vec<&str> = Vec::new();
    let mut last_t = 0u64;
    let mut last_stage = 0usize;
    for rec in records {
        assert!(rec.t_ns >= last_t, "timestamps must be monotone");
        last_t = rec.t_ns;
        assert!(rec.stage >= last_stage, "stage indices must be monotone");
        last_stage = rec.stage;
        match rec.kind {
            TraceKind::Begin => span_stack.push(rec.name.as_str()),
            TraceKind::End => {
                let open = span_stack.pop().expect("End without matching Begin");
                assert_eq!(open, rec.name, "spans must nest (LIFO)");
                assert!(rec.dur_ns.is_some(), "End records carry a duration");
            }
            TraceKind::Event | TraceKind::Stage => {}
        }
    }
    assert!(span_stack.is_empty(), "unclosed spans: {span_stack:?}");

    let count = |kind: TraceKind, name: &str| {
        records
            .iter()
            .filter(|r| r.kind == kind && r.name == name)
            .count()
    };
    let stages = count(TraceKind::End, "stage");
    assert_eq!(
        count(TraceKind::Event, "stopping_check"),
        stages,
        "exactly one stopping check per executed stage"
    );
    assert_eq!(
        count(TraceKind::Stage, "convergence"),
        stages,
        "exactly one convergence record per executed stage"
    );
    assert_eq!(
        count(TraceKind::Event, "stop"),
        1,
        "exactly one terminal stop event per run"
    );
    assert_eq!(count(TraceKind::End, "execute"), 1);
}

fn small_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..500).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100)])),
    )
    .unwrap();
    db
}

fn arbitrary_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..100).prop_map(|k| Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, k))),
        Just(Expr::relation("t").project(vec![1])),
        Just(Expr::relation("t").union(Expr::relation("t"))),
        Just(Expr::relation("t").intersect(Expr::relation("t"))),
        // Rewrites to the empty expression: the trace must still be
        // well formed (a lone execute span plus a stop event).
        Just(Expr::relation("t").difference(Expr::relation("t"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary expressions, quotas, and seeds always produce a
    /// well-formed trace with partitioning stage spans.
    #[test]
    fn any_run_produces_a_well_formed_trace(
        expr in arbitrary_expr(),
        quota_ms in 100u64..5_000,
        seed in any::<u64>(),
        soft in any::<bool>(),
    ) {
        let mut db = small_db(seed ^ 0x0B5);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let out = db
            .count(expr)
            .within(Duration::from_millis(quota_ms))
            .stopping(if soft {
                StoppingCriterion::SoftDeadline
            } else {
                StoppingCriterion::HardDeadline
            })
            .seed(seed)
            .tracer(tracer.clone())
            .run()
            .unwrap();
        let records = tracer.records();
        assert_well_formed(&records);
        let stage_dur: u64 = records
            .iter()
            .filter(|r| r.kind == TraceKind::End && r.name == "stage")
            .map(|r| r.dur_ns.unwrap())
            .sum();
        prop_assert_eq!(stage_dur, out.report.total_elapsed.as_nanos() as u64);
        // The trace round-trips through JSONL without loss (first
        // line is the schema header, not a record).
        let jsonl = tracer.to_jsonl();
        let mut lines = jsonl.lines();
        let header: Json =
            json::from_str(lines.next().unwrap()).unwrap();
        prop_assert_eq!(
            header.get("schema_version").and_then(|v| v.as_u64()),
            Some(u64::from(SCHEMA_VERSION))
        );
        let back: Vec<TraceRecord> = lines
            .map(|l| json::from_str(l).unwrap())
            .collect();
        prop_assert_eq!(back, records);
    }
}

/// Every record name the tracer and server emit; the server's whole
/// vocabulary is the decision audit (`server.decision`).
const RECORD_NAMES: [&str; 12] = [
    "execute",
    "stage",
    "block_draw",
    "revise_selectivities",
    "plan_stage",
    "group_convergence",
    "convergence",
    "stopping_check",
    "stop",
    "retry",
    "block_lost",
    "server.decision",
];

/// An arbitrary field value of the shapes the taxonomy uses: bools,
/// counters, finite floats, labels, and homogeneous arrays.
fn arbitrary_field_value() -> impl Strategy<Value = Json> {
    prop_oneof![
        any::<bool>().prop_map(Json::from),
        any::<u64>().prop_map(Json::from),
        any::<i64>().prop_map(Json::from),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Json::from),
        "[a-z_:.]{1,16}".prop_map(Json::from),
        testkit::collection::vec(any::<u64>(), 0..4).prop_map(Json::from),
    ]
}

fn arbitrary_record() -> impl Strategy<Value = TraceRecord> {
    let kind = prop_oneof![
        Just(TraceKind::Begin),
        Just(TraceKind::End),
        Just(TraceKind::Event),
        Just(TraceKind::Stage),
    ];
    let name = testkit::sample::select(RECORD_NAMES.to_vec());
    let fields = testkit::collection::vec(("[a-z_]{1,12}", arbitrary_field_value()), 0..5);
    (kind, name, 0usize..32, any::<u64>(), any::<u64>(), fields).prop_map(
        |(kind, name, stage, t_ns, dur, fields)| TraceRecord {
            t_ns,
            kind,
            name: name.to_string(),
            stage,
            // The schema carries durations on End records only.
            dur_ns: (kind == TraceKind::End).then_some(dur),
            fields: fields.into_iter().collect(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record type the tracer and server can emit — including
    /// `server.decision` — parses back from its JSONL line and
    /// re-serializes byte-identically.
    #[test]
    fn any_record_type_reserializes_byte_identically(record in arbitrary_record()) {
        let line = json::to_string(&record);
        let back: TraceRecord = json::from_str(&line).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(json::to_string(&back), line);
    }
}

/// The same property over a real serving trace: every line a
/// faulted serve emits — decision audit included —
/// round-trips byte-identically through [`TraceRecord`].
#[test]
fn server_trace_lines_round_trip_byte_identically() {
    let mut db = small_db(11);
    db.inject_faults(FaultPlan::new(5).with_transient(0.05));
    let tracer = Tracer::recording(db.disk().clock().clone());
    let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
    let jobs = vec![
        ServerJob::count("alpha", expr.clone(), Duration::from_secs(6)),
        ServerJob::count("tiny", expr, Duration::from_millis(1)),
    ];
    let mut server = QueryServer::new();
    server.engine.tracer = tracer.clone();
    server.run(&mut db, jobs);
    let jsonl = tracer.to_jsonl();
    let mut decisions = 0usize;
    for line in jsonl.lines().skip(1) {
        let back: TraceRecord = json::from_str(line).expect("every line parses");
        assert_eq!(
            json::to_string(&back),
            line,
            "re-serialization is byte-identical"
        );
        if back.name == "server.decision" {
            decisions += 1;
            let action = back.fields.get("action").and_then(|v| v.as_str());
            assert!(action.is_some(), "decisions carry their action");
        }
    }
    assert!(
        decisions >= 3,
        "admit + refuse + grant/done decisions in the audit: {decisions}"
    );
}

#[test]
fn trace_stop_reasons_are_from_the_documented_set() {
    let known: [&str; 8] = [
        "max_stages",
        "census_complete",
        "quota_exhausted",
        "leftover_too_small",
        "aborted",
        "quota_expired",
        "precision_satisfied",
        "empty_rewrite",
    ];
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let precise = StoppingCriterion::Combined(vec![
        StoppingCriterion::HardDeadline,
        StoppingCriterion::ErrorBound {
            target: 0.2,
            confidence: 0.95,
        },
    ]);
    let cases: [(Expr, Duration, StoppingCriterion); 4] = [
        // Hard deadline on a big relation: expires mid-flight.
        (
            fig51_expr(),
            Duration::from_secs(10),
            StoppingCriterion::HardDeadline,
        ),
        // Census: quota vastly exceeds a full scan of the relation.
        (
            Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50)),
            Duration::from_secs(100_000),
            StoppingCriterion::HardDeadline,
        ),
        // Empty rewrite.
        (
            Expr::relation("r").difference(Expr::relation("r")),
            Duration::from_secs(5),
            StoppingCriterion::HardDeadline,
        ),
        // A ±20 % target the stages meet well inside a generous quota.
        (fig51_expr(), Duration::from_secs(100), precise),
    ];
    for (i, (expr, quota, stopping)) in cases.into_iter().enumerate() {
        let mut db = fig51_db(20 + i as u64);
        let tracer = Tracer::recording(db.disk().clock().clone());
        db.count(expr)
            .within(quota)
            .stopping(stopping)
            .seed(i as u64)
            .tracer(tracer.clone())
            .run()
            .unwrap();
        let records = tracer.records();
        let stop = records
            .iter()
            .find(|r| r.name == "stop")
            .expect("every run emits a stop event");
        let reason = stop
            .fields
            .get("reason")
            .and_then(|v| v.as_str())
            .expect("stop carries a reason")
            .to_string();
        assert!(known.contains(&reason.as_str()), "unknown reason {reason}");
        *seen.entry(reason).or_insert(0) += 1;
    }
    assert!(
        seen.contains_key("census_complete"),
        "huge quota must reach census: {seen:?}"
    );
    assert!(
        seen.contains_key("empty_rewrite"),
        "self-difference must short-circuit: {seen:?}"
    );
    assert!(
        seen.contains_key("precision_satisfied"),
        "a met error bound must stop the run: {seen:?}"
    );
}
