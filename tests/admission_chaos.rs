//! Chaos testing for the multi-tenant query server: under fault
//! storms and overload, every offered job must end in exactly one of
//! three states — **answered by its deadline**, **refused with a
//! structured [`RefusalReason`]**, or **shed with a structured
//! reason** — never a silent deadline blowout. On top of that, a
//! seeded multi-job run must replay **byte-identically** (outcome
//! JSON and trace JSONL both) at any worker count and across
//! repeated runs.
//!
//! 1. **Storm sweeps** — transient/corruption/spike storms at swept
//!    rates; the acceptance invariant holds in every cell.
//! 2. **Refusal taxonomy** — impossible deadlines are `Infeasible`,
//!    load-squeezed jobs are `Overloaded`, mid-batch evictions are
//!    `Shed`, and each reason rides both `JobState` and
//!    `ReportHealth`.
//! 3. **Fault isolation** — a job over a corrupt region degrades
//!    alone; a broken expression fails alone at admission.
//! 4. **Worker identity** — one storm batch at `workers = 4`
//!    against the serial reference.
//! 5. **Property** — arbitrary seeds, storms, and worker counts
//!    replay identically (property test).
//! 6. **One decision log** — over a 400-cell storm grid, every
//!    counter the server reports (stats, tenant rows, the trace's
//!    decision lines, the records the job reports imply) is the same
//!    fold of the same log, and the log accounts for every job.

use std::time::Duration;

use testkit::prelude::*;

use eram_core::{
    Concurrency, Database, DecisionAction, DecisionRecord, JobReport, JobState, QueryServer,
    RefusalReason, ServerJob, ServerOutcome, ServerStats, TenantLedger, TraceRecord, Tracer,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Schema, Tuple, Value};

fn build_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
    )
    .unwrap();
    db
}

fn sel(k: i64) -> Expr {
    Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, k))
}

/// A mixed-deadline, mixed-value batch that exercises admission,
/// execution, and (under storms) shedding.
fn storm_batch() -> Vec<ServerJob> {
    vec![
        ServerJob::count("fast", sel(3), Duration::from_secs(4)),
        ServerJob::count("mid", sel(5), Duration::from_secs(10)).with_value(2.0),
        ServerJob::count("slow", sel(7), Duration::from_secs(18)).with_value(0.5),
        ServerJob::count("tail", sel(9), Duration::from_secs(26))
            .with_desired_quota(Duration::from_secs(4)),
    ]
}

/// The acceptance invariant, checked in every chaos cell.
fn assert_no_silent_blowouts(outcome: &ServerOutcome, cell: &str) {
    for job in &outcome.jobs {
        match &job.state {
            JobState::Done => assert!(
                job.met(),
                "[{cell}] {} finished {:?} past deadline {:?}",
                job.name,
                job.finished_at,
                job.deadline
            ),
            JobState::Refused { reason } => {
                assert_eq!(
                    job.health.refusal,
                    Some(*reason),
                    "[{cell}] {}: reason must ride ReportHealth too",
                    job.name
                );
                // A job denied before it ran burned nothing. The one
                // denial that follows a run is the late-shed guard: the
                // job's answer landed past its deadline and was dropped,
                // and its report keeps the grant and the finish time.
                if job.finished_at <= job.deadline {
                    assert_eq!(job.granted_quota, Duration::ZERO, "[{cell}] {}", job.name);
                    assert_eq!(job.started_at, job.finished_at, "[{cell}] {}", job.name);
                } else {
                    assert_eq!(*reason, RefusalReason::Shed, "[{cell}] {}", job.name);
                }
                assert!(job.estimate.is_none() && job.report.is_none());
            }
            JobState::Failed { error } => {
                assert!(!error.is_empty(), "[{cell}] {}: empty error", job.name)
            }
        }
    }
    let s = &outcome.stats;
    assert_eq!(s.deadlines_missed, 0, "[{cell}] silent deadline blowout");
    assert_eq!(s.offered, outcome.jobs.len() as u64);
}

#[test]
fn storm_sweep_never_misses_an_admitted_deadline() {
    // (label, transient, corrupt, spike rate)
    let sweep = [
        ("clean", 0.0, 0.0, 0.0),
        ("t=5%", 0.05, 0.0, 0.0),
        ("t=15%", 0.15, 0.0, 0.0),
        ("c=5%", 0.0, 0.05, 0.0),
        ("t=10% c=5%", 0.10, 0.05, 0.0),
        ("spikes=50%", 0.0, 0.0, 0.50),
        ("t=10% c=5% spikes=30%", 0.10, 0.05, 0.30),
    ];
    for (i, (label, transient, corrupt, spikes)) in sweep.iter().enumerate() {
        let mut db = build_db(100 + i as u64);
        if *transient > 0.0 || *corrupt > 0.0 || *spikes > 0.0 {
            db.inject_faults(
                FaultPlan::new(31 + i as u64)
                    .with_transient(*transient)
                    .with_corruption(*corrupt)
                    .with_spikes(*spikes, Duration::from_millis(500)),
            );
        }
        let outcome = QueryServer::new().run(&mut db, storm_batch());
        assert_no_silent_blowouts(&outcome, label);
        // The batch is sized so the clean cell admits everything.
        if *transient == 0.0 && *corrupt == 0.0 && *spikes == 0.0 {
            assert_eq!(outcome.stats.admitted, 4, "[{label}]");
            assert_eq!(outcome.stats.deadlines_met, 4, "[{label}]");
        }
    }
}

#[test]
fn refusal_taxonomy_is_structured_and_complete() {
    let mut db = build_db(7);
    let jobs = vec![
        // Cannot fit even alone: 50 ms deadline vs the 100 ms
        // documented minimum.
        ServerJob::count("impossible", sel(5), Duration::from_millis(50)),
        // Fits alone, but the two greedy admitted jobs squeeze it out.
        ServerJob::count("greedy-1", sel(5), Duration::from_secs(6))
            .with_min_quota(Duration::from_secs(3)),
        ServerJob::count("greedy-2", sel(5), Duration::from_secs(7))
            .with_min_quota(Duration::from_secs(3)),
        ServerJob::count("squeezed", sel(5), Duration::from_secs(8))
            .with_min_quota(Duration::from_secs(3)),
    ];
    let outcome = QueryServer::new().run(&mut db, jobs);
    let by_name = |name: &str| outcome.jobs.iter().find(|j| j.name == name).unwrap();
    assert_eq!(
        by_name("impossible").state,
        JobState::Refused {
            reason: RefusalReason::Infeasible
        }
    );
    assert_eq!(
        by_name("squeezed").state,
        JobState::Refused {
            reason: RefusalReason::Overloaded
        }
    );
    // The reasons survive a JSON round trip (the wire format a client
    // would branch on).
    let json = outcome.to_json();
    assert!(json.contains("\"infeasible\""), "{json}");
    assert!(json.contains("\"overloaded\""), "{json}");
    let back: ServerOutcome = json::from_str(&json).unwrap();
    assert_eq!(back, outcome);
    assert_no_silent_blowouts(&outcome, "taxonomy");
}

#[test]
fn spike_storm_sheds_with_structured_reason() {
    let mut db = build_db(23);
    // Every read is spiked by a full second once jobs run: the two
    // half-second-quota jobs overshoot ~2.5x, the refit learns it,
    // and the replan sheds the low-value tail job whose 1.2 s
    // minimum no longer fits its deflated grant.
    db.inject_faults(FaultPlan::new(9).with_spikes(1.0, Duration::from_secs(1)));
    let jobs = vec![
        ServerJob::count("a", sel(5), Duration::from_secs(2))
            .with_desired_quota(Duration::from_millis(500))
            .with_min_quota(Duration::from_millis(100)),
        ServerJob::count("b", sel(5), Duration::from_secs(4))
            .with_desired_quota(Duration::from_millis(500))
            .with_min_quota(Duration::from_millis(100)),
        ServerJob::count("cheap", sel(5), Duration::from_secs_f64(4.4))
            .with_min_quota(Duration::from_millis(1200))
            .with_value(0.1),
    ];
    let outcome = QueryServer::new().run(&mut db, jobs);
    assert_eq!(
        outcome.stats.admitted, 3,
        "the storm is invisible at admission"
    );
    let cheap = outcome.jobs.iter().find(|j| j.name == "cheap").unwrap();
    assert!(
        cheap.state.is_shed(),
        "expected shed, got {:?}",
        cheap.state
    );
    assert_eq!(cheap.health.refusal, Some(RefusalReason::Shed));
    assert_no_silent_blowouts(&outcome, "spike-shed");
}

#[test]
fn corrupt_blocks_degrade_one_tenant_not_the_batch() {
    let mut db = build_db(13);
    db.inject_faults(FaultPlan::new(5).with_corruption(0.06));
    let outcome = QueryServer::new().run(&mut db, storm_batch());
    assert_no_silent_blowouts(&outcome, "corruption");
    for job in &outcome.jobs {
        assert!(job.state.is_done(), "{}: {:?}", job.name, job.state);
        // Degradation is per-job accounting: exactly the jobs that
        // lost blocks are flagged, and none of them lost the batch.
        assert_eq!(
            job.health.degraded,
            job.health.blocks_lost > 0,
            "{}",
            job.name
        );
    }
    let report = outcome
        .jobs
        .iter()
        .map(|j| &j.health)
        .fold((0, 0), |(f, l), h| (f + h.faults_seen, l + h.blocks_lost));
    assert!(report.0 > 0, "the storm must have been observed somewhere");
}

#[test]
fn broken_expression_fails_alone_without_burning_quota() {
    let mut db = build_db(37);
    let mut jobs = storm_batch();
    jobs.push(ServerJob::count(
        "broken",
        Expr::relation("no_such_relation"),
        Duration::from_secs(9),
    ));
    let outcome = QueryServer::new().run(&mut db, jobs);
    let broken = outcome.jobs.iter().find(|j| j.name == "broken").unwrap();
    assert!(matches!(broken.state, JobState::Failed { .. }));
    assert_eq!(broken.granted_quota, Duration::ZERO, "caught at admission");
    assert_eq!(outcome.stats.failed, 1);
    assert_eq!(
        outcome.stats.deadlines_met, 4,
        "the other four still answer"
    );
    assert_no_silent_blowouts(&outcome, "broken-expr");
}

/// Runs one storm batch at the given worker count and returns the
/// replay artifacts (outcome JSON + trace JSONL).
fn run_storm(seed: u64, transient: f64, spikes: f64, workers: usize) -> (String, String) {
    let mut db = build_db(seed);
    if transient > 0.0 || spikes > 0.0 {
        db.inject_faults(
            FaultPlan::new(seed ^ 0xC4A0)
                .with_transient(transient)
                .with_spikes(spikes, Duration::from_millis(400)),
        );
    }
    let tracer = Tracer::recording(db.disk().clock().clone());
    let outcome = QueryServer::new()
        .workers(workers)
        .metrics(true)
        .tracer(tracer.clone())
        .run(&mut db, storm_batch());
    (outcome.to_json(), tracer.to_jsonl())
}

#[test]
fn ci_selected_worker_count_matches_the_serial_reference() {
    let (json_1, trace_1) = run_storm(51, 0.08, 0.2, 1);
    let (json_4, trace_4) = run_storm(51, 0.08, 0.2, 4);
    assert_eq!(json_1, json_4);
    assert_eq!(trace_1, trace_4);
    assert!(!trace_1.is_empty());
}

/// `run_storm` with the SLO ledger and decision audit enabled.
fn run_storm_with_ledger(
    seed: u64,
    transient: f64,
    spikes: f64,
    workers: usize,
) -> (ServerOutcome, String) {
    let mut db = build_db(seed);
    if transient > 0.0 || spikes > 0.0 {
        db.inject_faults(
            FaultPlan::new(seed ^ 0xC4A0)
                .with_transient(transient)
                .with_spikes(spikes, Duration::from_millis(400)),
        );
    }
    let tracer = Tracer::recording(db.disk().clock().clone());
    let outcome = QueryServer::new()
        .workers(workers)
        .metrics(true)
        .ledger(true)
        .tracer(tracer.clone())
        .run(&mut db, storm_batch());
    (outcome, tracer.to_jsonl())
}

/// The forensics acceptance criterion, end to end: the ledger and
/// decision audit are pure observation. Trace JSONL is byte-identical
/// with the ledger on or off, the ledger-stripped outcome JSON is
/// byte-identical to the ledger-off outcome, and the ledger itself
/// replays byte-identically across worker counts — all under the same
/// fault storm the equivalence matrix runs.
#[test]
fn ledger_is_pure_observation_across_worker_counts() {
    let (json_off, trace_off) = run_storm(51, 0.08, 0.2, 1);
    for w in [1usize, 4] {
        let (outcome, trace_on) = run_storm_with_ledger(51, 0.08, 0.2, w);
        assert_eq!(
            trace_on, trace_off,
            "ledger must not touch the trace (workers={w})"
        );
        let ledger = outcome.ledger.as_ref().expect("ledger was requested");
        assert!(!ledger.decisions.is_empty(), "the audit narrates the batch");
        let with_json = outcome.to_json();
        let mut stripped = outcome.clone();
        stripped.ledger = None;
        assert_eq!(
            stripped.to_json(),
            json_off,
            "stripping the ledger restores the exact ledger-off bytes (workers={w})"
        );
        // The ledger-carrying outcome itself is worker-invariant.
        let (again, _) = run_storm_with_ledger(51, 0.08, 0.2, 1);
        assert_eq!(again.to_json(), with_json, "workers={w} vs 1");
    }
}

/// `run_storm_with_ledger` under an explicit concurrency mode.
fn run_storm_mode(
    seed: u64,
    transient: f64,
    spikes: f64,
    workers: usize,
    mode: Concurrency,
) -> (ServerOutcome, String) {
    let mut db = build_db(seed);
    if transient > 0.0 || spikes > 0.0 {
        db.inject_faults(
            FaultPlan::new(seed ^ 0xC4A0)
                .with_transient(transient)
                .with_spikes(spikes, Duration::from_millis(400)),
        );
    }
    let tracer = Tracer::recording(db.disk().clock().clone());
    let outcome = QueryServer::new()
        .workers(workers)
        .metrics(true)
        .ledger(true)
        .concurrency(mode)
        .tracer(tracer.clone())
        .run(&mut db, storm_batch());
    (outcome, tracer.to_jsonl())
}

/// The five device weathers of the decision-log sweep: (transient
/// rate, spike rate), calm to the storm that sheds and deflates.
const WEATHERS: [(f64, f64); 5] = [
    (0.0, 0.0),
    (0.05, 0.1),
    (0.08, 0.2),
    (0.1, 0.3),
    (0.15, 0.4),
];

/// A tenant table with the mode-variant sharing credits — the one
/// pair of columns that is not a fold of the decision log — zeroed.
fn sans_sharing(ledger: &TenantLedger) -> Vec<(String, eram_core::TenantSlo)> {
    let mut rows: Vec<_> = ledger.tenants.clone().into_iter().collect();
    for (_, slo) in &mut rows {
        slo.blocks_shared = 0;
        slo.charge_saved_ns = 0;
    }
    rows
}

/// One decision log, checked by search: 40 seeds × 5 weathers ×
/// {sequential, interleaved}, workers alternating 1 and 4 — and from
/// the artifacts of each cell alone (outcome JSON, trace JSONL):
///
/// * `ServerStats` is the column sum of the tenant rows, and the rows
///   are the fold of the trace's `server.decision` lines *and* of the
///   records the bare job reports imply (so a postmortem prints the
///   same table whether or not the ledger rode the outcome);
/// * every offered job has exactly one admission verdict and exactly
///   one terminal record, `offered = admitted + refused +
///   failed-at-admission`, `admitted = completed + shed +
///   failed-mid-run`, and no `done` record missed its deadline;
/// * a tenant's `granted_ns` is Σ `granted_quota` of its jobs,
///   deflations included.
#[test]
fn decision_log_is_the_single_source_of_every_counter() {
    let (mut deflations, mut late_sheds) = (0, 0);
    for seed in 0..40u64 {
        for (w, &(transient, spikes)) in WEATHERS.iter().enumerate() {
            for mode in [Concurrency::Sequential, Concurrency::Interleaved] {
                let workers = if (seed as usize + w) % 2 == 0 { 1 } else { 4 };
                let cell = format!("seed={seed} weather={w} {mode:?} workers={workers}");
                let (outcome, trace) = run_storm_mode(seed, transient, spikes, workers, mode);
                let outcome: ServerOutcome = json::from_str(&outcome.to_json()).unwrap();
                let ledger = outcome.ledger.as_ref().expect("ledger was requested");
                let names = || outcome.jobs.iter().map(|j| j.name.as_str());
                assert_no_silent_blowouts(&outcome, &cell);

                // Stats are the column sums of the rows.
                let sum = |f: fn(&eram_core::TenantSlo) -> u64| {
                    ledger.tenants.values().map(f).sum::<u64>()
                };
                let columns = ServerStats {
                    offered: sum(|t| t.offered),
                    admitted: sum(|t| t.admitted),
                    refused: sum(|t| t.refused),
                    shed: sum(|t| t.shed),
                    failed: sum(|t| t.failed),
                    completed: sum(|t| t.completed),
                    deadlines_met: sum(|t| t.deadlines_met),
                    deadlines_missed: sum(|t| t.deadlines_missed),
                    watchdog_overruns: sum(|t| t.watchdog_overruns),
                };
                assert_eq!(outcome.stats, columns, "[{cell}]");

                // The rows are the fold of the trace's decision lines...
                let traced: Vec<DecisionRecord> = trace
                    .lines()
                    .skip(1)
                    .map(|line| json::from_str::<TraceRecord>(line).unwrap())
                    .filter(|r| r.name == "server.decision")
                    .map(|r| DecisionRecord::from_trace_fields(r.t_ns, &r.fields).unwrap())
                    .collect();
                // (The same records, stamps aside: a replayed decision's
                // event carries the shared clock's reading, its record
                // the virtual timeline's.)
                let unstamped = |log: &[DecisionRecord]| -> Vec<DecisionRecord> {
                    let unstamp = |d: &DecisionRecord| DecisionRecord {
                        t_ns: 0,
                        ..d.clone()
                    };
                    log.iter().map(unstamp).collect()
                };
                assert_eq!(unstamped(&traced), unstamped(&ledger.decisions), "[{cell}]");
                let from_trace = TenantLedger::fold(names(), traced);
                assert_eq!(sans_sharing(&from_trace), sans_sharing(ledger), "[{cell}]");
                // ...and of what the bare job reports imply.
                let implied = outcome.jobs.iter().flat_map(JobReport::implied_decisions);
                let from_reports = TenantLedger::fold(names(), implied.collect());
                assert_eq!(
                    sans_sharing(&from_reports),
                    sans_sharing(ledger),
                    "[{cell}]"
                );

                // The log accounts for every job, once.
                let log = &ledger.decisions;
                let count = |pred: &dyn Fn(&DecisionRecord) -> bool| {
                    log.iter().filter(|d| pred(d)).count() as u64
                };
                for name in names() {
                    let verdicts = count(&|d| d.job == name && d.is_admission_verdict());
                    let terminals = count(&|d| {
                        d.job == name
                            && [
                                DecisionAction::Refuse,
                                DecisionAction::Fail,
                                DecisionAction::Shed,
                                DecisionAction::Done,
                            ]
                            .contains(&d.action)
                    });
                    assert_eq!((verdicts, terminals), (1, 1), "[{cell}] {name}");
                }
                let s = &outcome.stats;
                let failed_at_admission =
                    count(&|d| d.action == DecisionAction::Fail && d.is_admission_verdict());
                assert_eq!(s.offered, s.admitted + s.refused + failed_at_admission);
                assert_eq!(
                    s.admitted,
                    s.completed + s.shed + (s.failed - failed_at_admission),
                    "[{cell}]"
                );
                assert_eq!(count(&|d| d.met == Some(false)), 0, "[{cell}]");

                // What the ledger says was granted is what the jobs ran under.
                for (name, slo) in &ledger.tenants {
                    let granted: u128 = outcome
                        .jobs
                        .iter()
                        .filter(|j| &j.name == name)
                        .map(|j| j.granted_quota.as_nanos())
                        .sum();
                    assert_eq!(u128::from(slo.granted_ns), granted, "[{cell}] {name}");
                }
                deflations += count(&|d| d.action == DecisionAction::Deflate);
                late_sheds += count(&|d| d.late_ns.is_some());
            }
        }
    }
    // The sweep reaches the cases the fold exists for.
    assert!(
        deflations > 0 && late_sheds > 0,
        "{deflations} {late_sheds}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The concurrency acceptance criterion: per-job reports, the
    /// ledger, the metrics, and every trace byte are identical across
    /// `--concurrency seq|interleaved` at any worker count — only the
    /// schedule report and the per-tenant sharing counters it feeds
    /// may differ between modes, and those differ *deterministically*
    /// (byte-identical across worker counts and repeats within a
    /// mode).
    #[test]
    fn any_storm_batch_is_concurrency_mode_invariant(
        seed in any::<u64>(),
        transient in 0.0f64..0.15,
        spikes in 0.0f64..0.4,
        workers in 2usize..=8,
    ) {
        let (seq, seq_trace) = run_storm_mode(seed, transient, spikes, 1, Concurrency::Sequential);
        let (inter, inter_trace) =
            run_storm_mode(seed, transient, spikes, 1, Concurrency::Interleaved);
        prop_assert_eq!(&seq_trace, &inter_trace, "trace bytes must be mode-invariant");
        prop_assert_eq!(
            seq.stripped_of_schedule().to_json(),
            inter.stripped_of_schedule().to_json(),
            "stripped outcomes must be mode-invariant"
        );
        // Within each mode the full outcome (schedule and sharing
        // counters included) replays across worker counts.
        let (seq_w, seq_w_trace) =
            run_storm_mode(seed, transient, spikes, workers, Concurrency::Sequential);
        prop_assert_eq!(&seq_trace, &seq_w_trace, "workers={}", workers);
        prop_assert_eq!(seq.to_json(), seq_w.to_json(), "workers={}", workers);
        let (inter_w, inter_w_trace) =
            run_storm_mode(seed, transient, spikes, workers, Concurrency::Interleaved);
        prop_assert_eq!(&inter_trace, &inter_w_trace, "workers={}", workers);
        prop_assert_eq!(inter.to_json(), inter_w.to_json(), "workers={}", workers);
        // The schedule is always reported; the oracle never pools.
        let s = seq.schedule.as_ref().expect("schedule rides every outcome");
        prop_assert_eq!(s.blocks_shared, 0);
        prop_assert_eq!(s.concurrency, Concurrency::Sequential);
        let i = inter.schedule.as_ref().expect("schedule rides every outcome");
        prop_assert_eq!(i.concurrency, Concurrency::Interleaved);
        prop_assert_eq!(s.virtual_makespan, i.virtual_makespan);
        // And both modes uphold the serving contract.
        assert_no_silent_blowouts(&seq, "mode=seq");
        assert_no_silent_blowouts(&inter, "mode=interleaved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded storm batch replays byte-identically: across worker
    /// counts and across repeated runs.
    #[test]
    fn any_storm_batch_replays_byte_identically(
        seed in any::<u64>(),
        transient in 0.0f64..0.15,
        spikes in 0.0f64..0.4,
        workers in 2usize..=8,
    ) {
        let (json_1, trace_1) = run_storm(seed, transient, spikes, 1);
        let (json_w, trace_w) = run_storm(seed, transient, spikes, workers);
        prop_assert_eq!(&json_1, &json_w, "workers={}", workers);
        prop_assert_eq!(&trace_1, &trace_w, "workers={}", workers);
        // Repetition at the same worker count is also identical.
        let (json_r, trace_r) = run_storm(seed, transient, spikes, 1);
        prop_assert_eq!(&json_1, &json_r);
        prop_assert_eq!(&trace_1, &trace_r);
        // And the invariant holds for whatever the storm produced.
        let outcome: ServerOutcome = json::from_str(&json_1).unwrap();
        assert_no_silent_blowouts(&outcome, "property");
    }
}
