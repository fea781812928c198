//! Multiuser real-time scheduling — the paper's second motivation:
//! "By precisely fixing the execution times of database queries in a
//! transaction, accurate estimates for transaction execution times
//! become possible. This in turn plays an important role in
//! minimizing the number of transactions that miss their deadlines
//! [AbMo 88]."
//!
//! ```sh
//! cargo run --release --example rt_scheduler
//! ```
//!
//! A queue of aggregate queries, each with its own absolute deadline,
//! runs under two policies on the same simulated device:
//!
//! * **exact-first**: each query is evaluated exactly (a full scan) —
//!   execution time is whatever it is, and queue delay cascades into
//!   missed deadlines;
//! * **quota-EDF**: earliest-deadline-first through the library's
//!   [`QueryServer`], with each query's time quota *fixed in advance*
//!   to fit its slack — every transaction meets its deadline and pays
//!   for it only in estimate precision.

use std::time::Duration;

use eram_core::{Database, JobState, QueryServer, ServerJob};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, Schema, Tuple, Value};

/// The queue, in deadline order.
fn jobs() -> Vec<ServerJob> {
    let sel = |k: i64| Expr::relation("events").select(Predicate::col_cmp(1, CmpOp::Lt, k));
    vec![
        ServerJob::count("dash-alpha", sel(2_000), Duration::from_secs(8)),
        ServerJob::count("dash-beta", sel(5_000), Duration::from_secs(16)),
        ServerJob::count(
            "audit-gamma",
            Expr::relation("events").intersect(Expr::relation("mirror")),
            Duration::from_secs(26),
        ),
        ServerJob::count("dash-delta", sel(500), Duration::from_secs(34)),
    ]
}

fn fresh_db() -> Database {
    let mut db = Database::sim_default(7);
    let schema = Schema::new(vec![
        ("id", ColumnType::Int),
        ("metric", ColumnType::Int),
        ("pad", ColumnType::Int),
    ])
    .padded_to(200);
    // All columns are functions of the row id, so the two relations
    // genuinely overlap on whole tuples (7 500 in common).
    let rows = |salt: i64| {
        (0..10_000).map(move |i| {
            let id = i + salt;
            Tuple::new(vec![
                Value::Int(id),
                Value::Int((id * 7919) % 10_000),
                Value::Int(id),
            ])
        })
    };
    db.load_relation("events", schema.clone(), rows(0)).unwrap();
    db.load_relation("mirror", schema, rows(2_500)).unwrap();
    db
}

/// One job's line: when it finished against its deadline, and what it
/// answered (`None` when admission refused it). Returns whether the
/// deadline was met.
fn print_row(
    job: &ServerJob,
    finished_at: Duration,
    answer: Option<(f64, usize)>,
    truth: f64,
) -> bool {
    let met = answer.is_some() && finished_at <= job.deadline;
    let (estimate, note) = match answer {
        Some((e, stages)) => {
            let rel = if truth > 0.0 {
                format!("rel.err {:.1}%", 100.0 * (e - truth).abs() / truth)
            } else {
                "truth 0".into()
            };
            (e, format!("{stages} stages, {rel}"))
        }
        None => (f64::NAN, "refused at admission".into()),
    };
    println!(
        "  {:<12} deadline {:>5.1}s  finished {:>6.1}s  {}  answer ≈ {:>6.0} ({note})",
        job.name,
        job.deadline.as_secs_f64(),
        finished_at.as_secs_f64(),
        if met { "MET   " } else { "MISSED" },
        estimate,
    );
    met
}

fn run_policy(quota_edf: bool) -> (usize, usize) {
    let mut db = fresh_db();
    println!(
        "--- policy: {} ---",
        if quota_edf {
            "quota-EDF (this paper)"
        } else {
            "exact-first"
        }
    );

    let queue = jobs();
    let truths: Vec<f64> = queue
        .iter()
        .map(|j| db.exact_count(&j.expr).unwrap() as f64)
        .collect();

    let mut met = 0;
    if quota_edf {
        // The library's admission-controlled EDF server: every quota
        // is fixed up front to fit the job's slack.
        let outcome = QueryServer::new().run(&mut db, queue.clone());
        for ((job, report), truth) in queue.iter().zip(&outcome.jobs).zip(&truths) {
            let answer = match (&report.state, &report.estimate, &report.report) {
                (JobState::Done, Some(e), Some(r)) => Some((e.estimate, r.completed_stages())),
                _ => None,
            };
            met += usize::from(print_row(job, report.finished_at, answer, *truth));
        }
    } else {
        // Exact evaluation: an effectively unbounded quota, so each
        // query runs to a census and queue delay cascades.
        let clock = db.disk().clock().clone();
        let start = clock.elapsed();
        for (job, truth) in queue.iter().zip(&truths) {
            let out = db
                .aggregate(job.agg, job.expr.clone())
                .within(Duration::from_secs(1_000_000))
                .run()
                .unwrap();
            let answer = Some((out.estimate.estimate, out.report.completed_stages()));
            met += usize::from(print_row(job, clock.elapsed() - start, answer, *truth));
        }
    }
    println!();
    (met, truths.len())
}

fn main() {
    let (exact_met, total) = run_policy(false);
    let (edf_met, _) = run_policy(true);
    println!("deadlines met: exact-first {exact_met}/{total}, quota-EDF {edf_met}/{total}");
    assert!(edf_met >= exact_met);
}
