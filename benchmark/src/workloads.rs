//! The seven workloads and one round of one of them.
//!
//! Closed loop, one client, one thread, `workers = 1`: the next query
//! (or batch) is issued when the previous one returns. A round is a
//! fixed count of operations with fixed seeds, so on a simulated
//! clock every count repeats exactly from round to round and only
//! the host's timing varies.

use std::time::{Duration, Instant};

use crate::api::{ClockKind, Db, Query, QueryOut, Tenant, What};
use crate::gen::{self, Keys, Row};
use crate::json::{obj, Json};
use crate::stats::{mean, median, Fnv};

/// Tuples per base relation (40 000 blocks) and distinct join keys.
pub const N: usize = 200_000;
pub const K: usize = 20_000;
/// Tuples of the relation the served tenants share (4 000 blocks).
pub const SERVE_N: usize = 20_000;
pub const TENANTS: usize = 8;

/// Streams of [`gen::derive`].
pub const STREAM_REL: u64 = 1;
pub const STREAM_QUERY: u64 = 2;
pub const STREAM_DB: u64 = 3;
pub const STREAM_FAULT: u64 = 4;

/// Share of a round's operations left out of the timing statistics.
pub const WARMUP_SHARE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select { columnar: bool },
    Join,
    TightQuota,
    Serve { interleaved: bool },
    WallDeadline,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Operations per round: queries, or batches of [`TENANTS`] jobs.
    pub ops: usize,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "select_row",
        why: "base read path: read_block, row decode, Predicate::eval, estimator; 1600 blocks per 50 ms simulated quota",
        kind: Kind::Select { columnar: false },
        ops: 200,
    },
    Workload {
        name: "select_columnar",
        why: "same data, queries and seeds through the columnar layout: columnar decode, eval_mask, gather",
        kind: Kind::Select { columnar: true },
        ops: 200,
    },
    Workload {
        name: "join_merge",
        why: "writes beside reads: temp-run writes, sort_run, merge_keyed, run re-reads; the only workload whose heap ages",
        kind: Kind::Join,
        ops: 200,
    },
    Workload {
        name: "tight_quota",
        why: "1 ms quota under the paper's soft-deadline protocol: per-query fixed cost is everything, block-path gains should not move it",
        kind: Kind::TightQuota,
        ops: 2500,
    },
    Workload {
        name: "serve_sequential",
        why: "admission, grants and EDF replay over 8 tenants with the default sequential lanes",
        kind: Kind::Serve { interleaved: false },
        ops: 100,
    },
    Workload {
        name: "serve_interleaved",
        why: "the same batches through interleaved lanes, the stage turnstile and the shared-draw broker",
        kind: Kind::Serve { interleaved: true },
        ops: 100,
    },
    Workload {
        name: "wall_deadline",
        why: "a 10 ms hard deadline on a real clock: every per-block saving becomes sampled blocks and precision",
        kind: Kind::WallDeadline,
        ops: 150,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn clock(&self) -> ClockKind {
        match self.kind {
            Kind::WallDeadline => ClockKind::Wall,
            _ => ClockKind::Sim,
        }
    }

    /// On a simulated clock every count of a round repeats exactly.
    pub fn exact(&self) -> bool {
        self.clock() == ClockKind::Sim
    }

    /// Jobs in one operation: a query, or a batch of tenants.
    pub fn jobs_per_op(&self) -> usize {
        match self.kind {
            Kind::Serve { .. } => TENANTS,
            _ => 1,
        }
    }

    /// A hard deadline on a simulated clock: no stage may be banked
    /// past the quota.
    pub fn hard_sim(&self) -> bool {
        matches!(
            self.kind,
            Kind::Select { .. } | Kind::Join | Kind::Serve { .. }
        )
    }

    /// Generates and loads this workload's relations.
    pub fn setup(&self, seed: u64) -> Db {
        let mut db = Db::new(self.clock(), gen::derive(seed, STREAM_DB, 0));
        match self.kind {
            Kind::Join => {
                db.load("r1", &base_relation(seed, 1, Keys::Scattered));
                db.load("r2", &base_relation(seed, 2, Keys::Scattered));
            }
            Kind::Serve { .. } => db.load(
                "r",
                &gen::relation(SERVE_N, SERVE_N / 10, Keys::Scattered, rel_seed(seed, 3)),
            ),
            _ => db.load("r", &base_relation(seed, 0, Keys::Scattered)),
        }
        db
    }

    /// Operation `i` of a round.
    pub fn op(&self, db: &mut Db, seed: u64, i: u64) -> OpRecord {
        let qseed = gen::derive(seed, STREAM_QUERY, i);
        match self.kind {
            Kind::Select { columnar } => {
                let mut q = select_query(Duration::from_millis(50), qseed);
                q.columnar = columnar;
                query_op(db, &q, (N / 2) as f64)
            }
            Kind::Join => {
                let q = Query::new(What::Join, Duration::from_millis(50), qseed);
                query_op(db, &q, gen::join_truth(N, K))
            }
            Kind::TightQuota => {
                let mut q = select_query(Duration::from_millis(1), qseed);
                q.paper_protocol = true;
                query_op(db, &q, (N / 2) as f64)
            }
            Kind::WallDeadline => {
                let q = select_query(Duration::from_millis(10), qseed);
                query_op(db, &q, (N / 2) as f64)
            }
            Kind::Serve { interleaved } => serve_op(db, interleaved),
        }
    }
}

pub fn rel_seed(seed: u64, which: u64) -> u64 {
    gen::derive(seed, STREAM_REL, which)
}

pub fn base_relation(seed: u64, which: u64, keys: Keys) -> Vec<Row> {
    gen::relation(N, K, keys, rel_seed(seed, which))
}

/// `COUNT(σ_{sel < N/2}(r))`.
pub fn select_query(quota: Duration, seed: u64) -> Query {
    Query::new(
        What::Select {
            rel: "r",
            below: (N / 2) as i64,
        },
        quota,
        seed,
    )
}

/// Tenant `i` counts `σ_{sel < 2000 + 1000·i}` against a deadline of
/// `15·(i+1)` ms; all eight fit and are met.
pub fn tenants() -> Vec<Tenant> {
    (0..TENANTS as u64)
        .map(|i| Tenant {
            rel: "r",
            below: 2000 + 1000 * i as i64,
            deadline: Duration::from_millis(15 * (i + 1)),
            desired_quota: Duration::from_millis(10),
            min_quota: Duration::from_millis(1),
        })
        .collect()
}

/// One offered job: its constructed truth and what came back.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    pub truth: f64,
    pub out: Option<QueryOut>,
    /// Answered by its deadline with at least one stage banked.
    pub met: bool,
}

/// One operation of the closed loop.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub wall_ns: u64,
    /// Time the operation took on the database's own clock: simulated
    /// makespan, or real elapsed time on the wall-clock database.
    pub clock_ns: u64,
    pub phys_reads: u64,
    pub jobs: Vec<JobRecord>,
    /// Correctness checks this operation failed.
    pub violations: Vec<String>,
}

fn query_op(db: &mut Db, q: &Query, truth: f64) -> OpRecord {
    let reads_before = db.block_reads();
    let t = Instant::now();
    let res = db.run(q);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let mut violations = Vec::new();
    let out = match res {
        Ok(out) => Some(out),
        Err(e) => {
            violations.push(format!("engine error: {e}"));
            None
        }
    };
    OpRecord {
        wall_ns,
        clock_ns: out.map_or(0, |o| o.elapsed_ns),
        phys_reads: db.block_reads() - reads_before,
        jobs: vec![JobRecord {
            truth,
            out,
            met: out.is_some_and(|o| o.stages_banked >= 1),
        }],
        violations,
    }
}

fn serve_op(db: &mut Db, interleaved: bool) -> OpRecord {
    let offered = tenants();
    let t = Instant::now();
    let batch = db.serve(interleaved, &offered);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let mut violations = Vec::new();
    if batch.offered != TENANTS as u64 || batch.jobs.len() != TENANTS {
        violations.push(format!("offered {} jobs, not {TENANTS}", batch.offered));
    }
    if batch.deadlines_missed != 0 {
        violations.push(format!("{} deadlines missed", batch.deadlines_missed));
    }
    if batch.charged_blocks != batch.physical_blocks + batch.blocks_shared {
        violations.push(format!(
            "charged {} != physical {} + shared {}",
            batch.charged_blocks, batch.physical_blocks, batch.blocks_shared
        ));
    }
    OpRecord {
        wall_ns,
        clock_ns: batch.makespan_ns,
        phys_reads: batch.physical_blocks,
        jobs: batch
            .jobs
            .iter()
            .map(|j| JobRecord {
                truth: j.below as f64,
                out: j.query,
                met: j.met && j.query.is_some_and(|o| o.stages_banked >= 1),
            })
            .collect(),
        violations,
    }
}

/// Grace past the quota before a return counts as late: the server's
/// own watchdog line between overshoot and overrun.
const ON_TIME_GRACE: f64 = 1.25;

/// What one round measured. The per-operation series go to the parent,
/// which takes each operation's quietest round before computing any
/// timing statistic; counts cover every operation.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Host seconds spent inside operations, warm-up included.
    pub timed_wall_s: f64,
    /// Host nanoseconds, blocks banked and jobs answered, per operation.
    pub wall_ns: Vec<u64>,
    pub blocks: Vec<u64>,
    pub answers: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub rel_half_width_p50: f64,
    pub utilization_pct: f64,
    pub on_time_pct: f64,
    pub met_pct: f64,
    pub sim_makespan_ms: f64,
    pub phys_reads_per_block: f64,
    pub covered: u64,
    pub answered: u64,
    pub mean_est_over_truth: f64,
    pub stages_per_query: f64,
    pub blocks_per_query: f64,
    pub risk_pct: f64,
    pub fingerprint: u64,
}

fn pct(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// Folds a round's operations into its metrics. `hard_sim` turns on
/// the check that no stage is banked past a simulated hard deadline.
pub fn summarize(records: &[OpRecord], hard_sim: bool) -> Round {
    let mut r = Round::default();
    let answers = |o: &OpRecord| -> Vec<QueryOut> { o.jobs.iter().filter_map(|j| j.out).collect() };
    r.wall_ns = records.iter().map(|o| o.wall_ns).collect();
    r.blocks = records
        .iter()
        .map(|o| answers(o).iter().map(|q| q.blocks_banked).sum())
        .collect();
    r.answers = records.iter().map(|o| answers(o).len() as u64).collect();
    r.timed_wall_s = r.wall_ns.iter().sum::<u64>() as f64 / 1e9;

    let jobs: Vec<&JobRecord> = records.iter().flat_map(|o| &o.jobs).collect();
    let outs: Vec<QueryOut> = jobs.iter().filter_map(|j| j.out).collect();
    r.attempted = jobs.len() as u64;
    r.answered = outs.len() as u64;
    r.violations = records.iter().flat_map(|o| o.violations.clone()).collect();
    let mut failed = jobs.iter().filter(|j| j.out.is_none()).count();
    let mut fp = Fnv::new();
    let mut ratios = Vec::with_capacity(outs.len());
    for j in &jobs {
        let Some(o) = j.out else { continue };
        fp.word(o.estimate.to_bits());
        fp.word(o.blocks_banked);
        fp.word(o.stages_banked);
        if o.ci_lo <= j.truth && j.truth <= o.ci_hi {
            r.covered += 1;
        }
        ratios.push(o.estimate / j.truth);
        if hard_sim && o.banked_ns > o.quota_ns {
            failed += 1;
            r.violations
                .push("a stage was banked past a hard deadline".into());
        }
    }
    // A failed batch invariant fails the batch's jobs at most once.
    failed += records
        .iter()
        .filter(|o| !o.violations.is_empty() && o.jobs.iter().all(|j| j.out.is_some()))
        .count();
    r.failed = failed as u64;
    r.fingerprint = fp.0;

    let field = |f: fn(&QueryOut) -> f64| -> Vec<f64> { outs.iter().map(f).collect() };
    r.rel_half_width_p50 = median(&field(|o| o.rel_half_width));
    r.utilization_pct = 100.0 * mean(&field(|o| o.utilization));
    let on_time = outs
        .iter()
        .filter(|o| o.elapsed_ns as f64 <= ON_TIME_GRACE * o.quota_ns as f64)
        .count();
    r.on_time_pct = pct(on_time, jobs.len());
    r.met_pct = pct(jobs.iter().filter(|j| j.met).count(), jobs.len());
    r.sim_makespan_ms = median(
        &records
            .iter()
            .map(|o| o.clock_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    r.phys_reads_per_block = records.iter().map(|o| o.phys_reads).sum::<u64>() as f64
        / r.blocks.iter().sum::<u64>().max(1) as f64;
    r.mean_est_over_truth = mean(&ratios);
    r.stages_per_query = mean(&field(|o| o.stages_banked as f64));
    r.blocks_per_query = mean(&field(|o| o.blocks_banked as f64));
    r.risk_pct = pct(outs.iter().filter(|o| o.overspent).count(), outs.len());
    r
}

/// `VmHWM` and `VmRSS` of this process in MB (0 where `/proc` has
/// neither).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// One round: set up, run `ops` operations, summarize.
pub fn run_round(w: &Workload, seed: u64, ops: usize, round: u64) -> Round {
    let t = Instant::now();
    let mut db = w.setup(seed);
    let setup_s = t.elapsed().as_secs_f64();
    // Exact workloads repeat the same seeds every round. On the real
    // clock nothing repeats anyway, so each round draws fresh seeds
    // and the rounds pool into one coverage sample.
    let first = if w.exact() { 0 } else { round * ops as u64 };
    let records: Vec<OpRecord> = (0..ops as u64)
        .map(|i| w.op(&mut db, seed, first + i))
        .collect();
    let mut r = summarize(&records, w.hard_sim());
    r.setup_s = setup_s;
    r.peak_rss_mb = rss_mb().0;
    r
}

impl Round {
    pub fn to_json(&self) -> Json {
        let series = |v: &[u64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
        obj(vec![
            ("setup_s", self.setup_s.into()),
            ("peak_rss_mb", self.peak_rss_mb.into()),
            ("timed_wall_s", self.timed_wall_s.into()),
            ("wall_ns", series(&self.wall_ns)),
            ("blocks", series(&self.blocks)),
            ("answers", series(&self.answers)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect()),
            ),
            ("rel_half_width_p50", self.rel_half_width_p50.into()),
            ("utilization_pct", self.utilization_pct.into()),
            ("on_time_pct", self.on_time_pct.into()),
            ("met_pct", self.met_pct.into()),
            ("sim_makespan_ms", self.sim_makespan_ms.into()),
            ("phys_reads_per_block", self.phys_reads_per_block.into()),
            ("covered", self.covered.into()),
            ("answered", self.answered.into()),
            ("fingerprint", format!("{:016x}", self.fingerprint).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(estimate: f64, half: f64, elapsed_ns: u64, stages_banked: u64) -> QueryOut {
        QueryOut {
            estimate,
            ci_lo: estimate - half,
            ci_hi: estimate + half,
            rel_half_width: half / estimate,
            blocks_banked: 100,
            stages_banked,
            blocks_drawn: 120,
            stages_run: stages_banked + 1,
            utilization: 0.5,
            overspent: true,
            quota_ns: 1_000,
            elapsed_ns,
            banked_ns: 500,
            ..QueryOut::default()
        }
    }

    fn op(wall_ns: u64, out: Option<QueryOut>) -> OpRecord {
        OpRecord {
            wall_ns,
            clock_ns: 2_000_000,
            phys_reads: 120,
            jobs: vec![JobRecord {
                truth: 1000.0,
                out,
                met: out.is_some_and(|o| o.stages_banked >= 1),
            }],
            violations: Vec::new(),
        }
    }

    #[test]
    fn summarize_counts_every_operation() {
        // Twenty operations: the first is slow; one misses the truth,
        // one is late, one banks nothing, one fails outright.
        let mut records = vec![op(9_000_000, Some(answer(1000.0, 50.0, 900, 3)))];
        records.extend((0..15).map(|_| op(1_000_000, Some(answer(1010.0, 50.0, 900, 3)))));
        records.push(op(1_000_000, Some(answer(1100.0, 50.0, 900, 3))));
        records.push(op(1_000_000, Some(answer(1000.0, 50.0, 1_300, 3))));
        records.push(op(1_000_000, Some(answer(1000.0, 50.0, 900, 0))));
        records.push(op(1_000_000, None));
        let r = summarize(&records, true);
        assert_eq!((r.attempted, r.answered, r.failed), (20, 19, 1));
        assert_eq!(r.wall_ns.len(), 20);
        assert_eq!((r.wall_ns[0], r.wall_ns[1]), (9_000_000, 1_000_000));
        assert_eq!(r.blocks.iter().sum::<u64>(), 1900);
        assert_eq!((r.answers[0], r.answers[19]), (1, 0));
        assert!((r.timed_wall_s - 0.028).abs() < 1e-12);
        assert_eq!(r.covered, 18);
        assert_eq!(r.on_time_pct, 90.0);
        assert_eq!(r.met_pct, 90.0);
        assert_eq!(r.utilization_pct, 50.0);
        assert_eq!(r.sim_makespan_ms, 2.0);
        assert!((r.phys_reads_per_block - 20.0 * 120.0 / 1900.0).abs() < 1e-12);
        assert_eq!(r.risk_pct, 100.0);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn a_stage_banked_past_a_hard_deadline_fails_the_job() {
        let mut late = answer(1000.0, 50.0, 900, 3);
        late.banked_ns = 1_001;
        let r = summarize(&[op(1_000_000, Some(late))], true);
        assert_eq!(r.failed, 1);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(summarize(&[op(1_000_000, Some(late))], false).failed, 0);
    }

    #[test]
    fn fingerprint_sees_estimates_blocks_and_stages() {
        let base = summarize(&[op(1, Some(answer(1000.0, 50.0, 900, 3)))], true).fingerprint;
        let same = summarize(&[op(2, Some(answer(1000.0, 60.0, 800, 3)))], true).fingerprint;
        let other = summarize(&[op(1, Some(answer(1000.5, 50.0, 900, 3)))], true).fingerprint;
        assert_eq!(base, same);
        assert_ne!(base, other);
    }

    #[test]
    fn workload_names_are_unique_and_tenants_fit() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        let t = tenants();
        assert_eq!(t.len(), TENANTS);
        assert!(t.iter().all(|t| (t.below as usize) < SERVE_N));
    }
}
