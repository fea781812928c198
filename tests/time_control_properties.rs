//! Property tests on the time-control loop's invariants.

use std::sync::Arc;
use std::time::Duration;

use testkit::prelude::*;

use eram_bench::{harness::run_trial, TrialConfig, WorkloadKind};
use eram_core::ops::{PhysTree, StageEnv};
use eram_core::{
    AggregateFn, CostCoeff, Database, EngineConfig, ExecutionReport, OneAtATimeInterval, Phase,
    PreparedQuery, Profiler, StageRun, StoppingCriterion,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{Clock, ColumnType, Disk, Rng, Schema, Tuple, Value};

fn tiny_db(seed: u64, rows: i64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..rows).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)])),
    )
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the quota, seed, and d_β: utilization ∈ [0,1], the
    /// hard-deadline overspend is at most block-granularity, blocks
    /// and stages are consistent, and the estimate is within the
    /// point space.
    #[test]
    fn report_invariants_hold(
        quota_ms in 50u64..8_000,
        seed in 0u64..500,
        d_beta in prop::sample::select(vec![0.0, 12.0, 48.0]),
        rows in 500i64..6_000,
    ) {
        let mut db = tiny_db(seed, rows);
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 3));
        let out = db
            .count(expr)
            .within(Duration::from_millis(quota_ms))
            .strategy(OneAtATimeInterval::new(d_beta))
            .stopping(StoppingCriterion::HardDeadline)
            .seed(seed)
            .run()
            .unwrap();
        let r = &out.report;
        prop_assert!(r.utilization() >= 0.0 && r.utilization() <= 1.0);
        prop_assert!(r.wasted() <= r.quota);
        // Hard deadline: abort happens at block granularity, which is
        // ≤ ~120 ms of simulated time on this device.
        prop_assert!(r.overspend() <= Duration::from_millis(250),
            "overspend {:?}", r.overspend());
        prop_assert_eq!(r.completed_stages(),
            r.stages.iter().filter(|s| s.within_quota).count());
        let blocks: u64 = r.stages.iter().filter(|s| s.within_quota)
            .map(|s| s.blocks_drawn).sum();
        prop_assert_eq!(blocks, r.blocks_evaluated());
        prop_assert!(out.estimate.estimate >= 0.0);
        prop_assert!(out.estimate.estimate <= out.estimate.total_points.max(1.0));
        prop_assert!(out.estimate.variance >= 0.0);
        // Stage numbering is 1..=k in order.
        for (i, s) in r.stages.iter().enumerate() {
            prop_assert_eq!(s.stage, i + 1);
        }
    }

    /// The quota is monotone in information: a strictly larger quota
    /// (same seed) never samples fewer points.
    #[test]
    fn more_quota_never_means_fewer_points(
        seed in 0u64..200,
        base_ms in 300u64..2_000,
    ) {
        let run = |ms: u64| {
            let mut db = tiny_db(seed, 4_000);
            let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 3));
            db.count(expr)
                .within(Duration::from_millis(ms))
                .seed(seed)
                .run()
                .unwrap()
                .estimate
                .points_sampled
        };
        // 4× the quota with the same sampling seed: the block
        // permutation is identical, so coverage can only grow.
        prop_assert!(run(4 * base_ms) >= run(base_ms));
    }

    /// Trials never panic across the paper workload grid, and the
    /// harness columns stay in range.
    #[test]
    fn harness_columns_in_range(
        seed in 0u64..100,
        d_beta in prop::sample::select(vec![0.0, 24.0, 72.0]),
        out_tuples in prop::sample::select(vec![0u64, 2_500, 5_000, 10_000]),
    ) {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select { output_tuples: out_tuples },
            Duration::from_secs(4),
            d_beta,
        );
        let t = run_trial(&cfg, seed);
        prop_assert!(t.utilization >= 0.0 && t.utilization <= 1.0);
        prop_assert!(t.stages <= 100);
        prop_assert!(t.ovsp_secs >= 0.0);
        prop_assert!(t.overspent == (t.ovsp_secs > 0.0));
    }
}

/// Aggregate risk ordering: large d_β must not overspend more often
/// than d_β = 0 (checked over a seed ensemble, not per-run).
#[test]
fn risk_decreases_with_d_beta_in_aggregate() {
    let risk = |d_beta: f64| {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(6),
            d_beta,
        );
        let mut overspent = 0;
        for seed in 0..40u64 {
            if run_trial(&cfg, seed).overspent {
                overspent += 1;
            }
        }
        overspent
    };
    let low = risk(0.0);
    let high = risk(72.0);
    assert!(
        high <= low,
        "risk must not increase with d_beta: {high} vs {low} / 40 runs"
    );
    assert!(low >= 5, "d_beta = 0 should carry real risk, saw {low}/40");
}

// ---------------------------------------------------------------
// The hard deadline on a measured clock
// ---------------------------------------------------------------

/// A clock that is a script of the disk view it times: every charged
/// block read costs `unit`, except that reads after the first
/// `probe_reads` cost `slowdown ×` that — the shape a real host
/// shows, where the coefficients fitted on a small first stage
/// under-predict the large stages planned from them. Charges are
/// ignored, so whether the engine takes the clock for simulated or
/// measured is the `simulated` flag alone.
struct ScriptedClock {
    view: std::sync::OnceLock<std::sync::Weak<Disk>>,
    unit: Duration,
    probe_reads: u64,
    slowdown: f64,
    simulated: bool,
}

impl Clock for ScriptedClock {
    fn elapsed(&self) -> Duration {
        let view = self.view.get().and_then(std::sync::Weak::upgrade);
        let reads = view.map_or(0, |v| v.stats().block_reads);
        let slow = reads.saturating_sub(self.probe_reads);
        self.unit
            .mul_f64((reads - slow) as f64 + self.slowdown * slow as f64)
    }

    fn charge(&self, _d: Duration) {}

    fn is_simulated(&self) -> bool {
        self.simulated
    }
}

/// About what a block costs inside `select_row`'s query on the
/// benchmark host.
const SCRIPT_UNIT: Duration = Duration::from_nanos(1_500);

/// A 20 000-block relation, half of whose tuples the query selects.
fn scripted_db() -> (Database, Expr) {
    let mut db = Database::wall(11);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "t",
        schema,
        (0..100_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)])),
    )
    .unwrap();
    (
        db,
        Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 1)),
    )
}

/// A lane view of `db`'s disk timed by the script.
fn scripted_view(db: &Database, probe_reads: u64, slowdown: f64, simulated: bool) -> Arc<Disk> {
    let clock = Arc::new(ScriptedClock {
        view: std::sync::OnceLock::new(),
        unit: SCRIPT_UNIT,
        probe_reads,
        slowdown,
        simulated,
    });
    let view = db.disk().lane_view(clock.clone(), 5, 0, None);
    clock
        .view
        .set(Arc::downgrade(&view))
        .expect("attached once");
    view
}

/// `COUNT(expr)` within `quota` under the hard deadline, on the
/// script whose first stage is the probe and whose later reads cost
/// `slowdown ×` the probe's. Stage 1's size depends on the quota and
/// the initial coefficients alone, so stage 1 of a flat script tells
/// how many reads the probe is.
fn run_with_slow_large_stages(
    db: &Database,
    expr: &Expr,
    quota: Duration,
    slowdown: f64,
    simulated: bool,
) -> ExecutionReport {
    // The engine's defaults with the coefficients `Database::wall`
    // hands out.
    let spec = PreparedQuery {
        agg: AggregateFn::Count,
        expr: expr.clone(),
        quota,
        seed: 9,
        config: db.calibrated(EngineConfig::default()),
    };
    let flat = scripted_view(db, u64::MAX, 1.0, simulated);
    let mut probe = StageRun::start(&flat, db.catalog(), &spec).unwrap();
    probe.step().unwrap();
    let probe_reads = probe.finish().report.stages[0].blocks_drawn;
    let view = scripted_view(db, probe_reads, slowdown, simulated);
    spec.run(&view, db.catalog()).unwrap().report
}

/// Large stages cost 1.9× what the probe measured: the query still
/// banks stage 2 and spends the quota on banked stages.
#[test]
fn measured_hard_deadline_banks_its_stages_when_large_stages_run_slow() {
    let (db, expr) = scripted_db();
    let r = run_with_slow_large_stages(&db, &expr, Duration::from_millis(10), 1.9, false);
    assert!(
        r.stages.len() >= 2 && r.stages[1].within_quota,
        "{:?}",
        r.stages
    );
    assert!(r.useful_time() <= r.quota);
    assert!(r.utilization() >= 0.9, "utilization {}", r.utilization());
}

/// A clock the engine takes for simulated gets no reserve: every
/// stage is planned against all of the remaining quota, exactly as
/// before the measured-clock reserve existed — on this script, the
/// 156-block probe and then a quarter of the relation, which the
/// slowdown carries past the deadline, so the abort banks nothing
/// but the probe.
#[test]
fn simulated_clock_plans_against_the_whole_remaining_quota() {
    let (db, expr) = scripted_db();
    let r = run_with_slow_large_stages(&db, &expr, Duration::from_millis(10), 1.9, true);
    let plan: Vec<(f64, u64, bool)> = r
        .stages
        .iter()
        .map(|s| (s.fraction, s.blocks_drawn, s.within_quota))
        .collect();
    assert_eq!(plan, [(1.0 / 128.0, 156, true), (0.25, 3427, false)]);
}

/// Whatever the quota and however much (up to 1.9×) the probe
/// under-predicts: stage 2 is banked and no stage is banked past the
/// deadline.
#[test]
fn measured_hard_deadline_always_banks_stage_two() {
    let (db, expr) = scripted_db();
    proptest!(|(quota_us in 1_000u64..=100_000, slowdown in 1.0f64..=1.9)| {
        let quota = Duration::from_micros(quota_us);
        let r = run_with_slow_large_stages(&db, &expr, quota, slowdown, false);
        prop_assert!(r.stages.len() >= 2 && r.stages[1].within_quota,
            "quota {quota:?} slowdown {slowdown}: {:?}", r.stages);
        prop_assert!(r.useful_time() <= r.quota);
        let banked: u64 = r.stages.iter().filter(|s| s.within_quota)
            .map(|s| s.blocks_drawn).sum();
        prop_assert_eq!(banked, r.blocks_evaluated());
    });
}

// ---------------------------------------------------------------
// What a stage's block-read observation times
// ---------------------------------------------------------------

/// What the sampler's one-off O(relation) shuffle costs on the script
/// below: a thousand block reads' worth.
const DRAW_COST: Duration = Duration::from_micros(1_500);

/// A measured clock on which every block read of the attached view
/// costs [`SCRIPT_UNIT`] and the first profiled phase of the run —
/// the leaf's `rng_draw`, which brackets the sampler's draw and
/// nothing else — costs [`DRAW_COST`].
#[derive(Default)]
struct DrawClock {
    view: std::sync::OnceLock<std::sync::Weak<Disk>>,
    phase_edges: std::sync::atomic::AtomicU64,
}

impl Clock for DrawClock {
    fn elapsed(&self) -> Duration {
        let view = self.view.get().and_then(std::sync::Weak::upgrade);
        let reads = view.map_or(0, |v| v.stats().block_reads) as u32;
        let drawing = self.phase_edges.load(std::sync::atomic::Ordering::Relaxed) > 0;
        SCRIPT_UNIT * reads + if drawing { DRAW_COST } else { Duration::ZERO }
    }

    fn charge(&self, _d: Duration) {}

    fn is_simulated(&self) -> bool {
        false
    }
}

/// The handle the profiler times phases with: the same time, and
/// every phase edge (open or close) counted.
struct PhaseEdges(Arc<DrawClock>);

impl Clock for PhaseEdges {
    fn elapsed(&self) -> Duration {
        let now = self.0.elapsed();
        self.0
            .phase_edges
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        now
    }

    fn charge(&self, _d: Duration) {}

    fn is_simulated(&self) -> bool {
        false
    }
}

/// Regression: the leaf took its start time before the draw, so on a
/// measured clock stage 1's per-block coefficient carried the shuffle
/// and every later stage was planned several times too small.
#[test]
fn block_read_observation_excludes_the_samplers_draw() {
    let (db, expr) = scripted_db();
    let clock = Arc::new(DrawClock::default());
    let view = db.disk().lane_view(clock.clone(), 5, 0, None);
    clock
        .view
        .set(Arc::downgrade(&view))
        .expect("attached once");
    let config = EngineConfig {
        profiler: Profiler::recording(Arc::new(PhaseEdges(clock.clone()))),
        ..EngineConfig::default()
    };
    let mut rng = Rng::seed_from_u64(9);
    let mut tree = PhysTree::build(&expr, db.catalog(), &view, &config, &mut rng).unwrap();
    let mut env = StageEnv::new(view.clone(), &config, None, 1.0 / 256.0);
    tree.advance(&mut env).unwrap();

    // The clock did advance during the draw, and only there.
    let profile = config.profiler.snapshot().unwrap();
    let draw = profile.per_operator["leaf"][Phase::RngDraw.name()];
    assert_eq!((draw.calls, draw.sim_ns), (1, DRAW_COST.as_nanos() as u64));
    let blocks = view.stats().block_reads;
    assert_eq!(blocks, 78);
    assert_eq!(clock.elapsed(), DRAW_COST + SCRIPT_UNIT * blocks as u32);

    // The observation is the fetch-and-scan interval alone.
    let reads: Vec<_> = env
        .observations
        .iter()
        .filter(|o| o.coeff == CostCoeff::BlockRead)
        .collect();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].units, blocks as f64);
    assert_eq!(reads[0].elapsed, SCRIPT_UNIT * blocks as u32);
}
