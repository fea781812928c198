//! The performance flight recorder: RAII phase timers over a fixed
//! taxonomy, recording **both** the simulated-clock charge and the
//! real wall-clock nanoseconds of every instrumented phase.
//!
//! The paper's premise is a time quota, so the engine must know where
//! every millisecond of a stage goes. The [`Tracer`](super::Tracer)
//! answers that for the *simulated* device model; the [`Profiler`]
//! additionally answers it for the *host*: how much real CPU time the
//! block scans, the run merges, the estimator math and the
//! planning actually cost, per stage and per operator. Comparing the
//! two columns is how the per-phase cost model is continuously
//! checked against reality.
//!
//! Like the tracer, a profiler is either **disabled** (the default —
//! a `None`, one branch per site, no `Instant::now()` syscall, no
//! allocation) or **recording**. Profiling is pure observation: it
//! never charges the session clock, never touches the RNG, and all
//! guards open and close on the calling thread, so a seeded run
//! produces byte-identical simulated results with profiling on or
//! off.
//!
//! # Phase taxonomy
//!
//! | phase | where it is charged |
//! |---|---|
//! | `block_decode` | reading a fetched block: a leaf's scan of each block as it is read (one call per block); a run re-read serves the tuples its run kept and never decodes |
//! | `run_merge` | merging a binary operator's sorted run pairs (one call per stage) |
//! | `estimator_math` | combining stage estimates into the running estimator |
//! | `rng_draw` | drawing the stage's block sample from the sampler RNG |
//! | `cache` | the block-fetch path through the buffer cache / device |
//! | `retry_backoff` | charged backoff sleeps while retrying a faulty read |
//! | `selectivity_revision` | the per-stage selectivity revision step |
//! | `planning` | sizing the stage sample (including hybrid re-planning) |
//! | `stopping_check` | evaluating the stopping criterion |
//!
//! Phases are disjoint by construction — no instrumented region nests
//! inside another — so per-stage phase totals partition the
//! instrumented time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use eram_storage::{json_record, json_unit_enum, Clock, Mutex};

use super::{duration_ns, SCHEMA_VERSION};

/// Operator label used for engine-level phases (planning, estimator
/// math, stopping checks) that run outside any operator's `advance`.
pub const ENGINE_OPERATOR: &str = "engine";

/// The fixed phase taxonomy (see the module docs for where each
/// phase is charged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Reading fetched blocks: scanning their records in place and
    /// decoding the ones an operator reads into typed tuples.
    BlockDecode,
    /// Merging a binary operator's sorted run pairs, all of a stage's
    /// pairs under one guard.
    RunMerge,
    /// Combining a stage estimate into the running estimator.
    EstimatorMath,
    /// Drawing the stage's block sample from the sampler RNG.
    RngDraw,
    /// The block-fetch path through the buffer cache / device.
    Cache,
    /// Charged backoff sleeps while retrying a faulty read.
    RetryBackoff,
    /// The per-stage selectivity revision step.
    SelectivityRevision,
    /// Sizing the stage sample (including hybrid re-planning).
    Planning,
    /// Evaluating the stopping criterion.
    StoppingCheck,
}

json_unit_enum!(Phase {
    BlockDecode = "block_decode",
    RunMerge = "run_merge",
    EstimatorMath = "estimator_math",
    RngDraw = "rng_draw",
    Cache = "cache",
    RetryBackoff = "retry_backoff",
    SelectivityRevision = "selectivity_revision",
    Planning = "planning",
    StoppingCheck = "stopping_check",
});

/// Accumulated totals for one (stage, operator, phase) cell or one
/// rolled-up view of such cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotals {
    /// Number of guard open/close pairs.
    pub calls: u64,
    /// Total simulated-clock charge inside the phase, nanoseconds.
    pub sim_ns: u64,
    /// Total wall-clock time inside the phase, nanoseconds.
    pub wall_ns: u64,
}

json_record!(PhaseTotals {
    calls: required,
    sim_ns: required,
    wall_ns: required,
});

impl std::ops::AddAssign for PhaseTotals {
    fn add_assign(&mut self, rhs: PhaseTotals) {
        self.calls += rhs.calls;
        self.sim_ns += rhs.sim_ns;
        self.wall_ns += rhs.wall_ns;
    }
}

/// Aggregated statistics for one phase across the whole run: the
/// totals plus wall-clock distribution figures over the individual
/// guard durations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Number of guard open/close pairs.
    pub calls: u64,
    /// Total simulated-clock charge, nanoseconds.
    pub sim_ns: u64,
    /// Total wall-clock time, nanoseconds.
    pub wall_ns: u64,
    /// Fastest single call, wall nanoseconds.
    pub wall_min_ns: u64,
    /// Slowest single call, wall nanoseconds.
    pub wall_max_ns: u64,
    /// Median single call, wall nanoseconds (nearest rank).
    pub wall_p50_ns: u64,
    /// 95th-percentile single call, wall nanoseconds (nearest rank).
    pub wall_p95_ns: u64,
}

json_record!(PhaseStats {
    calls: required,
    sim_ns: required,
    wall_ns: required,
    wall_min_ns: required,
    wall_max_ns: required,
    wall_p50_ns: required,
    wall_p95_ns: required,
});

/// The frozen output of a recording [`Profiler`]: per-phase
/// statistics plus per-stage and per-operator breakdowns. Rides on
/// [`ExecutionReport`](crate::ExecutionReport) behind an `Option`.
///
/// The `sim_ns` columns are deterministic for a seeded run; the
/// `wall_*` columns are host measurements and vary run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSnapshot {
    /// Observability schema version (see
    /// [`SCHEMA_VERSION`](crate::obs::SCHEMA_VERSION)).
    pub schema_version: u32,
    /// Whole-run statistics by phase name.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Per-stage totals by phase name (stage 0 collects work done
    /// before the first stage opens).
    pub per_stage: BTreeMap<usize, BTreeMap<String, PhaseTotals>>,
    /// Per-operator totals by phase name; engine-level phases land
    /// under [`ENGINE_OPERATOR`].
    pub per_operator: BTreeMap<String, BTreeMap<String, PhaseTotals>>,
}

json_record!(ProfileSnapshot {
    schema_version: default,
    phases: default,
    per_stage: default,
    per_operator: default,
});

impl ProfileSnapshot {
    /// Total wall nanoseconds across every phase.
    pub fn total_wall_ns(&self) -> u64 {
        self.phases.values().map(|s| s.wall_ns).sum()
    }

    /// Total simulated nanoseconds across every phase.
    pub fn total_sim_ns(&self) -> u64 {
        self.phases.values().map(|s| s.sim_ns).sum()
    }

    /// The `n` phases with the largest wall-clock totals, descending
    /// (ties broken by phase name so the order is stable).
    pub fn top_phases(&self, n: usize) -> Vec<(&str, &PhaseStats)> {
        let mut rows: Vec<(&str, &PhaseStats)> = self
            .phases
            .iter()
            .map(|(name, stats)| (name.as_str(), stats))
            .collect();
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }
}

#[derive(Default)]
struct ProfState {
    stage: usize,
    operators: Vec<&'static str>,
    cells: BTreeMap<(usize, &'static str, Phase), PhaseTotals>,
    /// Every closed guard's wall nanoseconds, by phase, in arrival
    /// order until a snapshot sorts them.
    wall: BTreeMap<Phase, Vec<u64>>,
}

/// Sorts one phase's wall samples (non-empty) and reads their
/// `[min, p50, p95, max]` by nearest rank: the `q`-quantile is the
/// sample of rank `⌈q·n⌉`, clamped to `1..=n`, so every figure is a
/// real observation and `q = 0` / `q = 1` are the extremes.
fn wall_quantiles(samples: &mut [u64]) -> [u64; 4] {
    samples.sort_unstable();
    [0.0, 0.50, 0.95, 1.0].map(|q| {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    })
}

struct ProfilerInner {
    clock: Arc<dyn Clock>,
    state: Mutex<ProfState>,
}

/// A cheap-to-clone handle to a (possibly disabled) phase-timing
/// accumulator. `Profiler::default()` is disabled; every
/// instrumentation site costs one branch when disabled and never
/// reads the host clock.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfilerInner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Profiler(disabled)"),
            Some(inner) => write!(
                f,
                "Profiler(recording, {} cells)",
                inner.state.lock().cells.len()
            ),
        }
    }
}

impl Profiler {
    /// The no-op profiler: records nothing, costs one branch per site.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// A recording profiler whose simulated column is read from
    /// `clock` — pass the same clock the query's deadline runs on
    /// (`db.disk().clock()`).
    pub fn recording(clock: Arc<dyn Clock>) -> Self {
        Profiler {
            inner: Some(Arc::new(ProfilerInner {
                clock,
                state: Mutex::new(ProfState::default()),
            })),
        }
    }

    /// Whether this profiler records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the current stage number; stage indices never decrease
    /// (mirrors [`Tracer::set_stage`](super::Tracer::set_stage)).
    pub fn set_stage(&self, stage: usize) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            state.stage = state.stage.max(stage);
        }
    }

    /// Pushes an operator label onto the attribution stack; phases
    /// timed while the guard lives are attributed to `name`. Guards
    /// nest lexically (a binary operator advancing its children).
    #[must_use = "dropping the guard immediately pops the operator"]
    pub fn operator(&self, name: &'static str) -> OperatorGuard {
        if let Some(inner) = &self.inner {
            inner.state.lock().operators.push(name);
        }
        OperatorGuard {
            profiler: self.clone(),
        }
    }

    /// Opens a phase timer: captures the simulated clock and the host
    /// clock now, and accumulates both deltas into the current
    /// (stage, operator, phase) cell when the returned guard drops.
    /// When disabled, neither clock is read.
    #[must_use = "dropping the guard immediately closes the phase"]
    pub fn phase(&self, phase: Phase) -> PhaseGuard {
        let start = self
            .inner
            .as_ref()
            .map(|inner| (duration_ns(inner.clock.elapsed()), Instant::now()));
        PhaseGuard {
            profiler: self.clone(),
            phase,
            start,
        }
    }

    /// Freezes the accumulated cells into a [`ProfileSnapshot`];
    /// `None` when disabled.
    pub fn snapshot(&self) -> Option<ProfileSnapshot> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.state.lock();
        let mut snap = ProfileSnapshot {
            schema_version: SCHEMA_VERSION,
            ..ProfileSnapshot::default()
        };
        for ((stage, operator, phase), totals) in &state.cells {
            let name = phase.label().to_string();
            let agg = snap.phases.entry(name.clone()).or_default();
            agg.calls += totals.calls;
            agg.sim_ns += totals.sim_ns;
            agg.wall_ns += totals.wall_ns;
            *snap
                .per_stage
                .entry(*stage)
                .or_default()
                .entry(name.clone())
                .or_default() += *totals;
            *snap
                .per_operator
                .entry(operator.to_string())
                .or_default()
                .entry(name)
                .or_default() += *totals;
        }
        for (phase, samples) in &mut state.wall {
            if let Some(s) = snap.phases.get_mut(phase.label()) {
                [s.wall_min_ns, s.wall_p50_ns, s.wall_p95_ns, s.wall_max_ns] =
                    wall_quantiles(samples);
            }
        }
        Some(snap)
    }
}

#[cfg(test)]
impl Profiler {
    /// How many wall samples the profiler keeps, by phase label.
    pub(crate) fn wall_sample_counts(&self) -> BTreeMap<&'static str, usize> {
        let inner = self.inner.as_ref().expect("a recording profiler");
        let state = inner.state.lock();
        state
            .wall
            .iter()
            .map(|(p, v)| (p.label(), v.len()))
            .collect()
    }
}

/// RAII guard popping an operator label pushed by
/// [`Profiler::operator`].
pub struct OperatorGuard {
    profiler: Profiler,
}

impl Drop for OperatorGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.profiler.inner {
            inner.state.lock().operators.pop();
        }
    }
}

/// RAII guard closing a phase opened by [`Profiler::phase`]. On drop
/// it accumulates the simulated-clock delta and the wall-clock delta
/// into the current (stage, operator, phase) cell.
pub struct PhaseGuard {
    profiler: Profiler,
    phase: Phase,
    start: Option<(u64, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let (Some(inner), Some((sim_start_ns, wall_start))) = (&self.profiler.inner, self.start)
        else {
            return;
        };
        let sim_ns = duration_ns(inner.clock.elapsed()).saturating_sub(sim_start_ns);
        let wall_ns = duration_ns(wall_start.elapsed());
        let mut state = inner.state.lock();
        let stage = state.stage;
        let operator = state.operators.last().copied().unwrap_or(ENGINE_OPERATOR);
        *state
            .cells
            .entry((stage, operator, self.phase))
            .or_default() += PhaseTotals {
            calls: 1,
            sim_ns,
            wall_ns,
        };
        state.wall.entry(self.phase).or_default().push(wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json;
    use std::time::Duration;

    use eram_storage::SimClock;

    fn sim() -> Arc<SimClock> {
        Arc::new(SimClock::new())
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let _op = p.operator("leaf:orders");
            let _g = p.phase(Phase::BlockDecode);
        }
        p.set_stage(4);
        assert!(p.snapshot().is_none());
    }

    #[test]
    fn disabled_phase_guard_never_reads_the_host_clock() {
        let p = Profiler::disabled();
        let g = p.phase(Phase::RngDraw);
        assert!(g.start.is_none(), "no Instant::now() when disabled");
    }

    #[test]
    fn sim_column_is_the_charged_clock_delta() {
        let clock = sim();
        let p = Profiler::recording(clock.clone());
        {
            let _g = p.phase(Phase::Cache);
            clock.charge(Duration::from_millis(12));
        }
        {
            let _g = p.phase(Phase::Planning);
            // No charge: a purely computational phase.
        }
        let snap = p.snapshot().unwrap();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        let cache = &snap.phases["cache"];
        assert_eq!(cache.calls, 1);
        assert_eq!(cache.sim_ns, 12_000_000);
        let planning = &snap.phases["planning"];
        assert_eq!(planning.calls, 1);
        assert_eq!(planning.sim_ns, 0);
    }

    #[test]
    fn cells_split_by_stage_and_operator() {
        let clock = sim();
        let p = Profiler::recording(clock.clone());
        p.set_stage(1);
        {
            let _op = p.operator("leaf:orders");
            let _g = p.phase(Phase::BlockDecode);
            clock.charge(Duration::from_millis(1));
        }
        p.set_stage(2);
        {
            let _op = p.operator("join");
            {
                let _g = p.phase(Phase::RunMerge);
                clock.charge(Duration::from_millis(2));
            }
            {
                // Nested operator: the innermost label wins.
                let _inner = p.operator("leaf:parts");
                let _g = p.phase(Phase::BlockDecode);
                clock.charge(Duration::from_millis(3));
            }
        }
        {
            let _g = p.phase(Phase::StoppingCheck);
        }
        let snap = p.snapshot().unwrap();
        assert_eq!(snap.per_stage[&1]["block_decode"].sim_ns, 1_000_000);
        assert_eq!(snap.per_stage[&2]["run_merge"].sim_ns, 2_000_000);
        assert_eq!(snap.per_stage[&2]["block_decode"].sim_ns, 3_000_000);
        assert_eq!(snap.per_operator["join"]["run_merge"].calls, 1);
        assert_eq!(snap.per_operator["leaf:parts"]["block_decode"].calls, 1);
        assert_eq!(
            snap.per_operator[ENGINE_OPERATOR]["stopping_check"].calls,
            1
        );
        // The whole-run phase view sums the per-stage cells.
        assert_eq!(
            snap.phases["block_decode"].sim_ns, 4_000_000,
            "1ms in stage 1 + 3ms in stage 2"
        );
        assert_eq!(snap.total_sim_ns(), 6_000_000);
    }

    #[test]
    fn top_phases_orders_by_wall_time() {
        let p = Profiler::recording(sim());
        {
            let _g = p.phase(Phase::BlockDecode);
            std::thread::sleep(Duration::from_millis(3));
        }
        {
            let _g = p.phase(Phase::Planning);
        }
        let snap = p.snapshot().unwrap();
        let top = snap.top_phases(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "block_decode");
        assert!(top[0].1.wall_ns >= 3_000_000);
        assert!(snap.total_wall_ns() >= top[0].1.wall_ns);
        assert!(snap.phases["block_decode"].wall_p50_ns > 0);
        assert!(snap.phases["block_decode"].wall_max_ns >= snap.phases["block_decode"].wall_min_ns);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let clock = sim();
        let p = Profiler::recording(clock.clone());
        p.set_stage(1);
        {
            let _op = p.operator("leaf:t");
            let _g = p.phase(Phase::RngDraw);
            clock.charge(Duration::from_micros(250));
        }
        let snap = p.snapshot().unwrap();
        let json = json::to_string(&snap);
        let back: ProfileSnapshot = json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(json.contains("\"rng_draw\""));
    }

    #[test]
    fn one_sample_pins_every_quantile() {
        assert_eq!(wall_quantiles(&mut [7]), [7, 7, 7, 7]);
    }

    #[test]
    fn tiny_sample_counts_pick_real_observations() {
        // Two samples: nearest-rank p50 is the lower one, p95 the
        // upper — never an interpolated value.
        assert_eq!(wall_quantiles(&mut [10, 20]), [10, 10, 20, 20]);
        // Three samples: the median is the middle observation.
        assert_eq!(wall_quantiles(&mut [10, 20, 30]), [10, 20, 30, 30]);
    }

    #[test]
    fn skewed_samples_follow_nearest_rank_in_any_arrival_order() {
        // 99 small calls and one enormous outlier: the median and p95
        // ignore the outlier, the maximum sees it.
        let mut calls: Vec<u64> = (1..=99).chain([1_000_000_000]).collect();
        assert_eq!(wall_quantiles(&mut calls), [1, 50, 95, 1_000_000_000]);
        let mut reversed: Vec<u64> = [1_000_000_000].into_iter().chain((1..=99).rev()).collect();
        assert_eq!(wall_quantiles(&mut reversed), [1, 50, 95, 1_000_000_000]);
    }

    #[test]
    fn clones_share_one_accumulator() {
        let clock = sim();
        let p = Profiler::recording(clock.clone());
        let p2 = p.clone();
        {
            let _g = p2.phase(Phase::Cache);
            clock.charge(Duration::from_millis(1));
        }
        assert_eq!(p.snapshot().unwrap().phases["cache"].calls, 1);
    }
}
