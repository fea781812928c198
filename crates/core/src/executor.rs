//! The time-constrained query evaluation algorithm (Figure 3.1).
//!
//! "Essentially, the algorithm repetitively gets a set of sample disk
//! blocks and evaluates the estimator until the stopping criterion is
//! satisfied. Each iteration of the while-loop is called a *stage*,
//! and includes the steps of determining the sample size, retrieving
//! and evaluating the sample tuples, and computing an estimate of
//! COUNT(E)."
//!
//! [`StageRun`] is the loop: `start` rewrites `COUNT(E)` by
//! inclusion–exclusion, compiles each term to a [`PhysTree`] and arms
//! the [`Deadline`]; each `step` is one stage —
//! Revise-Selectivities → Sample-Size-Determine → sample → evaluate →
//! estimate, adapting the cost-model coefficients from the stage's
//! measured step timings; `finish` assembles the report.
//! [`PreparedQuery::run`] steps one run to completion. Under a hard
//! constraint the in-flight stage is aborted the moment the quota
//! expires (the paper's timer interrupt) and its work is discarded
//! from the answer.

use std::sync::Arc;
use std::time::Duration;

use eram_relalg::{push_selections, Catalog, Expr, ExprError, PieRewrite};
use eram_sampling::{
    AggregateEstimator, CountEstimate, DistinctCount, DistinctEstimator, Linear, SrsCount,
};
use eram_storage::{Deadline, DeviceOp, Disk, DiskStats, Json, Rng, StorageError};

use crate::aggregate::{
    avg_estimate, sum_estimate, AggregateFn, GroupSnapshot, GroupedAccumulator, TermValues,
};
use crate::config::EngineConfig;
use crate::costs::{CostCoeff, CostModel};
use crate::obs::{MetricsSnapshot, Phase, SpanGuard};
use crate::ops::{Fulfillment, PhysTree, StageEnv, StageError, StageHealth};
use crate::report::{ExecutionReport, GroupReport, ReportHealth, StageReport};
use crate::session::PreparedQuery;

/// Safety cap on the stages of one run; reaching it stops the loop
/// with `stop_reason` `max_stages`.
pub const MAX_STAGES: usize = 1_000;

/// Errors from setting up or running a time-constrained count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The expression failed validation or rewriting.
    Expr(ExprError),
    /// The aggregate function cannot be evaluated on this expression
    /// (AVG over union/difference, SUM/AVG over a projection root).
    UnsupportedAggregate(String),
    /// An unrecoverable storage fault ended the query. Transient
    /// faults are retried and lost clusters are absorbed by estimator
    /// renormalization before this is ever surfaced.
    Storage(StorageError),
    /// A setting of the [`EngineConfig`] is outside its range (see
    /// [`EngineConfig::validate`]); refused before any block is read.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Expr(e) => write!(f, "expression error: {e}"),
            EngineError::UnsupportedAggregate(msg) => {
                write!(f, "unsupported aggregate: {msg}")
            }
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExprError> for EngineError {
    fn from(e: ExprError) -> Self {
        EngineError::Expr(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// The result of a time-constrained count.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The estimate delivered to the caller (under a hard constraint,
    /// the one from the last stage that completed within the quota).
    pub estimate: CountEstimate,
    /// Full accounting of the run.
    pub report: ExecutionReport,
}

/// The count estimate for one compiled term in its current state —
/// `û = N·(y/m)` with the SRS variance for ordinary roots, Goodman's
/// estimator over group occupancies for projection roots.
pub fn term_estimate(tree: &PhysTree) -> CountEstimate {
    term_estimate_with(tree, DistinctEstimator::Goodman)
}

/// [`term_estimate`] with a configurable distinct-count estimator for
/// projection roots (Goodman is the paper's choice; Chao1/jackknife
/// are the stable alternatives).
pub fn term_estimate_with(tree: &PhysTree, distinct: DistinctEstimator) -> CountEstimate {
    let n = tree.total_points();
    let m = tree.points_covered();
    if m <= 0.0 {
        return CountEstimate {
            estimate: 0.0,
            variance: 0.0,
            points_sampled: 0.0,
            total_points: n,
        };
    }
    if let Some((child_out, child_points)) = tree.projection_child_stats() {
        // Projection root: Goodman's estimator over the sampled group
        // occupancies, with the pre-projection population size plugged
        // in from the child's own estimate ([HouO 88]'s refinement).
        // Variance: SRS plug-in on the distinct rate — a documented
        // approximation (the paper reports no closed-form Goodman
        // variance either).
        let occupancies = tree.occupancies().expect("projection root");
        let sample: u64 = occupancies.iter().sum();
        let child_sel = if child_points > 0.0 {
            child_out / child_points
        } else {
            0.0
        };
        let population = (n * child_sel).max(sample as f64);
        return DistinctCount {
            distinct,
            population,
            occupancies: &occupancies,
            points_sampled: m,
            total_points: n,
        }
        .snapshot();
    }
    SrsCount {
        total_points: n,
        points_sampled: m,
        ones: tree.ones_found(),
    }
    .snapshot()
}

/// Combines term estimates with their inclusion–exclusion
/// coefficients — a [`Linear`] composition in the estimator algebra
/// (terms treated as independent — they share leaf samples only when
/// the same relation occurs in several terms, and the paper's
/// variance bookkeeping makes the same simplification). Grouped
/// aggregates combine like their scalar counterpart: the composite
/// estimate is the whole-expression aggregate, with per-group
/// answers carried separately by the [`GroupedAccumulator`].
fn combine(
    coefficients: &[i64],
    trees: &[PhysTree],
    values: &[TermValues],
    agg: AggregateFn,
) -> CountEstimate {
    let scalar = agg.scalar();
    if let AggregateFn::Avg { .. } = scalar {
        // Validated earlier: AVG has exactly one +1 term.
        let tree = &trees[0];
        return avg_estimate(
            tree.ones_found(),
            tree.points_covered(),
            tree.total_points(),
            &values[0],
        );
    }
    let mut linear = Linear::new();
    for ((&c, tree), tv) in coefficients.iter().zip(trees).zip(values) {
        let e = match scalar {
            AggregateFn::Count => term_estimate(tree),
            AggregateFn::Sum { .. } => sum_estimate(tree.total_points(), tree.points_covered(), tv),
            AggregateFn::Avg { .. } => unreachable!("handled above"),
            grouped => unreachable!("scalar() returned grouped aggregate {grouped}"),
        };
        linear.push(c, e);
    }
    linear.snapshot()
}

/// Whether the aggregate looks at the qualifying rows themselves (a
/// value column to sum, a key to group by) or only at how many there
/// are.
fn reads_rows(agg: AggregateFn) -> bool {
    agg.column().is_some() || agg.group_by().is_some()
}

/// Compiles `COUNT(expr)` as a run of `config` evaluates it:
/// selections pushed down (which shrinks every sorted run the
/// full-fulfillment plan re-merges), transformed into Σᵢ cᵢ·COUNT(Eᵢ')
/// (Section 2), each term a [`PhysTree`]. Returns the coefficients and
/// the trees; `rng` seeds the leaf samplers. Charge-free.
pub(crate) fn compile_terms(
    expr: &Expr,
    catalog: &Catalog,
    disk: &Arc<Disk>,
    config: &EngineConfig,
    rng: &mut Rng,
) -> Result<(Vec<i64>, Vec<PhysTree>), EngineError> {
    let pushed = push_selections(expr.clone(), &|name| {
        catalog.schema_of(name).map(eram_storage::Schema::arity)
    });
    let rewrite = PieRewrite::rewrite(&pushed)?;
    let mut coefficients = Vec::with_capacity(rewrite.terms.len());
    let mut trees = Vec::with_capacity(rewrite.terms.len());
    for term in &rewrite.terms {
        trees.push(PhysTree::build(&term.expr, catalog, disk, config, rng)?);
        coefficients.push(term.coefficient);
    }
    Ok((coefficients, trees))
}

/// The stage loop of Figure 3.1 as a resumable state machine: the
/// loop's state lives here, so a caller may pause between stages.
/// [`PreparedQuery::run`] steps one run to completion; the query
/// server steps several, a stage at a time, to interleave lanes on
/// one thread. Pausing charges nothing and observes nothing, so a run
/// stepped in any alternation with others is byte-identical to the
/// same run driven alone.
pub struct StageRun {
    disk: Arc<Disk>,
    /// The run's own copy of its settings; spans and events go to
    /// its tracer.
    config: EngineConfig,
    agg: AggregateFn,
    trees: Vec<PhysTree>,
    coefficients: Vec<i64>,
    values: Vec<TermValues>,
    /// GROUP BY state: the accumulator partitions qualifying tuples
    /// by key, and the delivered snapshots trail the last stage whose
    /// answer the stopping discipline lets us hand out.
    grouped: Option<GroupedAccumulator>,
    delivered_groups: Vec<GroupSnapshot>,
    groups_converged: bool,
    /// With metrics on, the disk's reading as the run starts and
    /// whether a fault plan was armed then.
    metrics_from: Option<(DiskStats, bool)>,
    deadline: Deadline,
    /// Opens at the same clock instant the deadline is armed and
    /// closes right as `total_elapsed` is read, so its duration
    /// equals the report's elapsed time exactly.
    root_span: SpanGuard,
    model: CostModel,
    stages: Vec<StageReport>,
    /// The estimate the run would deliver now: banked after every
    /// stage within the quota, and under a soft deadline after the
    /// overrunning stage too.
    latest: Option<CountEstimate>,
    health: StageHealth,
    hard_estimate: CountEstimate,
    stop_reason: &'static str,
}

impl StageRun {
    /// Validates and compiles `spec.agg(spec.expr)` — the paper's
    /// general problem statement with its COUNT restriction lifted:
    /// SUM shares COUNT's machinery (it is additive, so the
    /// inclusion–exclusion rewrite applies); AVG and GROUP BY require
    /// a union/difference-free expression and no projection root —
    /// then arms the deadline and opens the root span. The catalog's
    /// relations are re-based onto `disk` for sampling, so passing a
    /// lane view of the loading disk charges this run's own clock
    /// while reading the shared backend bytes.
    pub fn start(
        disk: &Arc<Disk>,
        catalog: &Catalog,
        spec: &PreparedQuery,
    ) -> Result<Self, EngineError> {
        let (agg, config) = (spec.agg, spec.config.clone());
        agg.validate(&spec.expr, catalog)?;
        config.validate()?;
        let mut rng = Rng::seed_from_u64(spec.seed);
        let (coefficients, mut trees) =
            compile_terms(&spec.expr, catalog, disk, &config, &mut rng)?;
        // A trivial rewrite: the one term is the expression itself.
        let trivial = coefficients == [1];
        if matches!(agg, AggregateFn::Avg { .. }) && !trivial {
            return Err(EngineError::UnsupportedAggregate(
                "AVG is not additive: the expression must be free of union/difference".into(),
            ));
        }
        if agg.group_by().is_some() && !trivial {
            return Err(EngineError::UnsupportedAggregate(
                "GROUP BY requires a union/difference-free expression".into(),
            ));
        }
        if reads_rows(agg) && trees.iter().any(PhysTree::projection_root) {
            return Err(EngineError::UnsupportedAggregate(
                "SUM/AVG/GROUP BY over a projection's distinct groups is not supported".into(),
            ));
        }
        if !reads_rows(agg) {
            trees.iter_mut().for_each(PhysTree::count_only);
        }
        let values = vec![TermValues::default(); trees.len()];
        let metrics_from = config
            .collect_metrics
            .then(|| (disk.stats(), disk.fault_plan().is_some()));
        let deadline = Deadline::new(disk.clock().clone(), spec.quota);
        let root_span = config.tracer.span("execute");
        let hard_estimate = {
            let _phase = config.profiler.phase(Phase::EstimatorMath);
            combine(&coefficients, &trees, &values, agg)
        };
        Ok(StageRun {
            disk: disk.clone(),
            model: config.initial_cost_model(),
            config,
            agg,
            trees,
            coefficients,
            values,
            grouped: agg.group_by().map(|_| GroupedAccumulator::new()),
            delivered_groups: Vec::new(),
            groups_converged: false,
            metrics_from,
            deadline,
            root_span,
            stages: Vec::new(),
            latest: None,
            health: StageHealth::default(),
            hard_estimate,
            stop_reason: "max_stages",
        })
    }

    /// The composite estimate over everything sampled so far.
    fn estimate_now(&self) -> CountEstimate {
        let _phase = self.config.profiler.phase(Phase::EstimatorMath);
        combine(&self.coefficients, &self.trees, &self.values, self.agg)
    }

    /// Runs one stage: revise selectivities, size the sample, draw,
    /// evaluate, check the stopping criterion. Returns whether another
    /// stage follows; after `Ok(false)` call [`StageRun::finish`]. An
    /// error is an unrecoverable storage fault and ends the run.
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let config = &self.config;
        let (tracer, profiler) = (&config.tracer, &config.profiler);
        let hard = config.stopping.is_hard();
        if self.trees.is_empty() {
            // The rewrite proved COUNT(E) = 0 (e.g. E = A − A).
            self.stop_reason = "empty_rewrite";
            return Ok(false);
        }
        if self.stages.len() >= MAX_STAGES {
            return Ok(false);
        }
        if self.trees.iter().all(PhysTree::exhausted) {
            self.stop_reason = "census_complete";
            return Ok(false); // census complete — the estimate is exact
        }
        let remaining = self.deadline.remaining();
        if remaining.is_zero() {
            self.stop_reason = "quota_exhausted";
            return Ok(false);
        }
        let stage_no = self.stages.len() + 1;
        tracer.set_stage(stage_no);
        profiler.set_stage(stage_no);
        {
            let _phase = profiler.phase(Phase::SelectivityRevision);
            tracer.event("revise_selectivities", || {
                let sels = self
                    .trees
                    .iter()
                    .map(|tree| {
                        let mut per_tree = Vec::new();
                        tree.for_each_tracker(&mut |t| {
                            per_tree.push(Json::from(t.revised_selectivity()));
                        });
                        Json::Arr(per_tree)
                    })
                    .collect();
                vec![("selectivities", Json::Arr(sels))]
            });
        }
        let measured_hard = hard && !self.disk.clock().is_simulated();
        let planning_remaining = if measured_hard {
            // Offer the strategy only half of what is left. Under a
            // hard deadline on a measured clock, a stage that overruns
            // is aborted and banks nothing, and the cost coefficients
            // fitted on a small probe stage under-predict a large one
            // (cold caches, a neighbour) by up to 1.9×: half keeps
            // such a stage inside the quota and leaves the next one
            // the rest. A simulated clock charges exactly what the
            // model predicts from, so it needs no reserve and plans
            // as it always has.
            Duration::from_secs_f64(remaining.as_secs_f64() * 0.5)
        } else {
            remaining
        };
        let plan = {
            let _phase = profiler.phase(Phase::Planning);
            config
                .strategy
                .plan_stage(&self.trees, &self.model, planning_remaining, stage_no)
        };
        let Some(plan) = plan else {
            // Leftover too small for another stage → wasted.
            self.stop_reason = "leftover_too_small";
            return Ok(false);
        };
        tracer.event("plan_stage", || {
            vec![
                ("fraction", Json::from(plan.fraction)),
                ("predicted_ns", Json::from(plan.predicted.as_nanos() as u64)),
                ("predicted_blocks", Json::from(plan.predicted_blocks)),
                (
                    "fulfillment",
                    Json::from(match config.fulfillment {
                        Fulfillment::Full => "full",
                        Fulfillment::Partial => "partial",
                    }),
                ),
            ]
        });
        let stage_start = self.deadline.spent();
        // Every charge this stage makes (overhead, reads, CPU, retry
        // backoff) lands between this span's endpoints, so its
        // duration equals `StageReport::actual_cost` and the stage
        // spans partition the run's charged time.
        let stage_span = tracer.span("stage");
        let blocks_before: u64 = self.trees.iter().map(PhysTree::blocks_drawn).sum();

        // The fixed per-stage bookkeeping, measured at run time.
        let t0 = self.disk.clock().elapsed();
        self.disk.charge(DeviceOp::StageOverhead);
        let overhead = self.disk.clock().elapsed() - t0;

        let mut env = StageEnv::new(
            self.disk.clone(),
            config,
            hard.then_some(&self.deadline),
            plan.fraction,
        );
        let agg = self.agg;
        let mut aborted = false;
        let mut storage_failure: Option<StorageError> = None;
        for (tree, tv) in self.trees.iter_mut().zip(self.values.iter_mut()) {
            match tree.advance(&mut env) {
                Ok(delta) => {
                    // COUNT queries never look at the rows — the
                    // trees were told so and may not have built any.
                    if reads_rows(agg) {
                        let rows = delta.into_rows();
                        if let Some(col) = agg.column() {
                            tv.absorb(&rows, col);
                        }
                        if let Some(acc) = self.grouped.as_mut() {
                            let group = agg.group_by().expect("grouped accumulator implies a key");
                            acc.absorb(&rows, group, agg.column());
                        }
                    }
                }
                Err(StageError::Deadline) => {
                    aborted = true;
                    break;
                }
                Err(StageError::Storage(e)) => {
                    storage_failure = Some(e);
                    break;
                }
            }
        }
        self.health.absorb(env.health);
        if let Some(e) = storage_failure {
            // Not degradable (unknown file, schema mismatch, …): the
            // caller gets the error, not a silently wrong estimate.
            return Err(EngineError::Storage(e));
        }

        // Adapt the cost formulas from this stage's measured steps.
        self.model.observe(CostCoeff::StageOverhead, 1.0, overhead);
        for obs in &env.observations {
            self.model.observe(obs.coeff, obs.units, obs.elapsed);
        }

        let actual = self.deadline.spent() - stage_start;
        drop(stage_span);
        let blocks_after: u64 = self.trees.iter().map(PhysTree::blocks_drawn).sum();
        let estimate = self.estimate_now();
        let within = !aborted && self.deadline.spent() <= self.deadline.quota();
        self.stages.push(StageReport {
            stage: stage_no,
            fraction: plan.fraction,
            predicted_cost: plan.predicted,
            actual_cost: actual,
            blocks_drawn: blocks_after - blocks_before,
            within_quota: within,
            estimate,
        });
        if within {
            self.hard_estimate = estimate;
            self.latest = Some(estimate);
        } else if !hard {
            // Soft constraint: the overrunning stage still delivers.
            self.latest = Some(estimate);
        }
        if let Some(acc) = self.grouped.as_mut() {
            // Grouped runs have a trivial rewrite, so the one term's
            // (N, m) accounting backs every group's estimator.
            let n = self.trees[0].total_points();
            let m = self.trees[0].points_covered();
            if within {
                if let Some((target, confidence, min_tuples)) = config.stopping.group_error_bound()
                {
                    self.groups_converged =
                        acc.check_convergence(stage_no, agg, n, m, target, confidence, min_tuples);
                }
            }
            if within || !hard {
                // Mirror the latest-estimate rule: a hard-deadline
                // abort must not leak post-quota group state, so the
                // delivered snapshots stay at the last banked stage.
                self.delivered_groups = acc.snapshots(agg, n, m);
            }
            tracer.stage_record("group_convergence", || {
                let snaps = acc.snapshots(agg, n, m);
                let mut keys = Vec::with_capacity(snaps.len());
                let mut estimates = Vec::with_capacity(snaps.len());
                let mut widths = Vec::with_capacity(snaps.len());
                let mut tuples = Vec::with_capacity(snaps.len());
                let mut frozen = Vec::with_capacity(snaps.len());
                for g in &snaps {
                    keys.push(Json::from(g.key));
                    estimates.push(Json::from(g.estimate.estimate));
                    widths.push(Json::from(g.estimate.relative_half_width(0.95)));
                    tuples.push(Json::from(g.tuples_seen));
                    frozen.push(Json::from(g.frozen));
                }
                vec![
                    ("groups", Json::from(snaps.len() as u64)),
                    (
                        "frozen",
                        Json::from(snaps.iter().filter(|g| g.frozen).count() as u64),
                    ),
                    ("keys", Json::Arr(keys)),
                    ("estimates", Json::Arr(estimates)),
                    ("rel_half_widths", Json::Arr(widths)),
                    ("tuples_seen", Json::Arr(tuples)),
                    ("frozen_flags", Json::Arr(frozen)),
                    ("all_converged", Json::from(self.groups_converged)),
                ]
            });
        }
        tracer.stage_record("convergence", || {
            let mut sels = Vec::new();
            for tree in &self.trees {
                tree.for_each_tracker(&mut |t| {
                    sels.push(Json::from(t.revised_selectivity()));
                });
            }
            vec![
                ("estimate", Json::from(estimate.estimate)),
                ("variance", Json::from(estimate.variance)),
                (
                    "rel_half_width",
                    Json::from(estimate.relative_half_width(0.95)),
                ),
                ("points_sampled", Json::from(estimate.points_sampled)),
                ("blocks_total", Json::from(blocks_after)),
                ("blocks_stage", Json::from(blocks_after - blocks_before)),
                ("fraction", Json::from(plan.fraction)),
                (
                    "spent_ns",
                    Json::from(self.deadline.spent().as_nanos() as u64),
                ),
                (
                    "remaining_ns",
                    Json::from(self.deadline.remaining().as_nanos() as u64),
                ),
                ("within_quota", Json::from(within)),
                ("selectivities", Json::Arr(sels)),
            ]
        });
        // One stopping check per executed stage, with the decision
        // recorded before the equivalent returns run. `expired` and
        // `precision_satisfied` are pure reads, so pre-evaluating
        // them does not change loop behaviour.
        let stopping_phase = profiler.phase(Phase::StoppingCheck);
        let expired_now = self.deadline.expired();
        // For grouped runs, per-group convergence (every group frozen)
        // is a precision stop: the remaining quota has no loose group
        // left to spend on.
        let precision =
            config.stopping.precision_satisfied(self.latest.as_ref()) || self.groups_converged;
        let stop = aborted || expired_now || precision;
        tracer.event("stopping_check", || {
            vec![
                ("aborted", Json::from(aborted)),
                ("deadline_expired", Json::from(expired_now)),
                ("precision_satisfied", Json::from(precision)),
                ("stop", Json::from(stop)),
            ]
        });
        drop(stopping_phase);
        if aborted {
            self.stop_reason = "aborted";
        } else if expired_now {
            self.stop_reason = "quota_expired";
        } else if precision {
            self.stop_reason = "precision_satisfied";
        }
        Ok(!stop)
    }

    /// Closes the run: emits the stop reason, shuts the root span and
    /// assembles the report from the stages banked so far.
    pub fn finish(self) -> ExecOutcome {
        let stop_reason = self.stop_reason;
        self.config
            .tracer
            .event("stop", || vec![("reason", Json::from(stop_reason))]);

        let delivered = if self.config.stopping.is_hard() {
            self.hard_estimate
        } else {
            self.latest.unwrap_or(self.hard_estimate)
        };
        let health = ReportHealth {
            faults_seen: self.health.faults_seen,
            retries: self.health.retries,
            blocks_lost: self.health.blocks_lost,
            degraded: self.health.blocks_lost > 0,
            refusal: None,
        };
        let metrics = self.metrics_from.map(|(before, armed)| {
            let disk = &self.disk;
            let armed = armed || disk.fault_plan().is_some();
            let cached = disk.cache_stats().is_some();
            MetricsSnapshot::storage(&disk.stats().since(&before), cached, armed)
        });
        // A completed census makes every still-live group's estimate
        // exact (its variance formulas collapse at m = N) — the
        // small-group fallback. Frozen groups keep their honest sampled
        // snapshot from the stage they converged.
        let census = stop_reason == "census_complete";
        let groups: Vec<GroupReport> = self
            .delivered_groups
            .iter()
            .map(|g| GroupReport {
                key: g.key,
                estimate: g.estimate,
                tuples_seen: g.tuples_seen,
                converged_at_stage: g.converged_at,
                exact: census && !g.frozen,
            })
            .collect();
        drop(self.root_span);
        let report = ExecutionReport {
            schema_version: crate::obs::SCHEMA_VERSION,
            quota: self.deadline.quota(),
            stages: self.stages,
            total_elapsed: self.deadline.spent(),
            final_estimate: self.hard_estimate,
            groups,
            health,
            metrics,
            profile: self.config.profiler.snapshot(),
        };
        ExecOutcome {
            estimate: delivered,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Profiler, TraceKind, TraceRecord, Tracer};
    use crate::stopping::StoppingCriterion;
    use crate::strategy::OneAtATimeInterval;
    use eram_relalg::{eval, CmpOp, Predicate};
    use eram_storage::ToJson;
    use eram_storage::{
        BlockCache, Clock, ColumnType, DeviceProfile, FileId, HeapFile, Schema, SimClock, Tuple,
        Value,
    };

    fn setup(jitter: bool) -> (Arc<Disk>, Catalog) {
        let profile = if jitter {
            DeviceProfile::sun_3_60()
        } else {
            DeviceProfile::sun_3_60().without_jitter()
        };
        let disk = Disk::new(Arc::new(SimClock::new()), profile, 23);
        let mut cat = Catalog::new();
        for (name, stride) in [("r", 1i64), ("s", 2i64)] {
            let schema =
                Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
            let hf = HeapFile::load(
                disk.clone(),
                schema,
                (0..10_000).map(|i| Tuple::new(vec![Value::Int(i * stride), Value::Int(i % 100)])),
            )
            .unwrap();
            cat.register(name, hf);
        }
        (disk, cat)
    }

    /// Engine defaults under `OneAtATimeInterval(d_beta)`.
    fn config(d_beta: f64) -> EngineConfig {
        EngineConfig {
            strategy: Arc::new(OneAtATimeInterval::new(d_beta)),
            ..EngineConfig::default()
        }
    }

    /// `COUNT(expr)` within `quota` under `config`.
    fn count(
        disk: &Arc<Disk>,
        cat: &Catalog,
        expr: &Expr,
        quota: Duration,
        config: &EngineConfig,
        seed: u64,
    ) -> ExecOutcome {
        let spec = PreparedQuery {
            agg: AggregateFn::Count,
            expr: expr.clone(),
            quota,
            seed,
            config: config.clone(),
        };
        spec.run(disk, cat).unwrap()
    }

    fn run(
        disk: &Arc<Disk>,
        cat: &Catalog,
        expr: &Expr,
        quota: Duration,
        stopping: StoppingCriterion,
        d_beta: f64,
    ) -> ExecOutcome {
        let mut cfg = config(d_beta);
        cfg.stopping = stopping;
        count(disk, cat, expr, quota, &cfg, 99)
    }

    #[test]
    fn select_estimate_lands_near_truth_within_quota() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64; // 5000
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(10),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        assert!(out.report.completed_stages() >= 1);
        assert!(out.report.utilization() > 0.3);
        let rel_err = (out.estimate.estimate - truth).abs() / truth;
        assert!(
            rel_err < 0.35,
            "estimate {} vs truth {truth} (rel err {rel_err})",
            out.estimate.estimate
        );
        // Hard constraint: the delivered answer existed at the quota.
        assert_eq!(out.estimate, out.report.final_estimate);
    }

    #[test]
    fn soft_deadline_lets_overrunning_stage_finish() {
        let (disk, cat) = setup(true);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(5),
            StoppingCriterion::SoftDeadline,
            0.0,
        );
        // No stage was aborted: every reported stage has its full
        // actual cost and an estimate.
        for s in &out.report.stages {
            assert!(s.actual_cost > Duration::ZERO);
        }
    }

    #[test]
    fn hard_deadline_never_delivers_post_quota_work() {
        let (disk, cat) = setup(true);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(3),
            StoppingCriterion::HardDeadline,
            0.0,
        );
        // Abort granularity is one block, so the overshoot must be
        // tiny compared to the quota.
        assert!(out.report.overspend() < Duration::from_millis(300));
        assert!(out.report.utilization() <= 1.0);
    }

    #[test]
    fn error_bound_stops_early_with_time_left() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(3_600),
            StoppingCriterion::Combined(vec![
                StoppingCriterion::HardDeadline,
                StoppingCriterion::ErrorBound {
                    target: 0.10,
                    confidence: 0.95,
                },
            ]),
            12.0,
        );
        assert!(
            out.report.total_elapsed < Duration::from_secs(3_600),
            "should stop long before the huge quota"
        );
        assert!(out.estimate.relative_half_width(0.95) <= 0.10);
    }

    #[test]
    fn census_terminates_loop_with_exact_answer() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64;
        // Quota vastly exceeding a full scan.
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(100_000),
            StoppingCriterion::HardDeadline,
            0.0,
        );
        assert!((out.estimate.estimate - truth).abs() < 1e-6);
        assert_eq!(out.estimate.variance, 0.0);
    }

    #[test]
    fn union_query_runs_through_pie() {
        let (disk, cat) = setup(false);
        // r ∪ s: the engine must evaluate three terms (r, s, r∩s).
        let expr = Expr::relation("r").union(Expr::relation("s"));
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64; // 15000
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(30),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        assert!(out.report.completed_stages() >= 1);
        let rel = (out.estimate.estimate - truth).abs() / truth;
        assert!(rel < 0.5, "estimate {} vs {truth}", out.estimate.estimate);
    }

    #[test]
    fn self_difference_short_circuits_to_zero() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").difference(Expr::relation("r"));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(5),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        assert_eq!(out.estimate.estimate, 0.0);
        assert!(out.report.stages.is_empty());
    }

    #[test]
    fn impossible_quota_yields_zero_sample_answer() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::True);
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_millis(1),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        assert_eq!(out.report.completed_stages(), 0);
        assert_eq!(out.estimate.points_sampled, 0.0);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let mut results = Vec::new();
        for _ in 0..2 {
            let (disk, cat) = setup(true);
            let out = run(
                &disk,
                &cat,
                &expr,
                Duration::from_secs(5),
                StoppingCriterion::SoftDeadline,
                12.0,
            );
            results.push((
                out.estimate.estimate.to_bits(),
                out.report.completed_stages(),
                out.report.blocks_evaluated(),
            ));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn projection_query_uses_goodman() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").project(vec![1]); // 100 distinct
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(20),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        // Goodman is high-variance, but with a paper-scale sample the
        // estimate must be in a sane range around 100.
        assert!(out.estimate.estimate >= 50.0, "{}", out.estimate.estimate);
        assert!(out.estimate.estimate <= 10_000.0);
    }

    #[test]
    fn selection_pushdown_buys_more_sample_for_the_same_quota() {
        // σ over a join: pushed down, the runs the join re-merges are
        // ~100× smaller, so the same quota covers more blocks. The
        // engine always pushes down; the unpushed tree is built
        // directly, and both run the same stages until the quota.
        let expr = Expr::relation("r")
            .join(Expr::relation("s"), vec![(0, 0)])
            .select(Predicate::col_cmp(1, CmpOp::Lt, 1));
        let quota = Duration::from_secs(5);
        let blocks_within_quota = |pushed: bool| {
            let (disk, cat) = setup(false);
            let term = if pushed {
                push_selections(expr.clone(), &|name| cat.schema_of(name).map(Schema::arity))
            } else {
                expr.clone()
            };
            let cfg = config(12.0);
            let mut rng = Rng::seed_from_u64(3);
            let mut tree = PhysTree::build(&term, &cat, &disk, &cfg, &mut rng).unwrap();
            let mut banked = 0;
            for _ in 0..1_000 {
                let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.002);
                tree.advance(&mut env).unwrap();
                if disk.clock().elapsed() > quota {
                    break;
                }
                banked = tree.blocks_drawn();
            }
            banked
        };
        let (plain, pushed) = (blocks_within_quota(false), blocks_within_quota(true));
        assert!(pushed > plain, "pushed {pushed} vs plain {plain} blocks");
    }

    #[test]
    fn faults_degrade_the_report_not_the_deadline() {
        let (disk, cat) = setup(false);
        disk.set_fault_plan(
            eram_storage::FaultPlan::new(31)
                .with_transient(0.10)
                .with_corruption(0.05),
        );
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(10),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        let h = out.report.health;
        assert!(h.faults_seen > 0, "10%+5% rates must fault");
        assert_eq!(h.degraded, h.blocks_lost > 0);
        // The hard deadline still holds at block granularity.
        assert!(out.report.overspend() < Duration::from_millis(300));
        assert!(out.estimate.estimate >= 0.0);
    }

    #[test]
    fn fault_free_run_reports_clean_health() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let out = run(
            &disk,
            &cat,
            &expr,
            Duration::from_secs(5),
            StoppingCriterion::HardDeadline,
            12.0,
        );
        assert_eq!(out.report.health, crate::report::ReportHealth::default());
        assert!(!out.report.health.degraded);
    }

    #[test]
    fn fault_injection_replays_bit_identically() {
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let mut results = Vec::new();
        for _ in 0..2 {
            let (disk, cat) = setup(true);
            disk.set_fault_plan(
                eram_storage::FaultPlan::new(47)
                    .with_transient(0.08)
                    .with_corruption(0.02),
            );
            let out = run(
                &disk,
                &cat,
                &expr,
                Duration::from_secs(8),
                StoppingCriterion::HardDeadline,
                12.0,
            );
            results.push((
                out.estimate.estimate.to_bits(),
                out.report.health,
                out.report.completed_stages(),
                out.report.blocks_evaluated(),
            ));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn trace_and_metrics_capture_the_run() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let tracer = Tracer::recording(disk.clock().clone());
        let mut cfg = config(12.0);
        cfg.tracer = tracer.clone();
        cfg.collect_metrics = true;
        let out = count(&disk, &cat, &expr, Duration::from_secs(10), &cfg, 99);

        let records = tracer.records();
        assert!(!records.is_empty());
        // One stage span end per reported stage, each with the stage's
        // charged duration.
        let stage_ends: Vec<&TraceRecord> = records
            .iter()
            .filter(|r| r.kind == TraceKind::End && r.name == "stage")
            .collect();
        assert_eq!(stage_ends.len(), out.report.stages.len());
        let span_sum: u64 = stage_ends.iter().map(|r| r.dur_ns.unwrap()).sum();
        assert_eq!(
            span_sum,
            out.report.total_elapsed.as_nanos() as u64,
            "stage spans must partition the charged time"
        );
        // The root span covers the whole execution.
        let root = records
            .iter()
            .find(|r| r.kind == TraceKind::End && r.name == "execute")
            .unwrap();
        assert_eq!(
            root.dur_ns.unwrap(),
            out.report.total_elapsed.as_nanos() as u64
        );
        // Exactly one stopping check per executed stage and one
        // terminal stop event.
        let checks = records
            .iter()
            .filter(|r| r.name == "stopping_check")
            .count();
        assert_eq!(checks, out.report.stages.len());
        assert_eq!(records.iter().filter(|r| r.name == "stop").count(), 1);

        // The snapshot holds only what the disk saw; the stages are the
        // report's own.
        let metrics = out.report.metrics.as_ref().unwrap();
        assert!(metrics.counter("storage.block_reads") > 0);
        assert!(metrics.counters.keys().all(|k| k.starts_with("storage.")));
    }

    #[test]
    fn disabled_tracer_leaves_reports_unchanged() {
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let base = {
            let (disk, cat) = setup(false);
            run(
                &disk,
                &cat,
                &expr,
                Duration::from_secs(5),
                StoppingCriterion::HardDeadline,
                12.0,
            )
        };
        let traced = {
            let (disk, cat) = setup(false);
            let mut cfg = config(12.0);
            cfg.stopping = StoppingCriterion::HardDeadline;
            cfg.tracer = Tracer::recording(disk.clock().clone());
            cfg.collect_metrics = true;
            count(&disk, &cat, &expr, Duration::from_secs(5), &cfg, 99)
        };
        // Tracing/metrics are pure observation: identical clock
        // charges, identical estimate.
        assert_eq!(
            base.estimate.estimate.to_bits(),
            traced.estimate.estimate.to_bits()
        );
        assert_eq!(base.report.total_elapsed, traced.report.total_elapsed);
        assert_eq!(base.report.stages, traced.report.stages);
    }

    #[test]
    fn profiling_is_pure_observation() {
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let run_with = |profile: bool| {
            let (disk, cat) = setup(false);
            let mut cfg = config(12.0);
            cfg.stopping = StoppingCriterion::HardDeadline;
            let tracer = Tracer::recording(disk.clock().clone());
            cfg.tracer = tracer.clone();
            if profile {
                cfg.profiler = Profiler::recording(disk.clock().clone());
            }
            let out = count(&disk, &cat, &expr, Duration::from_secs(5), &cfg, 99);
            (out, tracer.to_jsonl())
        };
        let (base, base_trace) = run_with(false);
        assert!(base.report.profile.is_none());
        let (prof, prof_trace) = run_with(true);
        // Identical simulated results: same estimate bits, same
        // charged time, same stage reports, byte-identical trace.
        assert_eq!(
            base.estimate.estimate.to_bits(),
            prof.estimate.estimate.to_bits()
        );
        assert_eq!(base.report.total_elapsed, prof.report.total_elapsed);
        assert_eq!(base.report.stages, prof.report.stages);
        assert_eq!(base_trace, prof_trace);
        // The report differs only in the profile payload: strip it
        // and the JSON must match byte for byte.
        let mut a = base.report.to_json();
        let mut b = prof.report.to_json();
        a.remove("profile");
        b.remove("profile");
        assert_eq!(a, b);
        assert!(prof.report.profile.is_some());
    }

    #[test]
    fn profile_snapshot_attributes_the_stage_loop() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let mut cfg = config(12.0);
        cfg.stopping = StoppingCriterion::HardDeadline;
        cfg.profiler = Profiler::recording(disk.clock().clone());
        let out = count(&disk, &cat, &expr, Duration::from_secs(5), &cfg, 99);
        let snap = out.report.profile.as_ref().unwrap();
        assert_eq!(snap.schema_version, crate::obs::SCHEMA_VERSION);
        // Engine-level phases fire once per stage at minimum.
        for phase in [Phase::Planning, Phase::StoppingCheck, Phase::EstimatorMath] {
            let stats = snap
                .phases
                .get(phase.label())
                .unwrap_or_else(|| panic!("missing phase {}", phase.label()));
            assert!(stats.calls > 0, "{} has no calls", phase.label());
        }
        // Leaf work lands under the leaf operator, engine work under
        // the engine pseudo-operator.
        let leaf = snap.per_operator.get("leaf").expect("leaf operator cell");
        assert!(leaf.contains_key(Phase::RngDraw.label()));
        assert!(leaf.contains_key(Phase::BlockDecode.label()));
        assert!(snap.per_operator.contains_key(crate::obs::ENGINE_OPERATOR));
        // Per-stage attribution covers every executed stage index,
        // plus at most the stage-0 preamble and a final stage that
        // entered planning but stopped before reporting (e.g.
        // leftover_too_small).
        assert!(!snap.per_stage.is_empty());
        assert!(snap.per_stage.len() <= out.report.stages.len() + 2);
        // RNG draws charge simulated time (the sampler charges the
        // clock inside the instrumented region), so sim attribution
        // is non-zero overall.
        assert!(snap.total_sim_ns() > 0);
        assert!(snap.total_wall_ns() > 0);
        let top = snap.top_phases(3);
        assert!(!top.is_empty() && top.len() <= 3);
        // Ranking is by wall time, descending.
        for pair in top.windows(2) {
            assert!(pair[0].1.wall_ns >= pair[1].1.wall_ns);
        }
    }

    /// Each phase's wall figures are read from one kept sample per
    /// call, in nearest-rank order.
    #[test]
    fn a_profiled_run_keeps_one_wall_sample_per_call() {
        let (disk, cat) = setup(false);
        let mut config = config(12.0);
        config.profiler = Profiler::recording(disk.clock().clone());
        let spec = PreparedQuery {
            agg: AggregateFn::Count,
            expr: Expr::relation("r").join(Expr::relation("s"), vec![(0, 0)]),
            quota: Duration::from_secs(30),
            seed: 7,
            config: config.clone(),
        };
        let mut run = StageRun::start(&disk, &cat, &spec).unwrap();
        while run.step().unwrap() {}
        let out = run.finish();
        assert!(out.report.completed_stages() >= 2);
        let snap = out.report.profile.as_ref().unwrap();
        let kept = config.profiler.wall_sample_counts();
        assert!(snap.phases.contains_key(Phase::RunMerge.label()));
        assert_eq!(snap.phases.len(), kept.len());
        for (name, s) in &snap.phases {
            let quantiles = [s.wall_min_ns, s.wall_p50_ns, s.wall_p95_ns, s.wall_max_ns];
            let ordered = quantiles.windows(2).all(|w| w[0] <= w[1]);
            assert!(ordered, "{name}: {quantiles:?}");
            assert_eq!(s.calls, kept[name.as_str()] as u64, "{name}");
        }
    }

    /// The `plan_stage` event names the fulfillment plan the stage
    /// runs under, not a constant.
    #[test]
    fn plan_stage_traces_the_fulfillment_plan_in_effect() {
        for (fulfillment, name) in [
            (Fulfillment::Full, "full"),
            (Fulfillment::Partial, "partial"),
        ] {
            let (disk, cat) = setup(false);
            let expr = Expr::relation("r").intersect(Expr::relation("s"));
            let tracer = Tracer::recording(disk.clock().clone());
            let mut cfg = config(12.0);
            cfg.fulfillment = fulfillment;
            cfg.tracer = tracer.clone();
            let out = count(&disk, &cat, &expr, Duration::from_secs(20), &cfg, 13);
            assert!(out.report.stages.len() >= 2, "a multi-stage run");
            let plans: Vec<String> = tracer
                .records()
                .iter()
                .filter(|r| r.name == "plan_stage")
                .map(|r| r.fields["fulfillment"].as_str().unwrap().to_owned())
                .collect();
            assert_eq!(plans.len(), out.report.stages.len());
            assert!(plans.iter().all(|p| p == name), "{name}: {plans:?}");
        }
    }

    /// Two runs over lane views of one disk, stepped in an arbitrary
    /// alternation through one shared draw pool, each report and
    /// trace exactly what the same run does driven alone.
    #[test]
    fn alternated_stepping_matches_running_alone() {
        let (disk, cat) = setup(true);
        let exprs = [
            Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50)),
            Expr::relation("r").join(Expr::relation("s"), vec![(0, 0)]),
        ];
        let quotas = [Duration::from_secs(6), Duration::from_secs(20)];
        // A lane: private clock, jitter stream and trace buffer over
        // the shared backend bytes.
        let lane = |i: usize, pool: Option<Arc<BlockCache>>| {
            let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
            let tracer = Tracer::recording(clock.clone());
            (disk.lane_view(clock, 40 + i as u64, i as u64, pool), tracer)
        };
        let alone: Vec<(ExecOutcome, Vec<TraceRecord>)> = (0..2)
            .map(|i| {
                let (disk, tracer) = lane(i, None);
                let mut cfg = config(12.0);
                cfg.tracer = tracer.clone();
                let out = count(&disk, &cat, &exprs[i], quotas[i], &cfg, 7 + i as u64);
                (out, tracer.records())
            })
            .collect();

        let pool = Arc::new(BlockCache::unbounded());
        let cfg = config(12.0);
        let lanes: Vec<(Arc<Disk>, Tracer)> = (0..2).map(|i| lane(i, Some(pool.clone()))).collect();
        let mut runs: Vec<Option<StageRun>> = lanes
            .iter()
            .enumerate()
            .map(|(i, (disk, tracer))| {
                let spec = PreparedQuery {
                    agg: AggregateFn::Count,
                    expr: exprs[i].clone(),
                    quota: quotas[i],
                    seed: 7 + i as u64,
                    config: EngineConfig {
                        tracer: tracer.clone(),
                        ..cfg.clone()
                    },
                };
                Some(StageRun::start(disk, &cat, &spec).unwrap())
            })
            .collect();
        let mut stepped: Vec<Option<ExecOutcome>> = vec![None, None];
        for &i in [1usize, 1, 0, 1, 0, 0].iter().cycle() {
            if let Some(mut run) = runs[i].take() {
                if run.step().unwrap() {
                    runs[i] = Some(run);
                } else {
                    stepped[i] = Some(run.finish());
                }
            }
            if runs.iter().all(Option::is_none) {
                break;
            }
        }
        for i in 0..2 {
            assert!(alone[i].0.report.stages.len() > 1, "lane {i} must step");
            assert_eq!(stepped[i].as_ref(), Some(&alone[i].0), "lane {i} report");
            assert_eq!(lanes[i].1.records(), alone[i].1, "lane {i} trace");
        }
    }

    #[test]
    fn join_query_estimates_reasonably() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").join(Expr::relation("s"), vec![(0, 0)]);
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64; // 5000
        let mut cfg = config(12.0);
        cfg.join_selectivity = 0.1;
        let out = count(&disk, &cat, &expr, Duration::from_secs(30), &cfg, 7);
        assert!(out.report.completed_stages() >= 1);
        // Join sampling on a sparse key space is noisy; require the
        // right order of magnitude.
        assert!(
            out.estimate.estimate < truth * 10.0,
            "estimate {} vs truth {truth}",
            out.estimate.estimate
        );
    }

    /// Run files are temporaries of the query that wrote them: when
    /// it returns, the disk holds the base relations and nothing else
    /// — on the root disk and through a lane view alike.
    #[test]
    fn a_join_frees_its_run_files_when_it_ends() {
        let (disk, cat) = setup(false);
        let expr = Expr::relation("r").join(Expr::relation("s"), vec![(0, 0)]);
        let mut cfg = config(12.0);
        cfg.join_selectivity = 0.1;
        let lane = disk.lane_view(Arc::new(SimClock::new()), 3, 0, None);
        let mut first_free = disk.create_file().0 + 1;
        for view in [&disk, &lane] {
            let out = count(view, &cat, &expr, Duration::from_secs(30), &cfg, 7);
            assert!(out.report.completed_stages() >= 2);
            assert!(view.stats().block_writes > 0, "the join wrote runs");
            let next = disk.create_file().0;
            assert!(next > first_free, "the runs were files on this disk");
            for id in first_free..next {
                let gone = disk.num_blocks(FileId(id)).unwrap_err();
                assert_eq!(
                    gone,
                    StorageError::UnknownFile(id),
                    "a run file outlived its query"
                );
            }
            first_free = next + 1;
        }
    }
}
