//! The experiment harness: 200 independent trials per table row.
//!
//! The paper's measurement protocol: "In order to provide additional
//! information about the time control strategy, the ERAM does not
//! abort a query (stage) as it should do in a hard time constrained
//! environment when the query overspends" — i.e. measurement runs use
//! a *soft* deadline so the overrunning stage's completion time (and
//! hence "ovsp") is observable, while "stages", "utilization", and
//! "blocks" are computed as a hard-deadline caller would have
//! experienced them. [`TrialResult`] extracts exactly those columns
//! from an [`eram_core::ExecutionReport`]; [`run_row`] aggregates
//! them over seeded independent runs.

use std::sync::Arc;
use std::time::Duration;

use eram_core::{
    EngineConfig, ExecutionReport, OneAtATimeInterval, SelectivityDefaults, StoppingCriterion,
};
use eram_storage::{json_record, FaultPlan, SeedSeq};

use crate::workload::{Workload, WorkloadKind};

/// What one trial produced, in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Stages completed within the quota.
    pub stages: usize,
    /// True if a stage ran past the quota.
    pub overspent: bool,
    /// Seconds needed beyond the quota to finish the overrunning
    /// stage (0 if none).
    pub ovsp_secs: f64,
    /// Fraction of the quota spent in completed stages.
    pub utilization: f64,
    /// Disk blocks evaluated in completed stages.
    pub blocks: u64,
    /// The (hard-view) estimate.
    pub estimate: f64,
    /// Relative error against the exact answer (`NaN` when the truth
    /// is 0).
    pub rel_error: f64,
    /// Relative 95% CI half-width of the delivered estimate (`NaN`
    /// when the estimate is 0) — the precision the caller would have
    /// been quoted.
    pub rel_half_width: f64,
    /// Storage faults observed during the run.
    pub faults: u64,
    /// Blocks lost to corruption or retry exhaustion.
    pub blocks_lost: u64,
    /// True if the estimate was delivered over a reduced sample.
    pub degraded: bool,
}

json_record!(TrialResult {
    stages: required,
    overspent: required,
    ovsp_secs: required,
    utilization: required,
    blocks: required,
    estimate: required,
    rel_error: required,
    rel_half_width: required,
    faults: required,
    blocks_lost: required,
    degraded: required,
});

impl TrialResult {
    /// Extracts the paper's columns from a report.
    pub fn from_report(report: &ExecutionReport, truth: u64) -> TrialResult {
        let estimate = report.final_estimate.estimate;
        let rel_error = if truth == 0 {
            f64::NAN
        } else {
            (estimate - truth as f64).abs() / truth as f64
        };
        TrialResult {
            stages: report.completed_stages(),
            overspent: report.overspent(),
            ovsp_secs: report.overspend().as_secs_f64(),
            utilization: report.utilization(),
            blocks: report.blocks_evaluated(),
            estimate,
            rel_error,
            rel_half_width: report.final_estimate.relative_half_width(0.95),
            faults: report.health.faults_seen,
            blocks_lost: report.health.blocks_lost,
            degraded: report.health.degraded,
        }
    }
}

/// Aggregates over the trials of one table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStats {
    /// Number of trials.
    pub runs: usize,
    /// Mean completed stages — the paper's "stages".
    pub stages: f64,
    /// Percentage of trials that overspent — the paper's "risk".
    pub risk_pct: f64,
    /// Mean overspend in seconds *among overspending trials* — the
    /// paper's "ovsp" ("the average amount of time overspent in those
    /// experiments where overspending has occurred").
    pub ovsp_secs: f64,
    /// Mean utilization percentage.
    pub utilization_pct: f64,
    /// Mean blocks evaluated.
    pub blocks: f64,
    /// Mean relative estimation error (ignoring zero-truth trials).
    pub mean_rel_error: f64,
    /// Mean relative 95% CI half-width (ignoring trials where it is
    /// undefined) — the convergence column.
    pub mean_rel_hw: f64,
    /// Mean storage faults observed per trial.
    pub faults: f64,
    /// Mean blocks lost per trial.
    pub blocks_lost: f64,
    /// Percentage of trials that degraded (lost at least one block).
    pub degraded_pct: f64,
}

json_record!(RowStats {
    runs: required,
    stages: required,
    risk_pct: required,
    ovsp_secs: required,
    utilization_pct: required,
    blocks: required,
    mean_rel_error: required,
    mean_rel_hw: required,
    faults: required,
    blocks_lost: required,
    degraded_pct: required,
});

impl RowStats {
    /// Aggregates trial results.
    pub fn aggregate(trials: &[TrialResult]) -> RowStats {
        let n = trials.len().max(1) as f64;
        let overspenders: Vec<&TrialResult> = trials.iter().filter(|t| t.overspent).collect();
        let ovsp = if overspenders.is_empty() {
            0.0
        } else {
            overspenders.iter().map(|t| t.ovsp_secs).sum::<f64>() / overspenders.len() as f64
        };
        let errs: Vec<f64> = trials
            .iter()
            .map(|t| t.rel_error)
            .filter(|e| e.is_finite())
            .collect();
        let hws: Vec<f64> = trials
            .iter()
            .map(|t| t.rel_half_width)
            .filter(|h| h.is_finite())
            .collect();
        RowStats {
            runs: trials.len(),
            stages: trials.iter().map(|t| t.stages as f64).sum::<f64>() / n,
            risk_pct: 100.0 * overspenders.len() as f64 / n,
            ovsp_secs: ovsp,
            utilization_pct: 100.0 * trials.iter().map(|t| t.utilization).sum::<f64>() / n,
            blocks: trials.iter().map(|t| t.blocks as f64).sum::<f64>() / n,
            mean_rel_error: if errs.is_empty() {
                f64::NAN
            } else {
                errs.iter().sum::<f64>() / errs.len() as f64
            },
            mean_rel_hw: if hws.is_empty() {
                f64::NAN
            } else {
                hws.iter().sum::<f64>() / hws.len() as f64
            },
            faults: trials.iter().map(|t| t.faults as f64).sum::<f64>() / n,
            blocks_lost: trials.iter().map(|t| t.blocks_lost as f64).sum::<f64>() / n,
            degraded_pct: 100.0 * trials.iter().filter(|t| t.degraded).count() as f64 / n,
        }
    }
}

/// Everything one trial needs besides its seed.
pub struct TrialConfig {
    /// The workload to instantiate per trial.
    pub kind: WorkloadKind,
    /// The quota `T`.
    pub quota: Duration,
    /// LRU buffer-cache blocks in front of the device (0 = none).
    pub cache_blocks: usize,
    /// When true, stage-1 selectivities are seeded from prestored
    /// equi-depth histograms (the PsCo 84 / MuDe 88 alternative the
    /// paper contrasts with) instead of the Figure 3.3 maxima.
    pub seed_from_stats: bool,
    /// Fault plan to arm on each trial's device (`None` = clean). The
    /// plan seed is XOR-folded with the trial seed so independent
    /// trials see independent fault sites.
    pub fault_plan: Option<FaultPlan>,
    /// The engine settings every trial runs under. An ablation varies
    /// one field of this.
    pub engine: EngineConfig,
}

impl TrialConfig {
    /// The paper's configuration for a `d_β` row: One-at-a-Time
    /// strategy, full fulfillment, generic cost model, and the
    /// measurement protocol's soft deadline — the overrunning stage
    /// finishes so ovsp is measurable, while the hard-view columns
    /// come from the report.
    pub fn paper(kind: WorkloadKind, quota: Duration, d_beta: f64) -> TrialConfig {
        let defaults = match kind {
            WorkloadKind::Join { .. } => SelectivityDefaults::paper_join_experiment(),
            _ => SelectivityDefaults::default(),
        };
        TrialConfig {
            kind,
            quota,
            cache_blocks: 0,
            seed_from_stats: false,
            fault_plan: None,
            engine: EngineConfig {
                strategy: Arc::new(OneAtATimeInterval::new(d_beta)),
                stopping: StoppingCriterion::SoftDeadline,
                defaults,
                ..EngineConfig::default()
            },
        }
    }
}

/// Seeds stage-1 selectivity assumptions from prestored equi-depth
/// histograms over the workload's base relations (16 buckets per
/// column). Falls back to `base` when statistics cannot cover the
/// expression — the flexibility gap the paper's run-time approach
/// fills.
pub fn stats_seeded_defaults(
    workload: &Workload,
    base: SelectivityDefaults,
) -> SelectivityDefaults {
    let mut stats = eram_relalg::StatsCatalog::new();
    for name in workload.db.catalog().names() {
        if let Some(file) = workload.db.catalog().relation(name) {
            if let Ok(ts) = eram_relalg::TableStats::build(file, 16) {
                stats.insert(name, ts);
            }
        }
    }
    let Some(sel) = stats.top_operator_selectivity(&workload.expr) else {
        return base;
    };
    let sel = sel.clamp(1e-9, 1.0);
    let mut defaults = base;
    match workload.expr.op_kind() {
        Some(eram_relalg::OpKind::Select) => defaults.select = sel,
        Some(eram_relalg::OpKind::Join) => defaults.join = sel,
        Some(eram_relalg::OpKind::Project) => defaults.project = sel,
        Some(eram_relalg::OpKind::Intersect) => defaults.intersect = Some(sel),
        _ => {}
    }
    defaults
}

/// Runs one seeded trial.
pub fn run_trial(config: &TrialConfig, seed: u64) -> TrialResult {
    let mut workload = Workload::build_on(config.kind, seed, config.cache_blocks);
    let truth = workload.truth;
    let mut engine = config.engine.clone();
    if config.seed_from_stats {
        engine.defaults = stats_seeded_defaults(&workload, engine.defaults);
    }
    // Arm faults only after ground truth and prestored statistics are
    // in hand: the injected rot afflicts the measured query alone.
    if let Some(plan) = config.fault_plan {
        let mut plan = plan;
        plan.seed ^= seed;
        workload.db.inject_faults(plan);
    }
    let out = workload
        .db
        .count(workload.expr.clone())
        .within(config.quota)
        .config(engine)
        .seed(seed ^ 0x5EED)
        .run()
        .expect("experiment query must execute");
    TrialResult::from_report(&out.report, truth)
}

/// Runs `runs` independent trials, their seeds derived from
/// `master_seed`, spread over the host's cores, and aggregates them in
/// trial-index order.
pub fn run_row(config: &TrialConfig, runs: usize, master_seed: u64) -> RowStats {
    let seeds = SeedSeq::new(master_seed);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(runs.max(1));
    let chunk_len = runs.div_ceil(threads).max(1);
    let mut trials: Vec<Option<TrialResult>> = vec![None; runs];
    std::thread::scope(|scope| {
        for (ci, slot) in trials.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move || {
                for (j, out) in slot.iter_mut().enumerate() {
                    let run_index = (ci * chunk_len + j) as u64;
                    *out = Some(run_trial(config, seeds.derive(run_index)));
                }
            });
        }
    });
    let trials: Vec<TrialResult> = trials.into_iter().map(|t| t.expect("trial ran")).collect();
    RowStats::aggregate(&trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_produces_sane_columns() {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(10),
            12.0,
        );
        let t = run_trial(&cfg, 42);
        assert!(t.stages >= 1);
        assert!(t.utilization > 0.0 && t.utilization <= 1.0);
        assert!(t.blocks > 0);
        assert!(t.rel_error.is_finite());
        assert!(t.rel_half_width.is_finite() && t.rel_half_width >= 0.0);
    }

    #[test]
    fn row_aggregation_is_deterministic_and_parallel_consistent() {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(4),
            0.0,
        );
        let a = run_row(&cfg, 8, 7);
        let b = run_row(&cfg, 8, 7);
        assert_eq!(a, b);
        assert_eq!(a.runs, 8);
        assert!(a.stages >= 1.0);
    }

    #[test]
    fn zero_truth_yields_nan_error_but_valid_stats() {
        let cfg = TrialConfig::paper(
            WorkloadKind::Select { output_tuples: 0 },
            Duration::from_secs(4),
            12.0,
        );
        let t = run_trial(&cfg, 3);
        assert!(t.rel_error.is_nan());
        let stats = RowStats::aggregate(&[t]);
        assert!(stats.mean_rel_error.is_nan());
        assert!(stats.utilization_pct <= 100.0);
    }

    #[test]
    fn ovsp_averages_only_overspenders() {
        let mk = |overspent: bool, ovsp: f64| TrialResult {
            stages: 1,
            overspent,
            ovsp_secs: ovsp,
            utilization: 0.5,
            blocks: 10,
            estimate: 1.0,
            rel_error: 0.0,
            rel_half_width: 0.1,
            faults: 2,
            blocks_lost: 1,
            degraded: true,
        };
        let stats = RowStats::aggregate(&[mk(true, 0.2), mk(false, 0.0), mk(true, 0.4)]);
        assert!((stats.ovsp_secs - 0.3).abs() < 1e-12);
        assert!((stats.risk_pct - 200.0_f64 / 3.0).abs() < 1e-9);
        assert!((stats.faults - 2.0).abs() < 1e-12);
        assert!((stats.blocks_lost - 1.0).abs() < 1e-12);
        assert!((stats.degraded_pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn faulted_trials_degrade_but_still_deliver() {
        let mut cfg = TrialConfig::paper(
            WorkloadKind::Select {
                output_tuples: 5_000,
            },
            Duration::from_secs(8),
            12.0,
        );
        cfg.fault_plan = Some(
            FaultPlan::new(0xFA17)
                .with_transient(0.08)
                .with_corruption(0.02),
        );
        let stats = run_row(&cfg, 6, 21);
        assert_eq!(stats.runs, 6);
        // Every trial returned an estimate; faults showed up in the
        // columns rather than as failures.
        assert!(stats.faults > 0.0);
        assert!(stats.utilization_pct <= 100.0);
        // Replay determinism survives the fault path.
        assert_eq!(stats, run_row(&cfg, 6, 21));
    }
}
