//! The engine's settings, declared once.
//!
//! The paper's stage loop (Figure 3.1) is parameterised by a quota
//! `T`, a risk multiplier `d_β` (inside the time-control strategy), a
//! fulfillment plan and the Section-4 cost coefficients; this
//! reproduction adds a handful of wall-clock-only choices (workers,
//! run budget, block layout) and its observers. [`EngineConfig`] is
//! the only struct that declares any of them, or its default.
//! Everything else *holds* one: a [`crate::PreparedQuery`] carries
//! the config its run uses, the stage loop owns a copy and lends it
//! to every stage's [`crate::ops::StageEnv`], a
//! [`crate::ServerConfig`] embeds the one its lanes start from, and
//! the CLI and the experiment harness each build exactly one.

use std::sync::Arc;

use crate::costs::CostModel;
use crate::obs::{Profiler, Tracer};
use crate::ops::{BlockLayout, Fulfillment, MemoryMode, DEFAULT_RUN_CACHE_TUPLES};
use crate::retry::RetryPolicy;
use crate::seltrack::SelectivityDefaults;
use crate::stopping::StoppingCriterion;
use crate::strategy::{OneAtATimeInterval, TimeControlStrategy};

/// Every engine setting, independent of the query and its quota.
/// Cloning is a handful of reference-count bumps and a six-float
/// [`CostModel`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The time-control strategy. Strategies are stateless (`&self`),
    /// so one instance is shared by every run of the config.
    pub strategy: Arc<dyn TimeControlStrategy>,
    /// The stopping criterion.
    pub stopping: StoppingCriterion,
    /// Initial cost-model coefficients. `None` leaves the choice to
    /// the [`crate::Database`] the query runs on, which knows its
    /// device ([`crate::Database::calibrated`]); a run started with
    /// neither begins from [`CostModel::generic_default`].
    pub cost_model: Option<CostModel>,
    /// Stage-1 selectivity assumptions.
    pub defaults: SelectivityDefaults,
    /// Binary-operator fulfillment plan.
    pub fulfillment: Fulfillment,
    /// Disk-resident or main-memory evaluation.
    pub memory: MemoryMode,
    /// Safety cap on stages.
    pub max_stages: usize,
    /// Selection pushdown before compilation (on by default).
    pub optimize: bool,
    /// How transient storage faults are retried (backoff charged to
    /// the query clock).
    pub retry: RetryPolicy,
    /// Execution tracer. Disabled by default; attach a recording
    /// tracer to capture clock-charged spans and events.
    pub tracer: Tracer,
    /// Collect a [`crate::MetricsSnapshot`] into the report's
    /// `metrics` field (off by default).
    pub collect_metrics: bool,
    /// Phase profiler for the performance flight recorder. Disabled
    /// by default; attach a recording profiler to get a
    /// [`crate::ProfileSnapshot`] in the report's `profile` field.
    /// Pure observation: it never charges the clock.
    pub profiler: Profiler,
    /// Worker threads for the pure-CPU portions of each stage (block
    /// decode, run merges). Charged work — clock, tracer, deadline —
    /// always runs on the calling thread in canonical order, so
    /// results are byte-identical at any worker count; `0` and `1`
    /// (the default) both run everything inline.
    pub workers: usize,
    /// Budget (in tuples) each binary node has for sorted runs that
    /// keep their decoded tuples; `0` keeps none. Full fulfillment
    /// re-reads every old run once per new stage; a run that kept its
    /// tuples serves those re-reads from memory while still charging
    /// the exact block reads of its file, so results are
    /// byte-identical either way.
    pub run_cache_tuples: usize,
    /// Decode target for sampled blocks (row tuples or per-column
    /// typed arrays). Wall-clock only: results are byte-identical
    /// under either layout.
    pub block_layout: BlockLayout,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: Arc::new(OneAtATimeInterval::default()),
            stopping: StoppingCriterion::HardDeadline,
            cost_model: None,
            defaults: SelectivityDefaults::default(),
            fulfillment: Fulfillment::Full,
            memory: MemoryMode::DiskResident,
            max_stages: 1_000,
            optimize: true,
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            collect_metrics: false,
            profiler: Profiler::disabled(),
            workers: 1,
            run_cache_tuples: DEFAULT_RUN_CACHE_TUPLES,
            block_layout: BlockLayout::default(),
        }
    }
}

impl EngineConfig {
    /// The coefficients a run of this config starts from.
    pub fn initial_cost_model(&self) -> CostModel {
        self.cost_model
            .clone()
            .unwrap_or_else(CostModel::generic_default)
    }
}
