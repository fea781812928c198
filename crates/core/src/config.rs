//! The engine's settings, declared once.
//!
//! The paper's stage loop (Figure 3.1) is parameterised by a quota
//! `T`, a risk multiplier `d_β` (inside the time-control strategy), a
//! fulfillment plan, the Section-4 cost coefficients and the stage-1
//! join selectivity (Figure 3.3's other first-stage assumptions are
//! constants of [`crate::seltrack`]). Every plan is the paper's
//! disk-resident one ([`crate::ops`]); this reproduction adds one
//! wall-clock-only choice (block layout) and its observers.
//! [`EngineConfig`] is the only struct that declares any of them, or
//! its default. Everything else
//! *holds* one: a [`crate::PreparedQuery`] carries the config its run
//! uses, the stage loop owns a copy and lends it to every stage's
//! [`crate::ops::StageEnv`], a [`crate::QueryServer`] holds the one
//! its lanes start from beside its one serving-only setting,
//! `concurrency`, and the CLI and the experiment harness each build
//! exactly one.

use std::sync::Arc;

use crate::costs::CostModel;
use crate::executor::EngineError;
use crate::obs::{Profiler, Tracer};
use crate::ops::{BlockLayout, Fulfillment};
use crate::retry::RetryPolicy;
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
    /// The selectivity a join is assumed to have before its first
    /// sample. Figure 3.3 assumes the maximum, 1 (as for Select and
    /// Project; Intersect assumes `1/max(|r₁|,|r₂|)`); the paper's
    /// own join experiment assumed 0.1, because "if the maximum
    /// selectivity of 1 were assumed, the sample size was so small
    /// that the system clock did not provide enough accuracy". In
    /// `(0, 1]`.
    pub join_selectivity: f64,
    /// Binary-operator fulfillment plan.
    pub fulfillment: Fulfillment,
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
            join_selectivity: 1.0,
            fulfillment: Fulfillment::Full,
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            collect_metrics: false,
            profiler: Profiler::disabled(),
            block_layout: BlockLayout::default(),
        }
    }
}

impl EngineConfig {
    /// Checks every setting a run would otherwise assert mid-query:
    /// the stopping criterion's confidences, `join_selectivity` in
    /// `(0, 1]` and a retry backoff that stays a finite duration. A
    /// one-shot run and a served batch both refuse a config that
    /// fails here before they read a block.
    pub fn validate(&self) -> Result<(), EngineError> {
        let refuse = |msg: String| Err(EngineError::InvalidConfig(msg));
        if let Err(e) = self.stopping.validate() {
            return refuse(format!("stopping: {e}"));
        }
        let sel = self.join_selectivity;
        if !(sel > 0.0 && sel <= 1.0) {
            return refuse(format!("join_selectivity {sel} is not inside (0, 1]"));
        }
        if let Err(e) = self.retry.validate() {
            return refuse(format!("retry: {e}"));
        }
        Ok(())
    }

    /// The coefficients a run of this config starts from.
    pub fn initial_cost_model(&self) -> CostModel {
        self.cost_model
            .clone()
            .unwrap_or_else(CostModel::generic_default)
    }
}
