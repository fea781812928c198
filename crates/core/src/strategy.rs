//! Time-control strategies (Section 3.3).
//!
//! "A time-control algorithm not only has to make the query
//! processing meet the time constraint, but also, for a given amount
//! of time quota, it should produce an estimate as precise as
//! possible. ... a tradeoff has to be made between the number of
//! stages (i.e. the overhead) and the amount of time wasted (i.e.,
//! the risk of overspending)."
//!
//! Three strategies:
//!
//! * [`OneAtATimeInterval`] — the paper's implemented choice: per
//!   operator, assume the inflated selectivity `sel⁺` (equation 3.3)
//!   so that `P(sel⁺ ≥ selᵢ) = 1 − βᵢ`, then solve the deterministic
//!   equation `Tᵢ = QCOST(fᵢ, SEL⁺)` (equation 3.4) by bisection.
//!   "We have chosen to use the One-at-a-Time-Interval approach as
//!   the basis of the time-control algorithm in our implementation
//!   ... because of its simplicity."
//! * [`SingleInterval`] — considers the risk of the *whole* query:
//!   reserve `d_α·√(V̂ar(QCOST))` of the remaining quota and solve
//!   `Tᵢ = μ(fᵢ) + d_α·√(V̂ar(fᵢ))` (equations 3.1–3.2). The paper
//!   deems the exact covariance computation "a very expensive
//!   procedure"; we use the same plug-in simplification it suggests —
//!   previous-stage selectivity variances, operators treated
//!   independently — with the variance propagated through QCOST by
//!   per-operator perturbation.
//! * [`HeuristicStrategy`] — the paper names a heuristic strategy but
//!   does not describe it ("We do not discuss the heuristic strategy
//!   here"). This is our documented reconstruction: spend a fixed
//!   fraction of the remaining quota per stage, with a safety margin
//!   on the predicted cost.

use std::time::Duration;

use crate::costs::CostModel;
use crate::ops::PhysTree;
use crate::predict::{
    bisect, count_operators, predict_stage, solve_fraction, SelPolicy, StagePrediction,
};
use crate::seltrack::SelTracker;

/// What the strategy decided for the upcoming stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePlan {
    /// The sample fraction `fᵢ` to draw from every operand relation.
    pub fraction: f64,
    /// The predicted stage cost.
    pub predicted: Duration,
    /// Predicted blocks to be drawn.
    pub predicted_blocks: f64,
}

/// Chooses the sample fraction for each stage (or stops the loop).
pub trait TimeControlStrategy: Send + Sync + std::fmt::Debug {
    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Plans the next stage given the compiled terms, the adaptive
    /// cost model, and the remaining quota. Returning `None` stops
    /// the loop (the leftover is wasted, per the paper's accounting).
    fn plan_stage(
        &self,
        trees: &[PhysTree],
        model: &CostModel,
        remaining: Duration,
        stage: usize,
    ) -> Option<StagePlan>;
}

fn to_plan(found: Option<(f64, StagePrediction)>) -> Option<StagePlan> {
    found.map(|(fraction, p)| StagePlan {
        fraction,
        predicted: Duration::from_secs_f64(p.cost_secs.max(0.0)),
        predicted_blocks: p.blocks_drawn,
    })
}

/// The One-at-a-Time-Interval statistical strategy (Section 3.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneAtATimeInterval {
    /// The `d_β` multiplier controlling each operator's risk of
    /// underestimated selectivity. The paper sweeps {0, 12, 24, 48,
    /// 72}; 0 makes `sel⁺` the plain mean (≈ 50 % risk).
    pub d_beta: f64,
}

impl OneAtATimeInterval {
    /// Creates the strategy with the given `d_β`.
    pub fn new(d_beta: f64) -> Self {
        OneAtATimeInterval { d_beta }
    }
}

impl Default for OneAtATimeInterval {
    fn default() -> Self {
        Self::new(12.0)
    }
}

impl TimeControlStrategy for OneAtATimeInterval {
    fn name(&self) -> &'static str {
        "one-at-a-time-interval"
    }

    fn plan_stage(
        &self,
        trees: &[PhysTree],
        model: &CostModel,
        remaining: Duration,
        _stage: usize,
    ) -> Option<StagePlan> {
        let policy = SelPolicy::Inflated {
            d_beta: self.d_beta,
        };
        to_plan(solve_fraction(
            trees,
            model,
            &policy,
            remaining.as_secs_f64(),
        ))
    }
}

/// The Single-Interval statistical strategy (Section 3.3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleInterval {
    /// The `d_α` multiplier on the whole-query cost deviation.
    pub d_alpha: f64,
}

impl SingleInterval {
    /// Creates the strategy with the given `d_α`.
    pub fn new(d_alpha: f64) -> Self {
        SingleInterval { d_alpha }
    }

    /// `μ(f) + d_α·√(V̂ar(f))`: mean cost plus the reserved deviation,
    /// propagating each operator's selectivity variance through QCOST
    /// by one-at-a-time perturbation (operators treated as
    /// independent — the paper's suggested plug-in simplification).
    fn effective_cost(&self, trees: &[PhysTree], model: &CostModel, f: f64) -> StagePrediction {
        let mean = predict_stage(trees, f, model, &SelPolicy::Mean);
        if self.d_alpha == 0.0 {
            return mean;
        }
        let n_ops = count_operators(trees);
        let mut var_sum = 0.0;
        for k in 0..n_ops {
            let perturb = |i: usize, tracker: &SelTracker, pts: f64| {
                let mu = tracker.revised_selectivity();
                if i == k {
                    (mu + tracker.selectivity_variance(pts).sqrt()).min(1.0)
                } else {
                    mu
                }
            };
            let policy = SelPolicy::PerOp(&perturb);
            let perturbed = predict_stage(trees, f, model, &policy);
            let delta = perturbed.cost_secs - mean.cost_secs;
            var_sum += delta * delta;
        }
        StagePrediction {
            cost_secs: mean.cost_secs + self.d_alpha * var_sum.sqrt(),
            ..mean
        }
    }
}

impl Default for SingleInterval {
    fn default() -> Self {
        Self::new(2.0)
    }
}

impl TimeControlStrategy for SingleInterval {
    fn name(&self) -> &'static str {
        "single-interval"
    }

    fn plan_stage(
        &self,
        trees: &[PhysTree],
        model: &CostModel,
        remaining: Duration,
        _stage: usize,
    ) -> Option<StagePlan> {
        // Bisection on f with the variance-reserving effective cost.
        let (f, _) = bisect(
            |f| self.effective_cost(trees, model, f),
            remaining.as_secs_f64(),
        )?;
        // Report the *mean* as the prediction (the reserve is
        // headroom, not expected spend).
        let mean = predict_stage(trees, f, model, &SelPolicy::Mean);
        to_plan(Some((f, mean)))
    }
}

/// A documented reconstruction of the paper's (undescribed) heuristic
/// strategy: spend a fixed share of the remaining quota each stage,
/// with a multiplicative safety margin on the predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicStrategy {
    /// Share of the remaining quota to target per stage, in `(0, 1]`.
    pub spend_share: f64,
    /// Multiplier ≥ 1 applied to predicted costs before sizing
    /// (protects against underestimated selectivities without any
    /// statistics).
    pub safety: f64,
    /// When true (default), stages after the first target the whole
    /// remainder; when false, every stage targets `spend_share` —
    /// the *probing* mode suited to error-constrained evaluation,
    /// where the loop should stop as soon as precision is met rather
    /// than spend the quota.
    pub commit_after_first: bool,
}

impl HeuristicStrategy {
    /// Creates a heuristic spending `spend_share` of the remaining
    /// quota per stage with the given safety margin.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new(spend_share: f64, safety: f64) -> Self {
        assert!(spend_share > 0.0 && spend_share <= 1.0);
        assert!(safety >= 1.0);
        HeuristicStrategy {
            spend_share,
            safety,
            commit_after_first: true,
        }
    }

    /// Probing variant: every stage targets `spend_share` of the
    /// remaining quota (for error-constrained stopping).
    pub fn probing(spend_share: f64, safety: f64) -> Self {
        HeuristicStrategy {
            commit_after_first: false,
            ..Self::new(spend_share, safety)
        }
    }
}

impl Default for HeuristicStrategy {
    fn default() -> Self {
        Self::new(0.5, 1.25)
    }
}

impl TimeControlStrategy for HeuristicStrategy {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn plan_stage(
        &self,
        trees: &[PhysTree],
        model: &CostModel,
        remaining: Duration,
        stage: usize,
    ) -> Option<StagePlan> {
        // Stage 1 probes with the spend share; later stages may take
        // the whole remainder once selectivities are observed (unless
        // in probing mode).
        let share = if stage <= 1 || !self.commit_after_first {
            self.spend_share
        } else {
            1.0
        };
        let target = remaining.as_secs_f64() * share / self.safety;
        let policy = SelPolicy::Mean;
        let plan = to_plan(solve_fraction(trees, model, &policy, target))?;
        // A stage that cannot fit in the *remaining* quota even at the
        // safety-deflated target is still refused by solve_fraction;
        // additionally refuse if the safety-inflated prediction would
        // overrun the true remainder.
        let inflated = plan.predicted.as_secs_f64() * self.safety;
        if inflated > remaining.as_secs_f64() {
            return None;
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ops::StageEnv;
    use eram_relalg::{Catalog, CmpOp, Expr, Predicate};
    use eram_storage::Rng;
    use eram_storage::{ColumnType, DeviceProfile, Disk, HeapFile, Schema, SimClock, Tuple, Value};
    use std::sync::Arc;

    fn setup() -> (Arc<Disk>, Catalog) {
        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            13,
        );
        let mut cat = Catalog::new();
        let schema =
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
        let hf = HeapFile::load(
            disk.clone(),
            schema,
            (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
        )
        .unwrap();
        cat.register("r", hf);
        (disk, cat)
    }

    fn select_tree(disk: &Arc<Disk>, cat: &Catalog) -> PhysTree {
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let cfg = EngineConfig::default();
        PhysTree::build(&expr, cat, disk, &cfg, &mut Rng::seed_from_u64(17)).unwrap()
    }

    #[test]
    fn one_at_a_time_respects_remaining_quota() {
        let (disk, cat) = setup();
        let trees = [select_tree(&disk, &cat)];
        let model = CostModel::generic_default();
        let s = OneAtATimeInterval::new(0.0);
        let plan = s
            .plan_stage(&trees, &model, Duration::from_secs(10), 1)
            .unwrap();
        assert!(plan.fraction > 0.0 && plan.fraction <= 1.0);
        assert!(plan.predicted <= Duration::from_secs(10));
        assert!(plan.predicted >= Duration::from_secs(8), "uses most of it");
    }

    /// `d_β` reaches every root the engine builds: after one observed
    /// stage, an inflated selectivity shrinks stage 2 of a selection,
    /// an intersection and a join alike.
    #[test]
    fn higher_d_beta_means_smaller_stage() {
        let (disk, cat) = setup();
        let r = || Expr::relation("r");
        for expr in [
            r().select(Predicate::col_cmp(1, CmpOp::Lt, 5)),
            r().intersect(r()),
            r().join(r(), vec![(1, 1)]),
        ] {
            let cfg = EngineConfig::default();
            let mut tree =
                PhysTree::build(&expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(17)).unwrap();
            // Observe some data so inflation differs from the mean.
            let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.005);
            tree.advance(&mut env).unwrap();
            let trees = [tree];
            let model = CostModel::generic_default();
            let fraction = |d_beta: f64| {
                OneAtATimeInterval::new(d_beta)
                    .plan_stage(&trees, &model, Duration::from_secs(60), 2)
                    .unwrap_or_else(|| panic!("{expr}: no stage 2 at d_beta {d_beta}"))
                    .fraction
            };
            let (f0, f48) = (fraction(0.0), fraction(48.0));
            assert!(
                f48 < f0,
                "{expr}: inflated selectivity must shrink the stage: {f48} vs {f0}"
            );
        }
    }

    #[test]
    fn all_strategies_refuse_tiny_quota() {
        let (disk, cat) = setup();
        let trees = [select_tree(&disk, &cat)];
        let model = CostModel::generic_default();
        let tiny = Duration::from_micros(10);
        assert!(OneAtATimeInterval::new(12.0)
            .plan_stage(&trees, &model, tiny, 1)
            .is_none());
        assert!(SingleInterval::new(2.0)
            .plan_stage(&trees, &model, tiny, 1)
            .is_none());
        assert!(HeuristicStrategy::default()
            .plan_stage(&trees, &model, tiny, 1)
            .is_none());
    }

    #[test]
    fn single_interval_reserves_headroom() {
        let (disk, cat) = setup();
        let mut tree = select_tree(&disk, &cat);
        let cfg = EngineConfig::default();
        let mut env = StageEnv::new(disk.clone(), &cfg, None, 0.005);
        tree.advance(&mut env).unwrap();
        let trees = [tree];
        let model = CostModel::generic_default();
        let no_reserve = SingleInterval::new(0.0)
            .plan_stage(&trees, &model, Duration::from_secs(5), 2)
            .unwrap();
        let reserve = SingleInterval::new(10.0)
            .plan_stage(&trees, &model, Duration::from_secs(5), 2)
            .unwrap();
        assert!(
            reserve.fraction <= no_reserve.fraction,
            "reserving variance headroom cannot enlarge the stage"
        );
    }

    #[test]
    fn heuristic_probes_then_commits() {
        let (disk, cat) = setup();
        let trees = [select_tree(&disk, &cat)];
        let model = CostModel::generic_default();
        let h = HeuristicStrategy::new(0.25, 1.5);
        let first = h
            .plan_stage(&trees, &model, Duration::from_secs(10), 1)
            .unwrap();
        // Stage 1 spends ≈ 10·0.25/1.5 ≈ 1.7 s, far below the quota.
        assert!(first.predicted < Duration::from_secs(3));
        let later = h
            .plan_stage(&trees, &model, Duration::from_secs(10), 2)
            .unwrap();
        assert!(later.predicted > first.predicted);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(
            OneAtATimeInterval::default().name(),
            "one-at-a-time-interval"
        );
        assert_eq!(SingleInterval::default().name(), "single-interval");
        assert_eq!(HeuristicStrategy::default().name(), "heuristic");
    }
}
