//! Stopping criteria (Section 3.2).
//!
//! "Basically, there are two types of stopping criteria. The first
//! type is concerned about the constraint of time while the other is
//! concerned about the precision of estimation." The prototype uses
//! the **hard time constraint** ("the execution is interrupted
//! whenever the time quota is consumed"); the algorithm as printed in
//! Figure 3.1 implements the **soft** variant (the in-flight stage is
//! allowed to finish). Precision-based criteria stop "whenever the
//! precision of estimation has met the user's requirement or whenever
//! the estimation does not improve much over the last few stages".
//! Combinations are possible; [`StoppingCriterion::Combined`] stops
//! as soon as *any* member fires.

use std::time::Duration;

use eram_sampling::CountEstimate;

/// When to stop the stage loop.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StoppingCriterion {
    /// Hard deadline: the timer interrupt aborts the in-flight stage
    /// at the quota; its time is wasted. The result is the estimate
    /// from the last completed stage.
    #[default]
    HardDeadline,
    /// Soft deadline: a stage in flight when the quota expires runs
    /// to completion (its result is kept), then the loop stops. This
    /// is how the paper's ERAM experiments measured overspending.
    SoftDeadline,
    /// Stop once the CI half-width falls below `target` × estimate at
    /// the given confidence level (error-constrained evaluation).
    ErrorBound {
        /// Relative half-width target, e.g. `0.05` for ±5 %.
        target: f64,
        /// Confidence level of the interval, e.g. `0.95`.
        confidence: f64,
    },
    /// Per-group precision for GROUP BY queries: a group whose CI
    /// half-width falls below `target` × estimate *freezes* (stops
    /// drawing, keeping its snapshot), and the loop stops early only
    /// once every group is frozen. Groups with fewer than
    /// `min_tuples` observations never freeze — they fall back to
    /// exact evaluation at the census. Ignored by non-grouped
    /// aggregates.
    GroupErrorBound {
        /// Relative half-width target per group, e.g. `0.1` for ±10 %.
        target: f64,
        /// Confidence level of the per-group intervals, e.g. `0.95`.
        confidence: f64,
        /// Minimum absorbed tuples before a group may freeze.
        min_tuples: u64,
    },
    /// Stop when the estimate changed by less than `epsilon`
    /// (relative) for `stages` consecutive stages.
    NoImprovement {
        /// Relative change threshold.
        epsilon: f64,
        /// Consecutive quiet stages required.
        stages: usize,
    },
    /// Soft deadline with a **value function** ([AbGM 88], the
    /// paper's "by defining a value function for the completion time
    /// of a query, the system decides when to stop processing the
    /// query to get a higher value"): the answer is worth full value
    /// until the quota, decays linearly to zero at `zero_value_at`
    /// (measured from query start), and the loop keeps running past
    /// the quota only while the next stage is expected to *increase*
    /// `value(t) × precision(estimate)`.
    ValueFunction {
        /// Time (from query start) at which the answer's value
        /// reaches zero. Must exceed the quota.
        zero_value_at: Duration,
    },
    /// Stop as soon as any member criterion fires. Exactly one
    /// time-based member (hard or soft) should be present.
    Combined(Vec<StoppingCriterion>),
}

/// The one precision gate shared by the scalar
/// [`StoppingCriterion::ErrorBound`] check and the per-group freeze in
/// [`GroupedAccumulator::check_convergence`]: an estimate has met a
/// relative-error target only when it is strictly positive and its
/// relative CI half-width is *finite* and within `target`.
///
/// A running estimate of 0 (no qualifying tuples yet, or an all-zero
/// SUM group) has a relative half-width of `f64::INFINITY`, and in
/// IEEE arithmetic `INFINITY <= INFINITY` is *true* — so a plain
/// `rel <= target` comparison freezes such a group as "converged at 0"
/// whenever the target is unbounded (e.g. a census-only
/// `min_tuples` policy). Likewise a NaN half-width (degenerate
/// stratum) must never read as satisfied. Requiring a positive
/// estimate and a finite half-width closes both holes for the scalar
/// and grouped paths at once.
///
/// [`GroupedAccumulator::check_convergence`]:
/// crate::aggregate::GroupedAccumulator::check_convergence
pub fn error_bound_satisfied(estimate: &CountEstimate, target: f64, confidence: f64) -> bool {
    if estimate.estimate <= 0.0 {
        return false;
    }
    let rel = estimate.relative_half_width(confidence);
    rel.is_finite() && rel <= target
}

impl StoppingCriterion {
    /// True if the criterion (or any member) demands the hard
    /// mid-stage abort behaviour.
    pub fn is_hard(&self) -> bool {
        match self {
            StoppingCriterion::HardDeadline => true,
            StoppingCriterion::Combined(members) => members.iter().any(Self::is_hard),
            _ => false,
        }
    }

    /// The value-function tail, if any member declares one.
    pub fn value_function(&self) -> Option<Duration> {
        match self {
            StoppingCriterion::ValueFunction { zero_value_at } => Some(*zero_value_at),
            StoppingCriterion::Combined(members) => members.iter().find_map(Self::value_function),
            _ => None,
        }
    }

    /// The per-group precision bound `(target, confidence,
    /// min_tuples)`, if any member declares one. The executor
    /// evaluates it against the [`GroupedAccumulator`] — unlike the
    /// scalar criteria it cannot be judged from the composite
    /// estimate history alone.
    ///
    /// [`GroupedAccumulator`]: crate::aggregate::GroupedAccumulator
    pub fn group_error_bound(&self) -> Option<(f64, f64, u64)> {
        match self {
            StoppingCriterion::GroupErrorBound {
                target,
                confidence,
                min_tuples,
            } => Some((*target, *confidence, *min_tuples)),
            StoppingCriterion::Combined(members) => {
                members.iter().find_map(Self::group_error_bound)
            }
            _ => None,
        }
    }

    /// The value of an answer delivered at `t` under a linear decay
    /// from full value at `quota` to zero at `zero_value_at`.
    pub fn completion_value(quota: Duration, zero_value_at: Duration, t: Duration) -> f64 {
        if t <= quota {
            return 1.0;
        }
        if t >= zero_value_at || zero_value_at <= quota {
            return 0.0;
        }
        let tail = (zero_value_at - quota).as_secs_f64();
        1.0 - (t - quota).as_secs_f64() / tail
    }

    /// Evaluates the precision-based members after a completed stage.
    /// `history` holds the estimates after each completed stage so
    /// far (most recent last). Returns true if the loop should stop
    /// even though time remains.
    pub fn precision_satisfied(&self, history: &[CountEstimate]) -> bool {
        match self {
            StoppingCriterion::HardDeadline
            | StoppingCriterion::SoftDeadline
            | StoppingCriterion::ValueFunction { .. } => false,
            // Judged by the executor against per-group state, not the
            // composite estimate history.
            StoppingCriterion::GroupErrorBound { .. } => false,
            StoppingCriterion::ErrorBound { target, confidence } => history
                .last()
                .is_some_and(|e| error_bound_satisfied(e, *target, *confidence)),
            StoppingCriterion::NoImprovement { epsilon, stages } => {
                if history.len() < stages + 1 {
                    return false;
                }
                history
                    .windows(2)
                    .rev()
                    .take(*stages)
                    .all(|w| relative_change(w[0].estimate, w[1].estimate) < *epsilon)
            }
            StoppingCriterion::Combined(members) => {
                members.iter().any(|m| m.precision_satisfied(history))
            }
        }
    }
}

fn relative_change(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(1.0);
    (b - a).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(v: f64, var: f64) -> CountEstimate {
        CountEstimate {
            estimate: v,
            variance: var,
            points_sampled: 100.0,
            total_points: 1e6,
        }
    }

    #[test]
    fn hardness_detection() {
        assert!(StoppingCriterion::HardDeadline.is_hard());
        assert!(!StoppingCriterion::SoftDeadline.is_hard());
        assert!(StoppingCriterion::Combined(vec![
            StoppingCriterion::SoftDeadline,
            StoppingCriterion::HardDeadline
        ])
        .is_hard());
        assert!(!StoppingCriterion::ErrorBound {
            target: 0.1,
            confidence: 0.95
        }
        .is_hard());
    }

    #[test]
    fn error_bound_fires_on_tight_interval() {
        let c = StoppingCriterion::ErrorBound {
            target: 0.05,
            confidence: 0.95,
        };
        // Wide interval: sd = 300 on estimate 1000 → rel half width ≈ 0.59.
        assert!(!c.precision_satisfied(&[est(1000.0, 90_000.0)]));
        // Tight: sd = 10 on 1000 → ≈ 0.0196.
        assert!(c.precision_satisfied(&[est(1000.0, 100.0)]));
        // Empty history never satisfies.
        assert!(!c.precision_satisfied(&[]));
    }

    #[test]
    fn no_improvement_requires_consecutive_quiet_stages() {
        let c = StoppingCriterion::NoImprovement {
            epsilon: 0.01,
            stages: 2,
        };
        let noisy = [est(100.0, 1.0), est(150.0, 1.0), est(150.5, 1.0)];
        assert!(!c.precision_satisfied(&noisy));
        let quiet = [
            est(100.0, 1.0),
            est(150.0, 1.0),
            est(150.1, 1.0),
            est(150.2, 1.0),
        ];
        assert!(c.precision_satisfied(&quiet));
        // Too little history.
        assert!(!c.precision_satisfied(&quiet[..2]));
    }

    #[test]
    fn combined_fires_on_any_member() {
        let c = StoppingCriterion::Combined(vec![
            StoppingCriterion::HardDeadline,
            StoppingCriterion::ErrorBound {
                target: 0.05,
                confidence: 0.95,
            },
        ]);
        assert!(c.precision_satisfied(&[est(1000.0, 100.0)]));
        assert!(!c.precision_satisfied(&[est(1000.0, 90_000.0)]));
    }

    #[test]
    fn completion_value_decays_linearly() {
        let q = Duration::from_secs(10);
        let z = Duration::from_secs(20);
        assert_eq!(
            StoppingCriterion::completion_value(q, z, Duration::from_secs(5)),
            1.0
        );
        assert_eq!(StoppingCriterion::completion_value(q, z, q), 1.0);
        let mid = StoppingCriterion::completion_value(q, z, Duration::from_secs(15));
        assert!((mid - 0.5).abs() < 1e-12);
        assert_eq!(StoppingCriterion::completion_value(q, z, z), 0.0);
        assert_eq!(
            StoppingCriterion::completion_value(q, z, Duration::from_secs(30)),
            0.0
        );
        // Degenerate tail.
        assert_eq!(
            StoppingCriterion::completion_value(q, q, Duration::from_secs(11)),
            0.0
        );
    }

    #[test]
    fn value_function_discovery() {
        let vf = StoppingCriterion::ValueFunction {
            zero_value_at: Duration::from_secs(20),
        };
        assert_eq!(vf.value_function(), Some(Duration::from_secs(20)));
        assert!(!vf.is_hard());
        let combined = StoppingCriterion::Combined(vec![
            StoppingCriterion::ErrorBound {
                target: 0.1,
                confidence: 0.95,
            },
            vf,
        ]);
        assert_eq!(combined.value_function(), Some(Duration::from_secs(20)));
        assert_eq!(StoppingCriterion::HardDeadline.value_function(), None);
    }

    #[test]
    fn group_error_bound_discovery() {
        let g = StoppingCriterion::GroupErrorBound {
            target: 0.1,
            confidence: 0.95,
            min_tuples: 8,
        };
        assert_eq!(g.group_error_bound(), Some((0.1, 0.95, 8)));
        assert!(!g.is_hard());
        // Never satisfied from the composite history — the executor
        // judges it from per-group state.
        assert!(!g.precision_satisfied(&[est(1000.0, 1.0)]));
        let combined =
            StoppingCriterion::Combined(vec![StoppingCriterion::HardDeadline, g.clone()]);
        assert!(combined.is_hard());
        assert_eq!(combined.group_error_bound(), Some((0.1, 0.95, 8)));
        assert_eq!(StoppingCriterion::HardDeadline.group_error_bound(), None);
    }

    #[test]
    fn zero_estimate_never_satisfies_error_bound() {
        let c = StoppingCriterion::ErrorBound {
            target: 0.05,
            confidence: 0.95,
        };
        assert!(!c.precision_satisfied(&[est(0.0, 0.0)]));
    }

    #[test]
    fn zero_estimate_never_satisfies_even_an_unbounded_target() {
        // `INFINITY <= INFINITY` is true in IEEE arithmetic, so
        // before the shared `error_bound_satisfied` gate an unbounded
        // target froze a zero estimate as "converged at 0".
        let c = StoppingCriterion::ErrorBound {
            target: f64::INFINITY,
            confidence: 0.95,
        };
        assert!(!c.precision_satisfied(&[est(0.0, 0.0)]));
        // A positive estimate under the same unbounded target still
        // satisfies (its half-width is finite).
        assert!(c.precision_satisfied(&[est(1000.0, 90_000.0)]));
    }

    #[test]
    fn error_bound_helper_rejects_degenerate_estimates() {
        assert!(!error_bound_satisfied(&est(0.0, 0.0), 0.5, 0.95));
        assert!(!error_bound_satisfied(&est(-3.0, 1.0), 0.5, 0.95));
        assert!(!error_bound_satisfied(&est(0.0, 0.0), f64::INFINITY, 0.95));
        // NaN target: never satisfied, rather than freezing.
        assert!(!error_bound_satisfied(&est(1000.0, 1.0), f64::NAN, 0.95));
        assert!(error_bound_satisfied(&est(1000.0, 100.0), 0.05, 0.95));
    }
}
