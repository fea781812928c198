//! Run-time selectivity estimation (Section 3.1, Figures 3.3 & 3.5).
//!
//! "The approach we use in this paper is to directly estimate and
//! improve sample selectivities at each stage. We call this the
//! run-time estimation approach. ... For the first stage, we assume a
//! reasonably large selectivity for each operation."
//!
//! One [`SelTracker`] per operator node accumulates, stage by stage,
//! the operator's output-tuple and sampled-point counts, providing:
//!
//! * `selᵢ₋₁` — the revised selectivity from all previous stages
//!   (Figure 3.3: the stage-1 value is the assumed maximum; later
//!   `Σⱼ tuplesⱼ / Σⱼ pointsⱼ`);
//! * `sel⁺` — the inflated selectivity of equation (3.3),
//!   `sel⁺ = μ̂ + d_β·√(V̂ar)`, with the simple-random-sampling
//!   variance approximation of Figure 3.5 (the paper explicitly
//!   trades the exact cluster-variance computation away: "sorting and
//!   computation of the formula are too expensive");
//! * the **zero-selectivity correction** of Section 3.4: a sampled
//!   selectivity of exactly 0 has zero estimated variance and would
//!   freeze `sel⁺` at 0, overspending the quota as soon as any output
//!   appears — so a combinatorial floor replaces it.

use eram_relalg::OpKind;
use eram_sampling::{srs_proportion_variance, zero_selectivity_closed};

/// Tracks one operator's sample selectivity across stages.
#[derive(Debug, Clone)]
pub struct SelTracker {
    kind: OpKind,
    /// Assumed selectivity before any sample exists (Figure 3.3).
    initial: f64,
    /// Size of the operator's point space (`N` in Figure 3.5).
    total_points: f64,
    /// `Σⱼ tuplesⱼ` — output tuples over all stages so far.
    cum_tuples: f64,
    /// `Σⱼ pointsⱼ` — sampled points over all stages so far.
    cum_points: f64,
}

/// Confidence of the zero-selectivity floor: a median-level
/// combinatorial bound (Section 3.4).
const ZERO_SEL_CONFIDENCE: f64 = 0.50;

impl SelTracker {
    /// Creates a tracker with the Figure 3.3 first-stage assumption:
    /// selectivity 1 for Select/Project/Join, `1/max(|r₁|,|r₂|)` for
    /// Intersect.
    pub fn new(kind: OpKind, total_points: f64, max_operand_tuples: f64) -> Self {
        let initial = match kind {
            OpKind::Intersect if max_operand_tuples > 0.0 => 1.0 / max_operand_tuples,
            _ => 1.0,
        };
        SelTracker {
            kind,
            initial,
            total_points,
            cum_tuples: 0.0,
            cum_points: 0.0,
        }
    }

    /// Overrides the first-stage assumed selectivity (the paper's
    /// join experiment "assumed a selectivity of 0.1 at the beginning"
    /// because an assumed 1 made the first sample unmeasurably small).
    pub fn with_initial(mut self, initial: f64) -> Self {
        assert!(initial > 0.0 && initial <= 1.0, "initial sel in (0,1]");
        self.initial = initial;
        self
    }

    /// The operator kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Records one stage's observation: `tuples` output tuples out of
    /// `points` newly sampled points.
    pub fn record_stage(&mut self, tuples: f64, points: f64) {
        debug_assert!(tuples >= 0.0 && points >= 0.0);
        self.cum_tuples += tuples;
        self.cum_points += points;
    }

    /// Points sampled so far in this operator's point space.
    pub fn points_sampled(&self) -> f64 {
        self.cum_points
    }

    /// `selᵢ₋₁`: the Figure 3.3 revision — the assumed maximum before
    /// any sample, the cumulative ratio afterwards, with the
    /// zero-selectivity floor applied when the ratio is 0.
    pub fn revised_selectivity(&self) -> f64 {
        if self.cum_points <= 0.0 {
            return self.initial;
        }
        let sel = self.cum_tuples / self.cum_points;
        if sel > 0.0 {
            sel.min(1.0)
        } else {
            // Section 3.4: a zero sample selectivity is replaced by a
            // combinatorial upper bound so later stages stay safe.
            zero_selectivity_closed(self.cum_points, ZERO_SEL_CONFIDENCE)
        }
    }

    /// `sel⁺` of equation (3.3) for a *candidate* stage that would
    /// sample `stage_points` new points: inflate the revised
    /// selectivity by `d_β` standard errors of the stage-i sample
    /// selectivity, estimated with the SRS variance over the
    /// not-yet-sampled remainder (Figure 3.5), and clamp to 1.
    pub fn inflated_selectivity(&self, d_beta: f64, stage_points: f64) -> f64 {
        let mu = self.revised_selectivity();
        if d_beta == 0.0 {
            return mu;
        }
        let remaining = (self.total_points - self.cum_points).max(0.0);
        let var = srs_proportion_variance(mu, remaining, stage_points.min(remaining));
        (mu + d_beta * var.sqrt()).min(1.0)
    }

    /// The variance of the stage-i sample selectivity used by the
    /// Single-Interval strategy (same Figure 3.5 approximation).
    pub fn selectivity_variance(&self, stage_points: f64) -> f64 {
        let mu = self.revised_selectivity();
        let remaining = (self.total_points - self.cum_points).max(0.0);
        srs_proportion_variance(mu, remaining, stage_points.min(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_stage_assumptions_match_figure_3_3() {
        let sel = SelTracker::new(OpKind::Select, 10_000.0, 10_000.0);
        assert_eq!(sel.revised_selectivity(), 1.0);
        let join = SelTracker::new(OpKind::Join, 1e8, 10_000.0);
        assert_eq!(join.revised_selectivity(), 1.0);
        let inter = SelTracker::new(OpKind::Intersect, 1e8, 10_000.0);
        assert!((inter.revised_selectivity() - 1e-4).abs() < 1e-12);
        let proj = SelTracker::new(OpKind::Project, 10_000.0, 10_000.0);
        assert_eq!(proj.revised_selectivity(), 1.0);
    }

    #[test]
    fn revision_uses_cumulative_ratio() {
        let mut t = SelTracker::new(OpKind::Select, 10_000.0, 10_000.0);
        t.record_stage(30.0, 100.0);
        assert!((t.revised_selectivity() - 0.3).abs() < 1e-12);
        t.record_stage(10.0, 100.0);
        // (30+10)/(100+100) = 0.2.
        assert!((t.revised_selectivity() - 0.2).abs() < 1e-12);
        assert_eq!(t.points_sampled(), 200.0);
    }

    #[test]
    fn zero_selectivity_floor_applies() {
        let mut t = SelTracker::new(OpKind::Join, 1e8, 10_000.0);
        t.record_stage(0.0, 400.0);
        let sel = t.revised_selectivity();
        assert!(sel > 0.0, "zero-sel correction must kick in");
        assert!(sel < 0.05, "floor should be small for 400 points");
        // More all-zero evidence shrinks the floor.
        t.record_stage(0.0, 4_000.0);
        assert!(t.revised_selectivity() < sel);
    }

    #[test]
    fn inflation_grows_with_d_beta_and_caps_at_one() {
        let mut t = SelTracker::new(OpKind::Select, 10_000.0, 10_000.0);
        t.record_stage(50.0, 100.0);
        let s0 = t.inflated_selectivity(0.0, 500.0);
        let s12 = t.inflated_selectivity(12.0, 500.0);
        let s72 = t.inflated_selectivity(72.0, 500.0);
        assert!((s0 - 0.5).abs() < 1e-12);
        assert!(s12 > s0);
        assert!(s72 >= s12);
        assert!(s72 <= 1.0);
    }

    #[test]
    fn larger_candidate_stage_means_less_inflation() {
        let mut t = SelTracker::new(OpKind::Select, 100_000.0, 100_000.0);
        t.record_stage(500.0, 1_000.0);
        let small = t.inflated_selectivity(12.0, 100.0);
        let large = t.inflated_selectivity(12.0, 10_000.0);
        assert!(
            large < small,
            "bigger stage sample → smaller Var(selᵢ) → less inflation"
        );
    }

    #[test]
    fn exhausted_point_space_has_no_inflation() {
        let mut t = SelTracker::new(OpKind::Select, 100.0, 100.0);
        t.record_stage(40.0, 100.0);
        assert_eq!(t.inflated_selectivity(48.0, 50.0), 0.4);
        assert_eq!(t.selectivity_variance(50.0), 0.0);
    }

    #[test]
    fn initial_override_for_join_experiment() {
        let t = SelTracker::new(OpKind::Join, 1e8, 10_000.0).with_initial(0.1);
        assert_eq!(t.revised_selectivity(), 0.1);
    }

    #[test]
    #[should_panic(expected = "initial sel")]
    fn bad_initial_rejected() {
        let _ = SelTracker::new(OpKind::Join, 1e8, 1.0).with_initial(0.0);
    }
}
