//! Point-space COUNT estimators.
//!
//! For a Select–Join–Intersect expression `E` with operand relations
//! `r₁,…,rₙ`, `COUNT(E)` equals the number of 1-valued points in the
//! n-dimensional point space. [HoOT 88] estimates it two ways:
//!
//! * **Simple random sampling of points**: `û(E) = N·(y/m)` where `N`
//!   is the point-space size, `m` the sampled points and `y` the
//!   sampled 1-points.
//! * **Cluster sampling of space blocks**: `Ŷᵦ(E) = B·(Σᵢ yᵢ / b)`
//!   where `B` is the number of space blocks (one disk block per
//!   relation), `b` the sampled space blocks and `yᵢ` the 1-points in
//!   the i-th sampled space block.
//!
//! [`PointSpaceAccumulator`] accumulates the per-space-block tallies
//! the evaluator produces stage by stage and exposes both estimators
//! with their variances.

use eram_storage::json_record;

use crate::algebra::{AggregateEstimator, ClusterCount, SrsCount};
use crate::stats::{normal_quantile, RunningMoments};

/// A point estimate of `COUNT(E)` with an attached variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountEstimate {
    /// The estimated count.
    pub estimate: f64,
    /// The estimated variance of the estimator.
    pub variance: f64,
    /// Points sampled so far (`m`).
    pub points_sampled: f64,
    /// Point-space size (`N`).
    pub total_points: f64,
}

json_record!(CountEstimate {
    estimate: required,
    variance: required,
    points_sampled: required,
    total_points: required,
});

impl CountEstimate {
    /// Standard error of the estimate.
    pub fn std_error(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Two-sided normal-theory confidence interval at `confidence`
    /// (e.g. `0.95`), clamped to `[0, N]`.
    ///
    /// # Panics
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn ci(&self, confidence: f64) -> (f64, f64) {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        let z = normal_quantile(0.5 + confidence / 2.0);
        let half = z * self.std_error();
        (
            (self.estimate - half).max(0.0),
            (self.estimate + half).min(self.total_points),
        )
    }

    /// Half-width of the CI divided by the estimate; `f64::INFINITY`
    /// when the estimate is 0 (used by error-constrained stopping).
    pub fn relative_half_width(&self, confidence: f64) -> f64 {
        let (lo, hi) = self.ci(confidence);
        if self.estimate <= 0.0 {
            f64::INFINITY
        } else {
            (hi - lo) / 2.0 / self.estimate
        }
    }

    /// Fraction of the point space inspected.
    pub fn sampling_fraction(&self) -> f64 {
        if self.total_points <= 0.0 {
            1.0
        } else {
            self.points_sampled / self.total_points
        }
    }
}

/// Accumulates sampled space blocks of one point space.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpaceAccumulator {
    total_points: f64,
    total_space_blocks: f64,
    points_seen: f64,
    ones_seen: f64,
    space_blocks_seen: f64,
    block_ones: RunningMoments,
}

impl PointSpaceAccumulator {
    /// Creates an accumulator for a point space of `total_points`
    /// points organized into `total_space_blocks` space blocks.
    pub fn new(total_points: f64, total_space_blocks: f64) -> Self {
        assert!(total_points >= 0.0 && total_space_blocks >= 0.0);
        PointSpaceAccumulator {
            total_points,
            total_space_blocks,
            points_seen: 0.0,
            ones_seen: 0.0,
            space_blocks_seen: 0.0,
            block_ones: RunningMoments::new(),
        }
    }

    /// Records one evaluated space block containing `points` points of
    /// which `ones` produced output tuples.
    pub fn record_space_block(&mut self, points: f64, ones: f64) {
        debug_assert!(ones <= points, "more ones than points in a block");
        self.points_seen += points;
        self.ones_seen += ones;
        self.space_blocks_seen += 1.0;
        self.block_ones.push(ones);
    }

    /// Point-space size `N`.
    pub fn total_points(&self) -> f64 {
        self.total_points
    }

    /// Space blocks in the whole point space, `B`.
    pub fn total_space_blocks(&self) -> f64 {
        self.total_space_blocks
    }

    /// Points sampled so far, `m`.
    pub fn points_seen(&self) -> f64 {
        self.points_seen
    }

    /// 1-points found so far, `y`.
    pub fn ones_seen(&self) -> f64 {
        self.ones_seen
    }

    /// Space blocks evaluated so far, `b`.
    pub fn space_blocks_seen(&self) -> f64 {
        self.space_blocks_seen
    }

    /// The sample selectivity `y/m` (0 before any point is seen).
    pub fn selectivity(&self) -> f64 {
        if self.points_seen <= 0.0 {
            0.0
        } else {
            self.ones_seen / self.points_seen
        }
    }

    /// The SRS-of-points estimator `û = N·(y/m)` with the
    /// without-replacement proportion variance (an
    /// [`SrsCount`] instance of the estimator algebra).
    pub fn estimate_srs(&self) -> CountEstimate {
        SrsCount {
            total_points: self.total_points,
            points_sampled: self.points_seen,
            ones: self.ones_seen,
        }
        .snapshot()
    }

    /// The cluster estimator `Ŷᵦ = B·(Σyᵢ/b)` with the standard
    /// one-stage cluster-total variance
    /// `B²·(1−b/B)·s²_y/b`, `s²_y` the sample variance of block
    /// totals (a [`ClusterCount`] instance of the estimator algebra).
    pub fn estimate_cluster(&self) -> CountEstimate {
        ClusterCount {
            total_space_blocks: self.total_space_blocks,
            blocks_seen: self.space_blocks_seen,
            block_ones: &self.block_ones,
            total_points: self.total_points,
            points_seen: self.points_seen,
        }
        .snapshot()
    }

    /// The estimator the prototype reports: cluster when at least two
    /// space blocks have been evaluated (its variance needs a sample
    /// variance), SRS-of-points otherwise.
    pub fn estimate(&self) -> CountEstimate {
        if self.space_blocks_seen >= 2.0 {
            self.estimate_cluster()
        } else {
            self.estimate_srs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srs::sample_without_replacement;
    use eram_storage::Rng;

    #[test]
    fn srs_estimator_formula() {
        let mut acc = PointSpaceAccumulator::new(10_000.0, 2_000.0);
        acc.record_space_block(5.0, 2.0);
        acc.record_space_block(5.0, 1.0);
        // y/m = 3/10 → û = 3000.
        let e = acc.estimate_srs();
        assert!((e.estimate - 3_000.0).abs() < 1e-9);
        assert!(e.variance > 0.0);
        assert!((acc.selectivity() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn cluster_estimator_formula() {
        let mut acc = PointSpaceAccumulator::new(10_000.0, 2_000.0);
        for &ones in &[2.0, 1.0, 0.0, 3.0] {
            acc.record_space_block(5.0, ones);
        }
        // mean block total = 1.5 → Ŷ = 2000·1.5 = 3000.
        let e = acc.estimate_cluster();
        assert!((e.estimate - 3_000.0).abs() < 1e-9);
        assert!(e.variance > 0.0);
        assert_eq!(acc.space_blocks_seen(), 4.0);
    }

    #[test]
    fn default_estimator_switches_to_cluster() {
        let mut acc = PointSpaceAccumulator::new(100.0, 20.0);
        acc.record_space_block(5.0, 1.0);
        assert_eq!(acc.estimate(), acc.estimate_srs());
        acc.record_space_block(5.0, 3.0);
        assert_eq!(acc.estimate(), acc.estimate_cluster());
    }

    #[test]
    fn empty_accumulator_is_degenerate() {
        let acc = PointSpaceAccumulator::new(100.0, 20.0);
        assert_eq!(acc.selectivity(), 0.0);
        assert_eq!(acc.estimate_srs().estimate, 0.0);
        assert_eq!(acc.estimate_cluster().estimate, 0.0);
        assert_eq!(acc.estimate().variance, 0.0);
    }

    #[test]
    fn census_has_zero_variance() {
        let mut acc = PointSpaceAccumulator::new(10.0, 2.0);
        acc.record_space_block(5.0, 2.0);
        acc.record_space_block(5.0, 1.0);
        let e = acc.estimate_cluster();
        assert!((e.estimate - 3.0).abs() < 1e-9);
        assert_eq!(e.variance, 0.0);
        assert_eq!(acc.estimate_srs().variance, 0.0);
    }

    #[test]
    fn confidence_interval_brackets_estimate() {
        let mut acc = PointSpaceAccumulator::new(10_000.0, 2_000.0);
        for i in 0..40 {
            acc.record_space_block(5.0, f64::from(i % 3));
        }
        let e = acc.estimate();
        let (lo, hi) = e.ci(0.95);
        assert!(lo <= e.estimate && e.estimate <= hi);
        let (lo90, hi90) = e.ci(0.90);
        assert!(hi90 - lo90 < hi - lo, "narrower interval at lower level");
        assert!(e.relative_half_width(0.95) > 0.0);
        assert!((e.sampling_fraction() - 200.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn srs_estimator_is_unbiased_monte_carlo() {
        // Point space of 500 points, 120 ones. Sample 50 points per
        // trial; the mean of û should approach 120.
        let n = 500u64;
        let ones = 120u64;
        let m = 50u64;
        let mut rng = Rng::seed_from_u64(21);
        let mut mean = RunningMoments::new();
        for _ in 0..4_000 {
            let sample = sample_without_replacement(n, m, &mut rng);
            let y = sample.iter().filter(|&&x| x < ones).count() as f64;
            let mut acc = PointSpaceAccumulator::new(n as f64, 100.0);
            acc.record_space_block(m as f64, y);
            mean.push(acc.estimate_srs().estimate);
        }
        assert!(
            (mean.mean() - ones as f64).abs() < 2.0,
            "mean estimate {} vs true {}",
            mean.mean(),
            ones
        );
    }

    #[test]
    fn cluster_estimator_is_unbiased_monte_carlo() {
        // 40 blocks of 5 points; block i has (i % 4) ones. Sample 10
        // blocks per trial.
        let block_ones: Vec<f64> = (0..40).map(|i| f64::from(i % 4)).collect();
        let truth: f64 = block_ones.iter().sum();
        let mut rng = Rng::seed_from_u64(33);
        let mut mean = RunningMoments::new();
        for _ in 0..4_000 {
            let picks = sample_without_replacement(40, 10, &mut rng);
            let mut acc = PointSpaceAccumulator::new(200.0, 40.0);
            for &b in &picks {
                acc.record_space_block(5.0, block_ones[b as usize]);
            }
            mean.push(acc.estimate_cluster().estimate);
        }
        assert!(
            (mean.mean() - truth).abs() < 0.02 * truth,
            "mean estimate {} vs true {truth}",
            mean.mean()
        );
    }

    #[test]
    fn ci_coverage_is_near_nominal() {
        // Coverage of the 90% cluster CI should be near 0.9.
        let block_ones: Vec<f64> = (0..100).map(|i| f64::from((i * 7) % 5)).collect();
        let truth: f64 = block_ones.iter().sum();
        let mut rng = Rng::seed_from_u64(55);
        let trials = 3_000;
        let mut covered = 0u32;
        for _ in 0..trials {
            let picks = sample_without_replacement(100, 30, &mut rng);
            let mut acc = PointSpaceAccumulator::new(500.0, 100.0);
            for &b in &picks {
                acc.record_space_block(5.0, block_ones[b as usize]);
            }
            let (lo, hi) = acc.estimate_cluster().ci(0.90);
            if lo <= truth && truth <= hi {
                covered += 1;
            }
        }
        let coverage = f64::from(covered) / f64::from(trials);
        assert!(
            (coverage - 0.90).abs() < 0.04,
            "coverage {coverage} far from nominal 0.90"
        );
    }
}
