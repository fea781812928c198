//! Alternative distinct-count estimators.
//!
//! Goodman's estimator ([`crate::goodman`]) is the unique *unbiased*
//! estimator of the number of classes but is notoriously unstable at
//! small sampling fractions (its signed-coefficient series grows like
//! `((N−n)/n)^i`). Practical systems therefore use biased but stable
//! estimators; we provide the two classics so the engine can be
//! configured per-query:
//!
//! * [`chao1`] — Chao's (1984) lower-bound estimator
//!   `D̂ = d + f₁²/(2·f₂)`: the unseen-class mass is extrapolated from
//!   the singleton/doubleton ratio. Stable, biased low for even class
//!   sizes, asymptotically a lower bound.
//! * [`jackknife1`] — the first-order jackknife
//!   `D̂ = d + ((n−1)/n)·f₁`, finite-population-corrected by the
//!   sampling fraction: `D̂ = d + (1−q)·((n−1)/n)·f₁` with
//!   `q = n/N`, so a census estimates exactly `d`.
//!
//! Both consume the same occupancy profile Goodman does (how many
//! classes were seen exactly `i` times).

/// Occupancy frequencies from class counts: `freq[i]` = number of
/// classes seen exactly `i` times (index 0 unused).
fn frequencies(class_counts: &[u64]) -> Vec<u64> {
    let max = class_counts.iter().copied().max().unwrap_or(0);
    let mut freq = vec![0u64; usize::try_from(max).expect("fits") + 1];
    for &c in class_counts {
        freq[usize::try_from(c).expect("fits")] += 1;
    }
    freq
}

/// Chao's 1984 estimator `d + f₁²/(2·f₂)` (with the standard
/// `f₁·(f₁−1)/2` correction when no doubletons were seen), clamped to
/// the feasible range `[d, d + (N − n)]`.
pub fn chao1(population_size: f64, class_counts: &[u64]) -> f64 {
    let n: u64 = class_counts.iter().sum();
    let d = class_counts.len() as f64;
    if n == 0 {
        return 0.0;
    }
    let freq = frequencies(class_counts);
    let f1 = freq.get(1).copied().unwrap_or(0) as f64;
    let f2 = freq.get(2).copied().unwrap_or(0) as f64;
    let unseen = if f2 > 0.0 {
        f1 * f1 / (2.0 * f2)
    } else {
        f1 * (f1 - 1.0).max(0.0) / 2.0
    };
    let upper = d + (population_size - n as f64).max(0.0);
    (d + unseen).clamp(d, upper)
}

/// First-order jackknife with finite-population correction:
/// `d + (1 − n/N)·((n−1)/n)·f₁`, clamped to `[d, d + (N − n)]`.
pub fn jackknife1(population_size: f64, class_counts: &[u64]) -> f64 {
    let n: u64 = class_counts.iter().sum();
    let d = class_counts.len() as f64;
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let freq = frequencies(class_counts);
    let f1 = freq.get(1).copied().unwrap_or(0) as f64;
    let q = if population_size > 0.0 {
        (nf / population_size).min(1.0)
    } else {
        1.0
    };
    let upper = d + (population_size - nf).max(0.0);
    (d + (1.0 - q) * ((nf - 1.0) / nf) * f1).clamp(d, upper)
}

/// Which distinct-count estimator a projection root should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistinctEstimator {
    /// Goodman's unbiased estimator (the paper's choice) — exact in
    /// expectation, high variance at small fractions.
    Goodman,
    /// Chao's lower-bound estimator — stable, biased low.
    Chao1,
    /// First-order jackknife with finite-population correction —
    /// stable, moderate bias. The default: closest to how later AQP
    /// systems ship.
    #[default]
    Jackknife1,
}

impl DistinctEstimator {
    /// Applies the chosen estimator to a sample occupancy profile.
    pub fn estimate(self, population_size: f64, class_counts: &[u64]) -> f64 {
        match self {
            DistinctEstimator::Goodman => {
                crate::goodman::goodman_estimate(population_size, class_counts)
            }
            DistinctEstimator::Chao1 => chao1(population_size, class_counts),
            DistinctEstimator::Jackknife1 => jackknife1(population_size, class_counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srs::sample_without_replacement;
    use crate::stats::RunningMoments;
    use eram_storage::Rng;
    use std::collections::HashMap;

    fn occupancies(classes: &[u64], sample: &[u64]) -> Vec<u64> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &i in sample {
            *counts.entry(classes[i as usize]).or_default() += 1;
        }
        counts.into_values().collect()
    }

    /// Monte-Carlo root-mean-square error of an estimator on a given
    /// class structure.
    fn rmse(
        est: DistinctEstimator,
        classes: &[u64],
        truth: f64,
        n: u64,
        trials: u64,
        seed: u64,
    ) -> f64 {
        let big_n = classes.len() as u64;
        let mut rng = Rng::seed_from_u64(seed);
        let mut acc = RunningMoments::new();
        for _ in 0..trials {
            let s = sample_without_replacement(big_n, n, &mut rng);
            let occ = occupancies(classes, &s);
            let e = est.estimate(big_n as f64, &occ);
            acc.push((e - truth) * (e - truth));
        }
        acc.mean().sqrt()
    }

    #[test]
    fn census_recovers_exact_for_all() {
        // 12 elements in 4 classes of 3; a full sample must give 4.
        let counts = [3u64, 3, 3, 3];
        for est in [
            DistinctEstimator::Goodman,
            DistinctEstimator::Chao1,
            DistinctEstimator::Jackknife1,
        ] {
            assert_eq!(est.estimate(12.0, &counts), 4.0, "{est:?}");
        }
    }

    #[test]
    fn empty_sample_gives_zero() {
        for est in [
            DistinctEstimator::Goodman,
            DistinctEstimator::Chao1,
            DistinctEstimator::Jackknife1,
        ] {
            assert_eq!(est.estimate(100.0, &[]), 0.0);
        }
    }

    #[test]
    fn all_estimates_stay_in_feasible_range() {
        let classes: Vec<u64> = (0..200u64).map(|i| i % 23).collect();
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..300 {
            let s = sample_without_replacement(200, 30, &mut rng);
            let occ = occupancies(&classes, &s);
            let d = occ.len() as f64;
            for est in [
                DistinctEstimator::Goodman,
                DistinctEstimator::Chao1,
                DistinctEstimator::Jackknife1,
            ] {
                let e = est.estimate(200.0, &occ);
                assert!(e >= d && e <= d + 170.0, "{est:?}: {e} vs d={d}");
            }
        }
    }

    #[test]
    fn stable_estimators_beat_goodman_at_small_fractions() {
        // 1000 elements, 100 classes of 10; sample 5 % — Goodman's
        // known blow-up regime.
        let classes: Vec<u64> = (0..1_000u64).map(|i| i / 10).collect();
        let g = rmse(DistinctEstimator::Goodman, &classes, 100.0, 50, 400, 11);
        let c = rmse(DistinctEstimator::Chao1, &classes, 100.0, 50, 400, 11);
        let j = rmse(DistinctEstimator::Jackknife1, &classes, 100.0, 50, 400, 11);
        assert!(
            c < g && j < g,
            "stable estimators must have lower RMSE: goodman {g:.1}, chao {c:.1}, jk {j:.1}"
        );
    }

    #[test]
    fn jackknife_shrinks_correction_as_sample_grows() {
        // With a near-census sample the FPC kills the f1 correction.
        let classes: Vec<u64> = (0..100u64).map(|i| i % 40).collect();
        let mut rng = Rng::seed_from_u64(8);
        let s95 = sample_without_replacement(100, 95, &mut rng);
        let occ = occupancies(&classes, &s95);
        let d = occ.len() as f64;
        let e = jackknife1(100.0, &occ);
        assert!(
            e - d <= 5.0,
            "correction must be small near census: {e} vs {d}"
        );
    }

    #[test]
    fn chao_handles_no_doubletons() {
        // All singletons, no f2: uses f1(f1−1)/2 fallback.
        let occ = [1u64, 1, 1, 1];
        let e = chao1(100.0, &occ);
        assert!((4.0..=100.0).contains(&e));
        assert_eq!(e, (4.0 + 6.0f64).min(100.0)); // d + 4·3/2
    }

    #[test]
    fn jackknife_is_less_biased_than_raw_d() {
        // Ensemble mean of jackknife1 should land nearer the truth
        // than the naive "classes seen" count.
        let classes: Vec<u64> = (0..500u64).map(|i| i % 120).collect();
        let mut rng = Rng::seed_from_u64(15);
        let mut mean_jk = RunningMoments::new();
        let mut mean_d = RunningMoments::new();
        for _ in 0..500 {
            let s = sample_without_replacement(500, 100, &mut rng);
            let occ = occupancies(&classes, &s);
            mean_jk.push(jackknife1(500.0, &occ));
            mean_d.push(occ.len() as f64);
        }
        let bias_jk = (mean_jk.mean() - 120.0).abs();
        let bias_d = (mean_d.mean() - 120.0).abs();
        assert!(
            bias_jk < bias_d,
            "jackknife bias {bias_jk:.1} vs naive {bias_d:.1}"
        );
    }
}
