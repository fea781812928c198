//! Simple random sampling without replacement.
//!
//! "Simple random sampling is a method of selecting m elements out of
//! N such that each one of the possible samples that contain m
//! elements has an equal chance of being selected. Since a unit that
//! is already selected is removed from the population for all
//! subsequent draws, this method is also called random sampling
//! *without* replacement."

use std::collections::HashSet;

use eram_storage::Rng;

/// Draws `m` distinct indices uniformly from `0..n` (Floyd's
/// algorithm: O(m) expected time, O(m) space).
///
/// # Panics
/// Panics if `m > n`.
pub fn sample_without_replacement(n: u64, m: u64, rng: &mut Rng) -> Vec<u64> {
    assert!(m <= n, "cannot draw {m} of {n} without replacement");
    let mut chosen: HashSet<u64> = HashSet::with_capacity(usize::try_from(m).expect("fits"));
    let mut out = Vec::with_capacity(usize::try_from(m).expect("fits"));
    for j in (n - m)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

/// Variance of a sample proportion under SRS without replacement
/// (Cochran 1977): for a population of `n` points with true
/// proportion `s`, a sample of `m` points has
/// `Var(ŝ) = s(1−s)(n−m) / (m(n−1))`.
///
/// This is the approximation the paper plugs into equation (3.3):
/// "we have chosen to use the variance formula for simple random
/// sampling (without replacement of points) as an approximation to
/// `Var(selᵢ)`" — with the sampled selectivity standing in for `s`.
///
/// Returns 0 for degenerate inputs (`m = 0`, `n ≤ 1`, or `m ≥ n`,
/// where a census has no sampling error).
pub fn srs_proportion_variance(s: f64, n: f64, m: f64) -> f64 {
    if m <= 0.0 || n <= 1.0 || m >= n {
        return 0.0;
    }
    let s = s.clamp(0.0, 1.0);
    s * (1.0 - s) * (n - m) / (m * (n - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::Rng;
    use std::collections::HashMap;

    #[test]
    fn draws_are_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(9);
        for &(n, m) in &[(10u64, 10u64), (100, 7), (1, 1), (5, 0), (1000, 999)] {
            let s = sample_without_replacement(n, m, &mut rng);
            assert_eq!(s.len() as u64, m);
            let set: HashSet<u64> = s.iter().copied().collect();
            assert_eq!(set.len() as u64, m, "duplicates for n={n} m={m}");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn full_draw_is_permutation_of_population() {
        let mut rng = Rng::seed_from_u64(3);
        let mut s = sample_without_replacement(20, 20, &mut rng);
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn oversized_draw_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = sample_without_replacement(3, 4, &mut rng);
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // Each of 10 items should appear in a 3-of-10 sample with
        // probability 3/10.
        let mut rng = Rng::seed_from_u64(1234);
        let trials = 30_000;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..trials {
            for x in sample_without_replacement(10, 3, &mut rng) {
                *counts.entry(x).or_default() += 1;
            }
        }
        for x in 0..10 {
            let p = *counts.get(&x).unwrap_or(&0) as f64 / trials as f64;
            assert!((p - 0.3).abs() < 0.02, "item {x}: p={p}");
        }
    }

    #[test]
    fn variance_formula_matches_census_and_degenerate_cases() {
        assert_eq!(srs_proportion_variance(0.5, 100.0, 100.0), 0.0);
        assert_eq!(srs_proportion_variance(0.5, 100.0, 0.0), 0.0);
        assert_eq!(srs_proportion_variance(0.5, 1.0, 1.0), 0.0);
        // Known value: s=0.5, n=100, m=10 → 0.25*90/(10*99).
        let v = srs_proportion_variance(0.5, 100.0, 10.0);
        assert!((v - 0.25 * 90.0 / 990.0).abs() < 1e-12);
    }

    #[test]
    fn variance_formula_matches_monte_carlo() {
        // Population of 200 points, 60 ones. Sample 40 without
        // replacement; empirical Var(ŝ) should match the formula.
        let n = 200u64;
        let ones = 60u64;
        let m = 40u64;
        let mut rng = Rng::seed_from_u64(77);
        let mut moments = crate::stats::RunningMoments::new();
        for _ in 0..20_000 {
            let sample = sample_without_replacement(n, m, &mut rng);
            let y = sample.iter().filter(|&&x| x < ones).count() as f64;
            moments.push(y / m as f64);
        }
        let s = ones as f64 / n as f64;
        let expected = srs_proportion_variance(s, n as f64, m as f64);
        let observed = moments.variance();
        assert!(
            (observed - expected).abs() < 0.15 * expected,
            "observed {observed} vs expected {expected}"
        );
    }
}
