//! Goodman's estimator of the number of classes.
//!
//! "A set of tuples which have the same values for the projected
//! attributes become a single tuple. For a Select-Join-Intersect-
//! Project expression E, computing COUNT(E) is equivalent to counting
//! the number of different groups ... Goodman's estimator, based on
//! the occupancies of groups in the sample, is proposed in [HoOT 88]
//! for estimating COUNT(E)." (Goodman, *Ann. Math. Stat.* 20, 1949.)
//!
//! For a simple random sample of `n` from a population of `N`
//! partitioned into classes, with `fᵢ` = number of classes observed
//! exactly `i` times and `d = Σfᵢ` distinct classes observed:
//!
//! ```text
//! D̂ = d + Σ_{i≥1} (−1)^{i+1} · Aᵢ · fᵢ,
//! Aᵢ = Π_{j=0}^{i−1} (N−n+j)/(n−j)
//! ```
//!
//! `D̂` is the unique unbiased estimator of the number of classes when
//! `n` is at least the largest class multiplicity; it is famously
//! high-variance at small sampling fractions (Goodman himself warned
//! about this), which is why the paper pairs it with iterative
//! refinement. [`goodman_estimate`] clamps the raw value to the
//! feasible range `[d, N − n + d]`.

/// Raw (unclamped, unbiased) Goodman estimate from the sample class
/// occupancies. `class_counts[k]` is how many times the k-th distinct
/// observed class occurred in the sample; `population_size` is `N`.
///
/// # Panics
/// Panics if the occupancies sum to more than `population_size`.
pub fn goodman_raw(population_size: f64, class_counts: &[u64]) -> f64 {
    let n: u64 = class_counts.iter().sum();
    assert!(
        (n as f64) <= population_size,
        "sample larger than population"
    );
    let d = class_counts.len() as f64;
    if n == 0 {
        return 0.0;
    }

    // Occupancy frequencies f_i.
    let max_occ = class_counts.iter().copied().max().unwrap_or(0);
    let mut freq = vec![0u64; usize::try_from(max_occ).expect("fits") + 1];
    for &c in class_counts {
        freq[usize::try_from(c).expect("fits")] += 1;
    }

    let nf = n as f64;
    let big_n = population_size;
    let mut correction = 0.0;
    let mut a_i = 1.0;
    for i in 1..=max_occ {
        let j = (i - 1) as f64;
        a_i *= (big_n - nf + j) / (nf - j);
        let f_i = freq[usize::try_from(i).expect("fits")] as f64;
        if f_i > 0.0 {
            let sign = if i % 2 == 1 { 1.0 } else { -1.0 };
            correction += sign * a_i * f_i;
        }
    }
    d + correction
}

/// Goodman estimate clamped to the feasible range: at least the `d`
/// classes already observed, at most `d` plus the unobserved
/// population remainder.
pub fn goodman_estimate(population_size: f64, class_counts: &[u64]) -> f64 {
    let n: u64 = class_counts.iter().sum();
    let d = class_counts.len() as f64;
    let upper = d + (population_size - n as f64).max(0.0);
    goodman_raw(population_size, class_counts).clamp(d, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srs::sample_without_replacement;
    use crate::stats::RunningMoments;
    use eram_storage::Rng;
    use std::collections::HashMap;

    /// Occupancy vector of a sample of indices given the class of
    /// each population element.
    fn occupancies(classes: &[u64], sample: &[u64]) -> Vec<u64> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &i in sample {
            *counts.entry(classes[i as usize]).or_default() += 1;
        }
        counts.into_values().collect()
    }

    #[test]
    fn census_recovers_exact_class_count() {
        // Population of 6 in 3 classes, full sample.
        let counts = [3u64, 2, 1];
        assert_eq!(goodman_raw(6.0, &counts), 3.0);
        assert_eq!(goodman_estimate(6.0, &counts), 3.0);
    }

    #[test]
    fn textbook_three_element_case() {
        // Population {a,a,b}, n=2. Sample {a,a}: d=1, f_2=1,
        // A_2 = (1/2)(2/1) = 1 → raw = 0. Sample {a,b}: d=2, f_1=2,
        // A_1 = 1/2 → raw = 3. Expectation = (1/3)·0 + (2/3)·3 = 2 = D.
        assert_eq!(goodman_raw(3.0, &[2]), 0.0);
        assert_eq!(goodman_raw(3.0, &[1, 1]), 3.0);
    }

    #[test]
    fn empty_sample_estimates_zero() {
        assert_eq!(goodman_raw(10.0, &[]), 0.0);
        assert_eq!(goodman_estimate(10.0, &[]), 0.0);
    }

    #[test]
    fn clamping_respects_feasible_range() {
        // Raw estimate of the {a,a} sample is 0, below d=1.
        assert_eq!(goodman_estimate(3.0, &[2]), 1.0);
    }

    #[test]
    #[should_panic(expected = "sample larger than population")]
    fn oversample_rejected() {
        let _ = goodman_raw(2.0, &[2, 1]);
    }

    #[test]
    fn unbiased_when_sample_covers_max_multiplicity() {
        // 60 elements in 20 classes of size 3; sample n=20 ≥ 3.
        let classes: Vec<u64> = (0..60u64).map(|i| i / 3).collect();
        let mut rng = Rng::seed_from_u64(101);
        let mut mean = RunningMoments::new();
        for _ in 0..20_000 {
            let sample = sample_without_replacement(60, 20, &mut rng);
            let occ = occupancies(&classes, &sample);
            mean.push(goodman_raw(60.0, &occ));
        }
        assert!(
            (mean.mean() - 20.0).abs() < 0.25,
            "mean {} vs true 20",
            mean.mean()
        );
    }

    #[test]
    fn skewed_classes_still_unbiased() {
        // One class of size 5, plus 15 singletons (N=20, D=16), n=10.
        let mut classes: Vec<u64> = vec![0; 5];
        classes.extend(1..=15u64);
        let mut rng = Rng::seed_from_u64(202);
        let mut mean = RunningMoments::new();
        for _ in 0..40_000 {
            let sample = sample_without_replacement(20, 10, &mut rng);
            let occ = occupancies(&classes, &sample);
            mean.push(goodman_raw(20.0, &occ));
        }
        assert!(
            (mean.mean() - 16.0).abs() < 0.2,
            "mean {} vs true 16",
            mean.mean()
        );
    }

    #[test]
    fn clamped_estimate_stays_in_range() {
        let classes: Vec<u64> = (0..100u64).map(|i| i % 7).collect();
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200 {
            let sample = sample_without_replacement(100, 10, &mut rng);
            let occ = occupancies(&classes, &sample);
            let d = occ.len() as f64;
            let e = goodman_estimate(100.0, &occ);
            assert!(e >= d && e <= d + 90.0);
        }
    }
}
