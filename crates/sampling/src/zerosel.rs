//! The zero-selectivity correction (Section 3.4).
//!
//! "It is quite possible that at the first stage some of the operators
//! have sample selectivities of zero, due to the small sample sizes.
//! ... there will be no improvement for the sample selectivity ...
//! unless there are no output tuples at the second stage, the quota
//! will be overspent. Our solution is to compute a different
//! selectivity (> 0) for the operation using a combinatorial formula
//! (which is closed and easy to compute)."
//!
//! The tech report [HoOT 88a] with the exact formula is not available;
//! we reconstruct the standard combinatorial upper confidence bound:
//! having observed **zero** 1-points in `m` sampled points, find the
//! largest 1-point count `K` that would still produce an all-zero
//! sample with probability at least `1 − confidence`, and use `K/N`
//! as the working selectivity. [`zero_selectivity_closed`] is the
//! with-replacement (binomial) bound `sel = 1 − (1−confidence)^{1/m}`,
//! a closed formula exactly as the paper describes.

/// Closed-form (binomial) zero-selectivity bound: the selectivity
/// `s` with `(1−s)^m = 1 − confidence`.
///
/// Returns 1.0 when `m = 0` (nothing observed constrains nothing).
///
/// # Panics
/// Panics if `confidence` is outside `(0, 1)`.
pub fn zero_selectivity_closed(m: f64, confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    if m <= 0.0 {
        return 1.0;
    }
    1.0 - (1.0 - confidence).powf(1.0 / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_identity() {
        // (1 − s)^m should equal 1 − confidence.
        for &(m, conf) in &[(10.0, 0.95), (50.0, 0.9), (3.0, 0.5)] {
            let s = zero_selectivity_closed(m, conf);
            assert!(((1.0 - s).powf(m) - (1.0 - conf)).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_form_shrinks_with_sample_size() {
        let s10 = zero_selectivity_closed(10.0, 0.95);
        let s100 = zero_selectivity_closed(100.0, 0.95);
        assert!(s100 < s10);
        assert!(s10 > 0.0 && s10 < 1.0);
    }

    #[test]
    fn closed_form_degenerate_sample() {
        assert_eq!(zero_selectivity_closed(0.0, 0.95), 1.0);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn closed_rejects_bad_confidence() {
        let _ = zero_selectivity_closed(10.0, 1.0);
    }
}
