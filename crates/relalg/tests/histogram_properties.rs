//! Property tests: histogram selectivity estimates track the exact
//! fraction on arbitrary integer data.

use testkit::prelude::*;

use eram_relalg::{CmpOp, EquiDepthHistogram};
use eram_storage::Value;

fn exact_fraction(values: &[i64], op: CmpOp, k: i64) -> f64 {
    let hits = values
        .iter()
        .filter(|&&v| match op {
            CmpOp::Eq => v == k,
            CmpOp::Ne => v != k,
            CmpOp::Lt => v < k,
            CmpOp::Le => v <= k,
            CmpOp::Gt => v > k,
            CmpOp::Ge => v >= k,
        })
        .count();
    hits as f64 / values.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Estimates are valid probabilities, and complementary operators
    /// sum to exactly 1.
    #[test]
    fn estimates_are_coherent(
        values in prop::collection::vec(-50i64..50, 1..400),
        k in -60i64..60,
        buckets in 1usize..32,
    ) {
        let h = EquiDepthHistogram::build(
            values.iter().map(|&v| Value::Int(v)).collect(),
            buckets,
        ).unwrap();
        let k = Value::Int(k);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let s = h.selectivity(op, &k);
            prop_assert!((0.0..=1.0).contains(&s), "{op:?}: {s}");
        }
        let lt = h.selectivity(CmpOp::Lt, &k);
        let ge = h.selectivity(CmpOp::Ge, &k);
        prop_assert!((lt + ge - 1.0).abs() < 1e-9);
        let eq = h.selectivity(CmpOp::Eq, &k);
        let ne = h.selectivity(CmpOp::Ne, &k);
        prop_assert!((eq + ne - 1.0).abs() < 1e-9);
    }

    /// Range estimates are within a couple of buckets' worth of the
    /// exact answer (the classic equi-depth error bound).
    #[test]
    fn range_estimates_are_bucket_accurate(
        values in prop::collection::vec(-1000i64..1000, 32..600),
        k in -1100i64..1100,
    ) {
        let buckets = 16usize;
        let h = EquiDepthHistogram::build(
            values.iter().map(|&v| Value::Int(v)).collect(),
            buckets,
        ).unwrap();
        let est = h.selectivity(CmpOp::Lt, &Value::Int(k));
        let exact = exact_fraction(&values, CmpOp::Lt, k);
        let tolerance = 2.0 / buckets.min(values.len()) as f64;
        prop_assert!(
            (est - exact).abs() <= tolerance + 1e-9,
            "P(x < {k}): est {est} vs exact {exact} (tol {tolerance})"
        );
    }

    /// Estimates are monotone in the constant for `<`.
    #[test]
    fn lt_estimate_is_monotone(
        values in prop::collection::vec(-100i64..100, 8..200),
    ) {
        let h = EquiDepthHistogram::build(
            values.iter().map(|&v| Value::Int(v)).collect(),
            8,
        ).unwrap();
        let mut last = 0.0f64;
        for k in (-110..110).step_by(5) {
            let s = h.selectivity(CmpOp::Lt, &Value::Int(k));
            prop_assert!(s + 1e-9 >= last, "not monotone at {k}: {s} < {last}");
            last = s;
        }
    }
}
