//! The benchmark's own arithmetic: percentiles, the quietest reading
//! across rounds, and a straight-line fit.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics (numpy's default, Excel's `QUARTILE.INC`).
/// NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The reading on a metric's good side: the smallest of a
/// lower-is-better metric, the largest of a higher-is-better one. A
/// noisy neighbour only ever takes time away, so across rounds of
/// identical work the good side is the quiet side.
pub fn quietest(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// For each operation, its quietest round: element-wise [`quietest`]
/// over the rounds' series, as long as the shortest of them.
pub fn quietest_per_op(rounds: &[Vec<f64>], better: Better) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| quietest(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>(), better))
        .collect()
}

/// Least-squares line `y = intercept + slope·x`; `(intercept, slope)`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// FNV-1a over 64-bit words, for the exact fingerprint of a round.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        // Interpolated: position 0.95·3 = 2.85 between 30 and 40.
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.95) - 38.5).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quietest_takes_the_good_side() {
        // Five rounds, two of them disturbed.
        assert_eq!(quietest(&[5.2, 5.1, 6.4, 5.0, 7.9], Better::Lower), 5.0);
        assert_eq!(
            quietest(&[192.0, 196.0, 156.0, 200.0, 127.0], Better::Higher),
            200.0
        );
        assert!(quietest(&[], Better::Lower).is_nan());
    }

    #[test]
    fn each_operation_takes_its_own_quietest_round() {
        // Three rounds of four operations; a different round is
        // disturbed at each operation, and one round is cut short.
        let rounds = vec![
            vec![1.0, 9.0, 3.0, 4.0],
            vec![8.0, 2.0, 3.5, 4.0],
            vec![1.5, 2.5, 7.0],
        ];
        assert_eq!(quietest_per_op(&rounds, Better::Lower), vec![1.0, 2.0, 3.0]);
        assert_eq!(
            quietest_per_op(&rounds, Better::Higher),
            vec![8.0, 9.0, 7.0]
        );
        assert!(quietest_per_op(&[], Better::Lower).is_empty());
    }

    #[test]
    fn fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 + 0.5 * x as f64)).collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 0.5).abs() < 1e-9);
        assert_eq!(fit_line(&[(2.0, 4.0), (2.0, 6.0)]), (5.0, 0.0));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the single byte 'a' is af63dc4c8601ec8c; a
        // little-endian word starting with 'a' and seven zero bytes
        // continues from there.
        let mut h = Fnv::new();
        h.word(u64::from(b'a'));
        let mut expect: u64 = 0xAF63_DC4C_8601_EC8C;
        for _ in 0..7 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(h.0, expect);
    }
}
