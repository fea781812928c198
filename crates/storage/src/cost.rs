//! Device cost model.
//!
//! The paper's time-cost formulas (Section 4) decompose every operator
//! into block reads, block writes, per-tuple CPU work, and per-
//! comparison sort/merge work, each with a coefficient "assigned
//! initial values based on the experimental relations" and adjusted at
//! run time. [`DeviceProfile`] is the *ground truth* those formulas
//! try to learn: when running against a [`crate::SimClock`], every
//! storage or CPU step samples a duration from the profile and charges
//! the clock.
//!
//! The default profile, [`DeviceProfile::sun_3_60`], is calibrated so
//! the paper's workloads (10 000-tuple relations, 1 KB blocks, quotas
//! of 2.5–10 s) land in the same operating regime as the published
//! tables: tens of blocks per quota for selection, full-fulfillment
//! intersection/join dominated by sort and merge work.
//!
//! Multiplicative jitter models run-to-run variation of a real device
//! (seek distance, bus contention). Together with sampling variation
//! in the estimated selectivities, it is what makes the *risk of
//! overspending* a real, measurable quantity instead of a scripted
//! one.

use std::time::Duration;

use crate::rng::Rng;

/// One chargeable unit of device work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// Read one block from disk (seek + transfer).
    BlockRead,
    /// Write one block to disk.
    BlockWrite,
    /// Process `n` tuples on the CPU (decode, predicate check, copy).
    TupleCpu(u64),
    /// Perform `n` key comparisons (sorting, merging).
    Compare(u64),
    /// Fixed per-stage bookkeeping (sample-size determination, random
    /// block selection, estimator update).
    StageOverhead,
    /// Serve one block from the buffer cache (no seek, no transfer —
    /// just lookup and copy).
    CacheHit,
}

/// Nominal per-unit costs of a device plus a jitter level.
///
/// All durations are *nominal* means; [`DeviceProfile::sample`]
/// applies multiplicative noise when jitter is non-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Cost of reading one block.
    pub block_read: Duration,
    /// Cost of writing one block.
    pub block_write: Duration,
    /// CPU cost per tuple processed.
    pub tuple_cpu: Duration,
    /// CPU cost per comparison.
    pub compare: Duration,
    /// Fixed cost per evaluation stage.
    pub stage_overhead: Duration,
    /// Cost of serving a block from the buffer cache.
    pub cache_hit: Duration,
    /// Relative standard deviation of multiplicative jitter
    /// (0.0 = deterministic device).
    pub jitter_rel: f64,
}

impl DeviceProfile {
    /// Profile calibrated to the paper's SUN 3/60 regime: ~30 ms block
    /// I/O, millisecond-scale per-tuple CPU, noticeable per-stage
    /// overhead, and ~8 % run-to-run jitter.
    pub fn sun_3_60() -> Self {
        DeviceProfile {
            block_read: Duration::from_micros(30_000),
            block_write: Duration::from_micros(32_000),
            tuple_cpu: Duration::from_micros(9_000),
            compare: Duration::from_micros(450),
            stage_overhead: Duration::from_micros(180_000),
            cache_hit: Duration::from_micros(600),
            jitter_rel: 0.08,
        }
    }

    /// A modern NVMe-and-GHz-CPU profile, for library users who want
    /// simulated time at contemporary scale (quotas of milliseconds).
    pub fn modern() -> Self {
        DeviceProfile {
            block_read: Duration::from_nanos(18_000),
            block_write: Duration::from_nanos(25_000),
            tuple_cpu: Duration::from_nanos(120),
            compare: Duration::from_nanos(25),
            stage_overhead: Duration::from_micros(40),
            cache_hit: Duration::from_nanos(900),
            jitter_rel: 0.05,
        }
    }

    /// Returns a copy with jitter disabled (fully deterministic costs).
    pub fn without_jitter(mut self) -> Self {
        self.jitter_rel = 0.0;
        self
    }

    /// Returns a copy with the given relative jitter.
    pub fn with_jitter(mut self, jitter_rel: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter_rel),
            "relative jitter must be in [0, 1)"
        );
        self.jitter_rel = jitter_rel;
        self
    }

    /// Nominal (mean) cost of an operation — what an oracle cost
    /// formula would predict.
    pub fn nominal(&self, op: DeviceOp) -> Duration {
        match op {
            DeviceOp::BlockRead => self.block_read,
            DeviceOp::BlockWrite => self.block_write,
            DeviceOp::TupleCpu(n) => mul_dur(self.tuple_cpu, n),
            DeviceOp::Compare(n) => mul_dur(self.compare, n),
            DeviceOp::StageOverhead => self.stage_overhead,
            DeviceOp::CacheHit => self.cache_hit,
        }
    }

    /// Cost of an operation with multiplicative jitter applied.
    ///
    /// The jitter factor is `max(0.05, 1 + jitter_rel · z)` with
    /// `z ~ N(0, 1)`, i.e. approximately lognormal-shaped noise that
    /// never goes negative.
    pub fn sample(&self, op: DeviceOp, rng: &mut Rng) -> Duration {
        let base = self.nominal(op);
        if self.jitter_rel == 0.0 {
            return base;
        }
        let z = standard_normal(rng);
        let factor = (1.0 + self.jitter_rel * z).max(0.05);
        base.mul_f64(factor)
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        Self::sun_3_60()
    }
}

/// Multiplies a duration by an integer count without overflow on the
/// nanosecond representation.
fn mul_dur(d: Duration, n: u64) -> Duration {
    let nanos = d.as_nanos().saturating_mul(u128::from(n));
    let nanos = u64::try_from(nanos).unwrap_or(u64::MAX);
    Duration::from_nanos(nanos)
}

/// Draws one standard-normal variate via the Box–Muller transform.
fn standard_normal(rng: &mut Rng) -> f64 {
    // Avoid ln(0) by mapping onto [MIN_POSITIVE, 1).
    let u1 = f64::MIN_POSITIVE + (1.0 - f64::MIN_POSITIVE) * rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_costs_scale_with_counts() {
        let p = DeviceProfile::sun_3_60().without_jitter();
        assert_eq!(
            p.nominal(DeviceOp::TupleCpu(10)),
            p.nominal(DeviceOp::TupleCpu(1)) * 10
        );
        assert_eq!(p.nominal(DeviceOp::Compare(0)), Duration::ZERO);
    }

    #[test]
    fn sample_without_jitter_is_nominal() {
        let p = DeviceProfile::sun_3_60().without_jitter();
        let mut rng = Rng::seed_from_u64(7);
        assert_eq!(p.sample(DeviceOp::BlockRead, &mut rng), p.block_read);
    }

    #[test]
    fn jittered_samples_center_on_nominal() {
        let p = DeviceProfile::sun_3_60().with_jitter(0.1);
        let mut rng = Rng::seed_from_u64(42);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| p.sample(DeviceOp::BlockRead, &mut rng).as_secs_f64())
            .sum();
        let mean = total / f64::from(n);
        let nominal = p.block_read.as_secs_f64();
        assert!(
            (mean - nominal).abs() < 0.01 * nominal,
            "mean {mean} vs nominal {nominal}"
        );
    }

    #[test]
    fn jittered_samples_vary() {
        let p = DeviceProfile::sun_3_60().with_jitter(0.1);
        let mut rng = Rng::seed_from_u64(1);
        let a = p.sample(DeviceOp::BlockRead, &mut rng);
        let b = p.sample(DeviceOp::BlockRead, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn sample_never_negative_even_with_large_jitter() {
        let p = DeviceProfile::sun_3_60().with_jitter(0.9);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let d = p.sample(DeviceOp::BlockWrite, &mut rng);
            assert!(d > Duration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "relative jitter")]
    fn with_jitter_rejects_out_of_range() {
        let _ = DeviceProfile::sun_3_60().with_jitter(1.5);
    }

    #[test]
    fn mul_dur_saturates() {
        let d = mul_dur(Duration::from_secs(u64::MAX / 2), u64::MAX);
        assert_eq!(d, Duration::from_nanos(u64::MAX));
    }
}
