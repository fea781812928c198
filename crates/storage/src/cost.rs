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
//! one. A jittered charge is drawn on every simulated device step, so
//! its normal variate takes its cosine from a 256-entry table and
//! falls back to libm's only where the table's value could round to a
//! different nanosecond (see [`DeviceProfile::sample`]).

use std::f64::consts::TAU;
use std::sync::OnceLock;
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
    /// never goes negative. `z = r·cos(2π·u2)` is a Box–Muller normal
    /// from two draws, `u1` then `u2`, with `r = sqrt(−2 ln u1)`; the
    /// result is `base · factor` rounded to the nearest nanosecond,
    /// exactly as [`Duration::mul_f64`] rounds it, and saturates at
    /// [`Duration::MAX`] where that would overflow.
    ///
    /// The cosine comes from a 256-arc table (`table_cos`); its value
    /// is used only when `certified` proves it rounds to the same
    /// nanosecond as libm's `cos`, and otherwise libm's path runs. So
    /// every charge equals the libm formula's bit for bit (DESIGN.md
    /// §6, "The jitter variate"). Error budget of the table path:
    ///
    /// - libm's `cos` is within 1 ulp, and so is each table entry (one
    ///   libm `sin_cos` turned to the exact arc midpoint); the Taylor
    ///   remainder of the offset's `cos`/`sin` is below 1e-17 and their
    ///   combination adds at most 3 ulp;
    /// - libm evaluates `cos(fl(TAU·u2))`, within 7e-16 of `cos(2π·u2)`;
    /// - so the two cosines differ by at most 2e-15, 28 times inside
    ///   the 2⁻⁴⁴ the certificate grants. After the cosine both paths
    ///   take the same `r` through a few f64 operations, each within
    ///   half an ulp, which `err`'s other terms cover 128 times over.
    ///   So the table path's `y = factor · base_ns` lies within `err`
    ///   of `x · 10⁹`, where `x` is the f64 seconds that libm's path
    ///   rounds exactly to the nanosecond, and the two can round apart
    ///   only within `err` of a half-integer, where libm's path runs.
    pub fn sample(&self, op: DeviceOp, rng: &mut Rng) -> Duration {
        let base = self.nominal(op);
        if self.jitter_rel == 0.0 {
            return base;
        }
        let (r, u2) = polar(rng);
        certified(base, self.jitter_rel, r, table_cos(u2)).unwrap_or_else(|| {
            let factor = (1.0 + self.jitter_rel * (r * (TAU * u2).cos())).max(JITTER_FLOOR);
            Duration::try_from_secs_f64(factor * base.as_secs_f64()).unwrap_or(Duration::MAX)
        })
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

/// The smallest jitter factor: a charge never drops below 5 % of its
/// nominal cost.
const JITTER_FLOOR: f64 = 0.05;

/// Arcs of the cosine table: `table_cos` reduces its angle to an
/// offset of at most `π / ARCS` from one arc's midpoint.
const ARCS: usize = 256;

/// `2π − TAU`: the part of 2π that `TAU`'s 53 bits leave out.
const TAU_LO: f64 = 2.449_293_598_294_706_4e-16;

/// 2⁻⁴⁴: the relative slack the certificate grants each term.
const SLACK: f64 = 1.0 / (1u64 << 44) as f64;

/// Draws the Box–Muller radius `r = sqrt(−2 ln u1)` and the angle's
/// uniform `u2`, in that order (`u1` is mapped onto
/// `[MIN_POSITIVE, 1)` to avoid `ln 0`).
fn polar(rng: &mut Rng) -> (f64, f64) {
    let u1 = f64::MIN_POSITIVE + (1.0 - f64::MIN_POSITIVE) * rng.next_f64();
    let u2 = rng.next_f64();
    ((-2.0 * u1.ln()).sqrt(), u2)
}

/// `(cos, sin)` at the midpoint `2π(k + ½)/ARCS` of each arc `k`,
/// built once from libm. `fl(TAU·t)` misses the exact midpoint by up
/// to 7e-16, so each pair is turned through that residue `d` to first
/// order (`d²/2` is below 1e-31).
fn arc_table() -> &'static [(f64, f64); ARCS] {
    static TABLE: OnceLock<[(f64, f64); ARCS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|k| {
            let t = (k as f64 + 0.5) / ARCS as f64;
            let a = TAU * t;
            let d = TAU.mul_add(t, -a) + TAU_LO * t;
            let (sin, cos) = a.sin_cos();
            (cos - sin * d, sin + cos * d)
        })
    })
}

/// `cos(2π·u)` for `u` in `[0, 1)`, within 2e-15 of libm's
/// `(TAU * u).cos()`: the angle is arc `k`'s midpoint plus an offset
/// `|b| ≤ π/256`, whose `cos` (Taylor to `b⁶`) and `sin` (to `b⁵`)
/// are combined with the arc's table pair.
fn table_cos(u: f64) -> f64 {
    let x = u * ARCS as f64;
    let k = x as usize;
    let b = (x - k as f64 - 0.5) * (TAU / ARCS as f64);
    let b2 = b * b;
    let cos_b = 1.0 - b2 * (0.5 - b2 * (1.0 / 24.0 - b2 * (1.0 / 720.0)));
    let sin_b = b * (1.0 - b2 * (1.0 / 6.0 - b2 * (1.0 / 120.0)));
    let (cos_a, sin_a) = arc_table()[k];
    cos_a * cos_b - sin_a * sin_b
}

/// `max(JITTER_FLOOR, 1 + jitter·r·c) · base` to the nanosecond, when
/// that provably equals the rounding of the same product with libm's
/// cosine in place of `c` (see [`DeviceProfile::sample`]); `None` when
/// the floor could bind on either path, `base` is 2²² s or more, or
/// `y = factor · base_ns` lies within `err` of a half-integer.
/// Every comparison is written so that a NaN fails it.
fn certified(base: Duration, jitter: f64, r: f64, c: f64) -> Option<Duration> {
    if base.as_secs() >= 1 << 22 {
        return None;
    }
    let factor = 1.0 + jitter * (r * c);
    // Exact: both parts are integers and the sum is below 2⁵².
    let base_ns = base.as_secs() as f64 * 1e9 + f64::from(base.subsec_nanos());
    let y = factor * base_ns;
    let whole = y as u64;
    let frac = y - whole as f64;
    let err = base_ns * (jitter.abs() * r + 1.0) * SLACK + y * SLACK + 1e-12;
    let certain = factor > JITTER_FLOOR + 1e-7 && (frac - 0.5).abs() > err;
    certain.then(|| Duration::from_nanos(whole + u64::from(frac > 0.5)))
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

    /// The op cycle the stream pins and the equivalence tests draw over.
    const OPS: [DeviceOp; 6] = [
        DeviceOp::BlockRead,
        DeviceOp::BlockWrite,
        DeviceOp::TupleCpu(5),
        DeviceOp::Compare(128),
        DeviceOp::StageOverhead,
        DeviceOp::CacheHit,
    ];

    /// The first `n` charges of `seed`'s stream over [`OPS`], in ns.
    fn stream(p: &DeviceProfile, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| p.sample(OPS[i % OPS.len()], &mut rng).as_nanos() as u64)
            .collect()
    }

    /// Every golden, `results/` table and `sim_fingerprint` was drawn
    /// through `sample`: these charges must never move.
    #[test]
    fn sample_stream_is_pinned() {
        let modern = DeviceProfile::modern();
        let sun = DeviceProfile::sun_3_60();
        #[rustfmt::skip]
        let pins: [(&DeviceProfile, u64, [u64; 32]); 4] = [
            (&modern, 0, [
                18217, 25254, 564, 3373, 37913, 884, 19025, 24590, 594, 3316, 36970,
                933, 17950, 25767, 626, 3310, 40330, 927, 17659, 23739, 577, 2959,
                38821, 1020, 17055, 25506, 586, 3234, 39961, 883, 15915, 24435,
            ]),
            (&modern, 42, [
                19221, 25456, 645, 2829, 38471, 880, 17924, 24884, 605, 3238, 38219,
                935, 17183, 25396, 582, 3433, 40461, 907, 17436, 24029, 590, 3389,
                40521, 846, 17498, 25148, 576, 3085, 39428, 915, 18669, 25801,
            ]),
            (&sun, 0, [
                30579282, 32520161, 40624763, 62590559, 164973471, 583129, 32734454,
                31159559, 44280492, 60936286, 158183885, 635278, 29866501, 33571062,
                48063854, 60779137, 182377658, 628435, 29090593, 29416924, 42183669,
                50664462, 171512085, 728457, 27480797, 33035474, 43368141, 58587680,
                179716326, 581934, 24439478, 30843374,
            ]),
            (&sun, 42, [
                33254997, 32934489, 50432353, 46906618, 168990125, 578568, 29796707,
                31762892, 45649204, 58684072, 167179237, 636992, 27822405, 32812000,
                42824104, 64307237, 183316563, 607224, 28494746, 30012042, 43827799,
                63050725, 183752720, 542321, 28660243, 32303527, 42089796, 54275839,
                175879595, 616007, 31784513, 33639599,
            ]),
        ];
        for (p, seed, want) in pins {
            assert_eq!(stream(p, seed, 32), want, "seed {seed}, {p:?}");
        }
    }

    #[test]
    fn a_charge_past_duration_max_saturates() {
        let mut p = DeviceProfile::modern().with_jitter(0.5);
        p.block_read = Duration::MAX;
        let mut rng = Rng::seed_from_u64(5);
        let mut saturated = 0;
        for _ in 0..1_000 {
            if p.sample(DeviceOp::BlockRead, &mut rng) == Duration::MAX {
                saturated += 1;
            }
        }
        assert!(saturated > 0, "no draw had a factor above 1");
    }

    /// The formula every committed artifact was drawn with: Box–Muller
    /// on libm's `ln` and `cos`, then `Duration::mul_f64`. `sample`
    /// must equal it charge for charge.
    fn sample_libm(p: &DeviceProfile, op: DeviceOp, rng: &mut Rng) -> Duration {
        let base = p.nominal(op);
        if p.jitter_rel == 0.0 {
            return base;
        }
        let u1 = f64::MIN_POSITIVE + (1.0 - f64::MIN_POSITIVE) * rng.next_f64();
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let factor = (1.0 + p.jitter_rel * z).max(0.05);
        base.mul_f64(factor)
    }

    /// `draws` charges of each op from `seed` equal `sample_libm`'s.
    fn assert_agrees_with_libm(p: &DeviceProfile, seed: u64, draws: usize) {
        for op in OPS {
            let mut table = Rng::seed_from_u64(seed);
            let mut libm = table.clone();
            for i in 0..draws {
                let got = p.sample(op, &mut table);
                let want = sample_libm(p, op, &mut libm);
                assert_eq!(got, want, "draw {i} of {op:?}, seed {seed}, {p:?}");
            }
        }
    }

    #[test]
    fn sample_equals_the_libm_formula() {
        for p in [DeviceProfile::modern(), DeviceProfile::sun_3_60()] {
            assert_agrees_with_libm(&p, 11, 1 << 20);
        }
    }

    /// 10⁸ draws over both presets and every op at four jitter levels;
    /// run in release: `cargo test --release -p eram-storage --
    /// --ignored jitter_soak`.
    #[test]
    #[ignore = "10⁸ draws; run in release"]
    fn jitter_soak() {
        let levels = [0.05, 0.08, 0.5, 0.9];
        let per_op = 100_000_000 / (levels.len() * 2 * OPS.len());
        for (i, jitter) in levels.into_iter().enumerate() {
            for p in [DeviceProfile::modern(), DeviceProfile::sun_3_60()] {
                assert_agrees_with_libm(&p.with_jitter(jitter), 1_000 + i as u64, per_op);
            }
        }
    }

    #[test]
    fn table_cos_is_within_2e_15_of_libm() {
        let mut rng = Rng::seed_from_u64(8);
        let edges = [
            0.0,
            0.5 / 256.0,
            1.0 / 256.0,
            0.25,
            0.5,
            0.75,
            1.0 - f64::EPSILON / 2.0,
        ];
        let drawn = (0..1 << 16).map(|_| rng.next_f64());
        for u in edges.into_iter().chain(drawn) {
            let gap = (table_cos(u) - (TAU * u).cos()).abs();
            assert!(gap <= 2e-15, "u = {u}: off by {gap:e}");
        }
    }

    #[test]
    fn the_certificate_refuses_what_it_cannot_prove() {
        let ns = Duration::from_nanos;
        // Factor 1.5 on 3 ns is the tie 4.5 ns; within err of it libm
        // decides, past err the table's value stands.
        assert_eq!(certified(ns(3), 0.5, 1.0, 1.0), None);
        assert_eq!(certified(ns(3), 0.5, 1.0, 1.0 + 1e-14), None);
        assert_eq!(certified(ns(3), 0.5, 1.0, 1.0 - 1e-14), None);
        assert_eq!(certified(ns(3), 0.5, 1.0, 1.0 + 1e-9), Some(ns(5)));
        assert_eq!(certified(ns(3), 0.5, 1.0, 1.0 - 1e-9), Some(ns(4)));
        // The floor: at, just above and below 0.05 libm clamps.
        assert_eq!(certified(ns(1_000), 0.5, 1.9, -1.0), None);
        assert_eq!(certified(ns(1_000), 0.5, 1.9 - 1e-7, -1.0), None);
        assert_eq!(certified(ns(1_000), 0.5, 3.0, -1.0), None);
        assert_eq!(certified(ns(1_000), 0.5, 1.9 - 1e-5, -1.0), Some(ns(50)));
        // A base of 2²² s or more.
        assert_eq!(
            certified(Duration::from_secs(1 << 22), 0.05, 1.0, 0.3),
            None
        );
        assert_eq!(certified(Duration::MAX, 0.05, 1.0, 0.3), None);
        assert_eq!(
            certified(Duration::from_secs(1), 0.05, 1.0, 0.3),
            Some(ns(1_015_000_000))
        );
        // A jitter no range check caught.
        assert_eq!(certified(ns(1_000), f64::NAN, 1.0, 0.3), None);
        assert_eq!(certified(ns(1_000), f64::INFINITY, 1.0, 0.3), None);
    }

    /// How many of `draws` charges from `seed` take the libm path.
    fn libm_draws(p: &DeviceProfile, seed: u64, draws: usize) -> usize {
        let mut rng = Rng::seed_from_u64(seed);
        (0..draws)
            .filter(|i| {
                let (r, u2) = polar(&mut rng);
                let base = p.nominal(OPS[i % OPS.len()]);
                certified(base, p.jitter_rel, r, table_cos(u2)).is_none()
            })
            .count()
    }

    #[test]
    fn the_libm_path_is_rare() {
        let modern = libm_draws(&DeviceProfile::modern(), 21, 1 << 20);
        assert!(modern <= 10, "{modern} of 2^20 modern() draws fell back");
        // sun_3_60's 180 ms stage overhead widens `err` to ~2e-5 ns.
        let sun = libm_draws(&DeviceProfile::sun_3_60(), 21, 1 << 20);
        assert!(sun <= 64, "{sun} of 2^20 sun_3_60() draws fell back");
    }
}
