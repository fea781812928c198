//! Deterministic fault injection for the storage layer.
//!
//! The paper's contract is *bounded response time no matter what*: a
//! storage hiccup must widen the error bound of the estimate, never
//! break the time bound. To test that contract we need faults that are
//! (a) realistic — transient read errors, permanent bit rot, latency
//! spikes — and (b) perfectly reproducible, so a failing chaos run can
//! be replayed bit-for-bit from its seed.
//!
//! A [`FaultPlan`] describes *rates*; the `FaultInjector` turns the
//! plan into concrete per-site decisions by hashing
//! `(seed, file, block, attempt)` with a splitmix64-style mixer.
//! Because the decision is a pure function of those inputs, the same
//! plan and the same read sequence always produce the same fault
//! sites — no RNG stream to keep in sync, no ordering hazards.
//!
//! Fault semantics:
//!
//! * **Transient** faults are decided per *attempt*: a block that
//!   failed once may succeed on retry, exactly like a real
//!   `EINTR`/timeout.
//! * **Corruption** is decided per *site* (file, block) independent of
//!   the attempt: a rotten block stays rotten, so retrying is useless
//!   and the caller must degrade.
//! * **Latency spikes** add a fixed extra duration to the charged cost
//!   of the read — they consume quota but carry no error.

use std::collections::HashMap;
use std::time::Duration;

use crate::json_record;

/// Rates and seed for injected storage faults.
///
/// All rates are probabilities in `[0, 1]` evaluated independently
/// per charged block read. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault decisions.
    pub seed: u64,
    /// Probability a read attempt fails with a transient I/O error.
    pub transient_rate: f64,
    /// Probability a block site is permanently corrupt (bit flip
    /// surfaced as a checksum mismatch on every read).
    pub corrupt_rate: f64,
    /// Probability a read suffers an extra latency spike.
    pub spike_rate: f64,
    /// Duration of one latency spike.
    pub spike: Duration,
}

json_record!(FaultPlan {
    seed: required,
    transient_rate: required,
    corrupt_rate: required,
    spike_rate: required,
    spike: required,
});

impl FaultPlan {
    /// A plan with the given seed and all fault rates zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::ZERO,
        }
    }

    /// Sets the transient read-failure rate.
    pub fn with_transient(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.transient_rate = rate;
        self
    }

    /// Sets the permanent corruption rate.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.corrupt_rate = rate;
        self
    }

    /// Sets the latency-spike rate and spike duration.
    pub fn with_spikes(mut self, rate: f64, spike: Duration) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.spike_rate = rate;
        self.spike = spike;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

/// What the injector decided for one read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The read fails with a retryable I/O error.
    Transient,
    /// The block's content is corrupted (deterministic bit flip).
    Corrupt,
}

/// Decision for one read attempt: an optional latency spike plus an
/// optional failure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultOutcome {
    pub(crate) spike: Option<Duration>,
    pub(crate) kind: Option<FaultKind>,
}

/// Turns a [`FaultPlan`] into deterministic per-read decisions. What
/// it decided is counted by the disk that asked, in its
/// [`DiskStats`](crate::DiskStats).
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Read attempts seen per (file, block) site, so transient faults
    /// can differ between retries of the same block.
    attempts: HashMap<(u64, u64), u64>,
}

// Domain-separation salts for the three independent fault decisions.
const SALT_TRANSIENT: u64 = 0x7452_414e_5349_454e; // "TRANSIEN"
const SALT_CORRUPT: u64 = 0x434f_5252_5550_5421; // "CORRUPT!"
const SALT_SPIKE: u64 = 0x5350_494b_4553_5049; // "SPIKESPI"

/// splitmix64 finalizer: a fast, well-mixed 64→64 bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a fault-decision tuple into a uniform `[0, 1)` value.
fn decide(seed: u64, salt: u64, file: u64, block: u64, attempt: u64) -> f64 {
    let mut h = mix(seed ^ salt);
    h = mix(h ^ file);
    h = mix(h ^ block.wrapping_mul(0x0000_0000_85eb_ca6b));
    h = mix(h ^ attempt.wrapping_mul(0xc2b2_ae35_0000_0001));
    // Top 53 bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            attempts: HashMap::new(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if the site (file, block) is permanently corrupt under
    /// this plan. Pure — does not count an attempt.
    pub(crate) fn site_is_corrupt(&self, file: u64, block: u64) -> bool {
        decide(self.plan.seed, SALT_CORRUPT, file, block, 0) < self.plan.corrupt_rate
    }

    /// Decides the outcome of one charged read attempt, counting the
    /// attempt against its site.
    pub(crate) fn on_read(&mut self, file: u64, block: u64) -> FaultOutcome {
        let attempt = {
            let n = self.attempts.entry((file, block)).or_insert(0);
            *n += 1;
            *n
        };
        let spike = if self.plan.spike_rate > 0.0
            && decide(self.plan.seed, SALT_SPIKE, file, block, attempt) < self.plan.spike_rate
        {
            Some(self.plan.spike)
        } else {
            None
        };
        // Transient first: a corrupt site can still fail transiently,
        // and the retry that follows will then discover the rot.
        let kind = if self.plan.transient_rate > 0.0
            && decide(self.plan.seed, SALT_TRANSIENT, file, block, attempt)
                < self.plan.transient_rate
        {
            Some(FaultKind::Transient)
        } else if self.site_is_corrupt(file, block) {
            Some(FaultKind::Corrupt)
        } else {
            None
        };
        FaultOutcome { spike, kind }
    }

    /// Picks the bit to flip when corrupting this site — a pure
    /// function of the seed and site, so replays corrupt identically.
    pub(crate) fn corrupt_bit(&self, file: u64, block: u64, block_bytes: usize) -> (usize, u8) {
        let h = mix(mix(self.plan.seed ^ SALT_CORRUPT ^ 0x1) ^ mix(file) ^ block);
        let byte = (h as usize) % block_bytes.max(1);
        let bit = ((h >> 32) % 8) as u8;
        (byte, 1 << bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn noop_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(42));
        for b in 0..1_000 {
            let out = inj.on_read(0, b);
            assert!(out.kind.is_none());
            assert!(out.spike.is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::new(7)
            .with_transient(0.2)
            .with_corruption(0.05)
            .with_spikes(0.1, Duration::from_millis(50));
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..500)
                .map(|b| {
                    let o = inj.on_read(3, b);
                    (o.kind, o.spike)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(plan), run(plan));
    }

    #[test]
    fn different_seeds_give_different_fault_sites() {
        let mk = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::new(seed).with_transient(0.1));
            (0..500)
                .filter(|&b| inj.on_read(0, b).kind.is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn rates_are_approximately_honored() {
        let mut inj = FaultInjector::new(FaultPlan::new(11).with_transient(0.10));
        let n = 20_000;
        let failures = (0..n).filter(|&b| inj.on_read(0, b).kind.is_some()).count();
        let rate = failures as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn corruption_is_permanent_per_site() {
        let mut inj = FaultInjector::new(FaultPlan::new(5).with_corruption(0.2));
        let corrupt_sites: Vec<u64> = (0..200).filter(|&b| inj.site_is_corrupt(1, b)).collect();
        assert!(!corrupt_sites.is_empty());
        for &b in &corrupt_sites {
            // Every repeated read of a rotten site stays rotten.
            for _ in 0..3 {
                assert_eq!(inj.on_read(1, b).kind, Some(FaultKind::Corrupt));
            }
        }
    }

    #[test]
    fn transient_faults_vary_across_attempts() {
        let mut inj = FaultInjector::new(FaultPlan::new(9).with_transient(0.5));
        // With a 50% rate, 64 attempts on one site all failing (or all
        // succeeding) has probability 2^-63 — vary-by-attempt works.
        let outcomes: Vec<bool> = (0..64).map(|_| inj.on_read(2, 17).kind.is_some()).collect();
        assert!(outcomes.iter().any(|&f| f));
        assert!(outcomes.iter().any(|&f| !f));
    }

    #[test]
    fn corrupt_bit_is_stable_and_in_range() {
        let inj = FaultInjector::new(FaultPlan::new(3).with_corruption(1.0));
        let (byte, mask) = inj.corrupt_bit(4, 9, 1024);
        assert_eq!((byte, mask), inj.corrupt_bit(4, 9, 1024));
        assert!(byte < 1024);
        assert_eq!(mask.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_rate_is_rejected() {
        let _ = FaultPlan::new(0).with_transient(1.5);
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan::new(99)
            .with_transient(0.05)
            .with_corruption(0.01)
            .with_spikes(0.02, Duration::from_millis(120));
        let back: FaultPlan = json::from_str(&json::to_string(&plan)).unwrap();
        assert_eq!(back, plan);
    }
}
