//! Clocks and deadlines.
//!
//! ERAM's time-control algorithm reads "the current clock time" at the
//! start of every stage and arms "the timer interrupt to T units"
//! (Figure 3.1 of the paper). We abstract both behind [`Clock`]:
//!
//! * [`WallClock`] measures real elapsed time — use it when embedding
//!   the library in an actual interactive or real-time system.
//! * [`SimClock`] is a deterministic virtual clock that only advances
//!   when work is *charged* to it through [`Clock::charge`]. Paired
//!   with a [`crate::DeviceProfile`], it reproduces the paper's 1989
//!   SUN 3/60 timing regime: a 10-second experiment completes in
//!   microseconds of real time while every quota decision, overspend,
//!   and abort happens exactly as it would against a real device.
//!
//! The hard time constraint itself is a [`Deadline`]: a quota measured
//! from a start instant on some clock. The paper's timer-interrupt
//! service routine becomes deadline checks at block granularity inside
//! the evaluation loops — equivalent observable behaviour, since a
//! block is the paper's own cost quantum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of elapsed time that can also absorb simulated work.
///
/// `elapsed()` is monotone non-decreasing. `charge(d)` accounts for
/// `d` worth of device work: simulated clocks advance by `d`, wall
/// clocks ignore it (the work they measure is real).
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock was created (or last reset).
    fn elapsed(&self) -> Duration;

    /// Account for `d` of simulated device work.
    fn charge(&self, d: Duration);

    /// True if `charge` affects `elapsed` (i.e. this is a simulated
    /// clock). Lets cost-model call sites skip jitter sampling when
    /// running against real time.
    fn is_simulated(&self) -> bool;
}

/// Real elapsed time via [`Instant`]. `charge` is a no-op.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Creates a wall clock starting now.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    fn charge(&self, _d: Duration) {}

    fn is_simulated(&self) -> bool {
        false
    }
}

/// Deterministic virtual clock; advances only via [`Clock::charge`].
///
/// Internally a single atomic nanosecond counter, so charging from the
/// evaluation inner loop is one saturating compare-and-swap — cheap
/// enough to call per block or per tuple batch. Time never runs
/// backwards: a charge past `u64::MAX` nanoseconds (~584 years) pins
/// the clock there.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// Creates a simulated clock at t = 0.
    pub fn new() -> Self {
        SimClock {
            nanos: AtomicU64::new(0),
        }
    }
}

impl Clock for SimClock {
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn charge(&self, d: Duration) {
        let n = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // Never `None`, so the update always applies.
        let _ = self
            .nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
                Some(now.saturating_add(n))
            });
    }

    fn is_simulated(&self) -> bool {
        true
    }
}

/// A time quota measured against a clock — the paper's hard time
/// constraint "Evaluate f(E) within T time units".
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    start: Duration,
    quota: Duration,
}

impl Deadline {
    /// Arms a deadline of `quota` starting at the clock's current time.
    pub fn new(clock: Arc<dyn Clock>, quota: Duration) -> Self {
        let start = clock.elapsed();
        Deadline {
            clock,
            start,
            quota,
        }
    }

    /// The total quota `T`.
    pub fn quota(&self) -> Duration {
        self.quota
    }

    /// Time spent since the deadline was armed.
    pub fn spent(&self) -> Duration {
        self.clock.elapsed().saturating_sub(self.start)
    }

    /// Time left before expiry (zero once expired). This is the
    /// `T_i` of the paper's stage loop.
    pub fn remaining(&self) -> Duration {
        self.quota.saturating_sub(self.spent())
    }

    /// True once the quota has been consumed — the paper's timer
    /// interrupt condition.
    pub fn expired(&self) -> bool {
        self.spent() >= self.quota
    }

    /// How far past the quota the clock currently is (zero if not
    /// expired) — the paper's "ovsp" measurement.
    pub fn overspent(&self) -> Duration {
        self.spent().saturating_sub(self.quota)
    }

    /// The clock the deadline is measured against.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("quota", &self.quota)
            .field("spent", &self.spent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_starts_at_zero_and_advances_by_charge() {
        let c = SimClock::new();
        assert_eq!(c.elapsed(), Duration::ZERO);
        c.charge(Duration::from_millis(30));
        c.charge(Duration::from_millis(12));
        assert_eq!(c.elapsed(), Duration::from_millis(42));
        assert!(c.is_simulated());
    }

    #[test]
    fn a_huge_charge_never_runs_time_backwards() {
        let c = SimClock::new();
        c.charge(Duration::from_secs(5));
        let mut before = c.elapsed();
        for _ in 0..2 {
            c.charge(Duration::MAX);
            assert!(c.elapsed() >= before, "{:?} < {before:?}", c.elapsed());
            before = c.elapsed();
        }
        assert_eq!(before, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn wall_clock_ignores_charge_but_advances() {
        let c = WallClock::new();
        c.charge(Duration::from_secs(100));
        assert!(c.elapsed() < Duration::from_secs(1));
        assert!(!c.is_simulated());
    }

    #[test]
    fn deadline_tracks_spend_and_expiry() {
        let clock = Arc::new(SimClock::new());
        clock.charge(Duration::from_secs(3)); // pre-existing time
        let d = Deadline::new(clock.clone(), Duration::from_secs(10));
        assert_eq!(d.spent(), Duration::ZERO);
        assert_eq!(d.remaining(), Duration::from_secs(10));
        assert!(!d.expired());

        clock.charge(Duration::from_secs(4));
        assert_eq!(d.spent(), Duration::from_secs(4));
        assert_eq!(d.remaining(), Duration::from_secs(6));

        clock.charge(Duration::from_secs(7));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert_eq!(d.overspent(), Duration::from_secs(1));
    }

    #[test]
    fn deadline_overspent_is_zero_before_expiry() {
        let clock = Arc::new(SimClock::new());
        let d = Deadline::new(clock.clone(), Duration::from_secs(2));
        clock.charge(Duration::from_secs(1));
        assert_eq!(d.overspent(), Duration::ZERO);
    }
}
