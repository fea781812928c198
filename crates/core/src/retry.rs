//! Retry policy for transient storage faults — charged to the clock.
//!
//! The paper's contract is a *hard* time constraint: whatever the
//! engine does to recover from a fault must consume the same quota a
//! real system would spend doing it. A [`RetryPolicy`] therefore
//! never sleeps on the wall clock; its backoff is charged to the
//! query's [`eram_storage::Clock`] so a retry storm eats simulated
//! quota exactly like extra I/O, and the hard deadline can fire
//! mid-retry and abort the stage as usual.
//!
//! Retries apply only to faults that
//! [`eram_storage::StorageError::is_transient`] classifies as
//! retryable. Permanent faults (checksum mismatches, range errors)
//! skip the policy entirely: the caller drops the cluster and
//! degrades instead.

use std::time::Duration;

use eram_storage::json_record;

/// How the executor retries transient storage faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per block read (first try included). `1` means
    /// no retries; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff charged to the clock before the second attempt.
    pub backoff: Duration,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
}

json_record!(RetryPolicy {
    max_attempts: required,
    backoff: required,
    backoff_factor: required,
});

impl RetryPolicy {
    /// No retries: the first transient fault loses the block.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_factor: 1.0,
        }
    }

    /// Backoff to charge after failed attempt number `attempt`
    /// (1-based): `backoff · factor^(attempt-1)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1);
        self.backoff.mul_f64(self.backoff_factor.powi(exp as i32))
    }
}

impl Default for RetryPolicy {
    /// Four attempts with 15 ms initial backoff doubling each retry —
    /// small next to a ~30 ms block read, so recovery from a fault
    /// burst costs on the order of the reads it replaces.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(15),
            backoff_factor: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json;

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(10),
            backoff_factor: 2.0,
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
    }

    #[test]
    fn none_policy_is_free() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_for(1), Duration::ZERO);
        assert_eq!(p.backoff_for(10), Duration::ZERO);
    }

    #[test]
    fn default_backoff_stays_below_a_block_read() {
        let p = RetryPolicy::default();
        assert!(p.backoff_for(1) < Duration::from_millis(30));
    }

    #[test]
    fn serializes_round_trip() {
        let p = RetryPolicy::default();
        let json = json::to_string(&p);
        let back: RetryPolicy = json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
