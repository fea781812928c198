//! Named counters and min/max/sum histograms.
//!
//! A [`MetricsRegistry`] is filled by the executor at the end of a
//! run (from storage-counter deltas and the per-stage reports) and
//! frozen into a [`MetricsSnapshot`] attached to
//! [`ExecutionReport`](crate::ExecutionReport). Collection is opt-in;
//! the hot path never touches the registry.
//!
//! Metric names are dotted strings: `storage.*` for disk-level
//! counters (block reads/writes, cache hits, faults, checksum
//! verifies), `core.*` for loop-level counters (stages, retries,
//! blocks lost), `stage.*` and `estimate.*` for per-stage histograms.

use std::collections::BTreeMap;

use eram_storage::json_record;

/// Summary statistics of an observed series: count, sum, min, max,
/// plus the retained samples for quantile queries.
///
/// Non-finite observations are ignored (a raw `NaN` would make the
/// snapshot unserializable as JSON).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Number of finite observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Every finite observation, in arrival order (quantiles sort a
    /// copy on demand). Omitted from JSON when empty, so snapshots
    /// from before this field deserialize unchanged.
    pub samples: Vec<f64>,
}

json_record!(Histogram {
    count: required,
    sum: required,
    min: required,
    max: required,
    samples: omit_empty,
});

impl Histogram {
    /// Records one observation; non-finite values are dropped.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.samples.push(v);
    }

    /// Mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation, or `None` when empty (unlike the raw
    /// `min` field, which is 0 for an empty histogram).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile over the retained samples, or `None`
    /// when empty (or when the histogram was deserialized from a
    /// pre-`samples` snapshot) or `q` is outside `[0, 1]`. Never a
    /// surprising 0: an empty histogram is `None`, a single-sample
    /// histogram returns that sample for every `q`, and on tiny
    /// counts the nearest-rank convention picks a real observation
    /// (`q = 0` the minimum, `q = 1` the maximum).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median (nearest-rank), or `None` when empty.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile (nearest-rank), or `None` when empty.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }
}

/// A mutable registry of named counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at 0).
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records one observation in the named histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Freezes the registry into an immutable snapshot, stamped with
    /// the current observability schema version.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: crate::obs::SCHEMA_VERSION,
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// An immutable, serializable snapshot of a [`MetricsRegistry`].
///
/// Sorted maps keep serialization deterministic; the snapshot rides
/// on [`ExecutionReport`](crate::ExecutionReport) behind
/// `Option` so reports without metrics serialize exactly as before.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Observability schema version (see
    /// [`SCHEMA_VERSION`](crate::obs::SCHEMA_VERSION)); 0 when the
    /// snapshot predates versioning.
    pub schema_version: u32,
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

json_record!(MetricsSnapshot {
    schema_version: default,
    counters: default,
    histograms: default,
});

impl MetricsSnapshot {
    /// The named counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        reg.add("storage.block_reads", 3);
        reg.add("storage.block_reads", 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("storage.block_reads"), 7);
        assert_eq!(snap.counter("never.seen"), 0);
    }

    #[test]
    fn histogram_tracks_bounds_and_ignores_non_finite() {
        let mut h = Histogram::default();
        h.observe(2.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        h.observe(5.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.sum, 6.0);
        assert_eq!(h.samples, vec![2.0, -1.0, 5.0]);
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(Histogram::default().mean(), None);
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::default();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn single_value_histogram_pins_every_quantile() {
        let mut h = Histogram::default();
        h.observe(7.5);
        assert_eq!(h.min(), Some(7.5));
        assert_eq!(h.max(), Some(7.5));
        assert_eq!(h.p50(), Some(7.5));
        assert_eq!(h.p95(), Some(7.5));
        assert_eq!(h.quantile(0.0), Some(7.5));
        assert_eq!(h.quantile(1.0), Some(7.5));
    }

    #[test]
    fn tiny_sample_counts_pick_real_observations() {
        // Two samples: nearest-rank p50 is the lower one, p95 the
        // upper — never an interpolated value or a surprising 0.
        let mut h = Histogram::default();
        h.observe(10.0);
        h.observe(20.0);
        assert_eq!(h.p50(), Some(10.0));
        assert_eq!(h.p95(), Some(20.0));
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(20.0));
        // Three samples: the median is the middle observation.
        h.observe(30.0);
        assert_eq!(h.p50(), Some(20.0));
        assert_eq!(h.p95(), Some(30.0));
        assert_eq!(h.quantile(0.0), Some(10.0));
    }

    #[test]
    fn skewed_histogram_quantiles_follow_nearest_rank() {
        // 99 small observations and one enormous outlier: the median
        // ignores the outlier, p95 still does, max sees it.
        let mut h = Histogram::default();
        for i in 1..=99 {
            h.observe(i as f64);
        }
        h.observe(1e9);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), Some(50.0));
        assert_eq!(h.p95(), Some(95.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1e9));
        // Out-of-range quantiles are rejected rather than clamped.
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // Arrival order does not matter.
        let mut rev = Histogram::default();
        rev.observe(1e9);
        for i in (1..=99).rev() {
            rev.observe(i as f64);
        }
        assert_eq!(rev.p50(), h.p50());
        assert_eq!(rev.p95(), h.p95());
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.add("core.stages", 3);
        reg.observe("stage.fraction", 0.1);
        reg.observe("stage.fraction", 0.3);
        let snap = reg.snapshot();
        assert_eq!(snap.schema_version, crate::obs::SCHEMA_VERSION);
        let json = json::to_string(&snap);
        let back: MetricsSnapshot = json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn pre_versioning_snapshot_json_still_deserializes() {
        // A snapshot serialized before `schema_version` and histogram
        // `samples` existed: both default cleanly.
        let old = r#"{"counters":{"core.stages":2},"histograms":{"stage.fraction":{"count":1,"sum":0.25,"min":0.25,"max":0.25}}}"#;
        let snap: MetricsSnapshot = json::from_str(old).unwrap();
        assert_eq!(snap.schema_version, 0);
        let h = snap.histogram("stage.fraction").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.samples.is_empty());
        assert_eq!(h.p50(), None, "quantiles need retained samples");
        assert_eq!(h.mean(), Some(0.25));
    }
}
