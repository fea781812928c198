//! Named storage counters: what the disk saw during one run.
//!
//! A [`MetricsSnapshot`] is built by the executor at the end of a run
//! from the delta of the disk's one [`DiskStats`] account and attached
//! to [`ExecutionReport`](crate::ExecutionReport). Collection is
//! opt-in and never touches the hot path.
//!
//! Counter names are dotted `storage.*` strings: block reads/writes,
//! cache hits, faults, checksum verifies — what the disk saw, which
//! the report does not carry. Stages, estimates and fault-tolerance
//! accounting are the report's own fields and are not copied here.

use std::collections::BTreeMap;

use eram_storage::{json_record, DiskStats};

/// The storage counters one run moved, by name.
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
}

json_record!(MetricsSnapshot {
    schema_version: default,
    counters: default,
});

impl MetricsSnapshot {
    /// A snapshot of `counters`, stamped with the current
    /// observability schema version.
    pub(crate) fn new(counters: BTreeMap<String, u64>) -> Self {
        MetricsSnapshot {
            schema_version: crate::obs::SCHEMA_VERSION,
            counters,
        }
    }

    /// The storage counters one run moved, from `d`, the disk's
    /// reading at the end since the one at the start. The cache
    /// counters appear only on a `cached` disk, the fault counters
    /// only when a plan was `armed` at the start or the end of the
    /// run, and the shared-draw pool's never: a lane's snapshot is the
    /// same with the pool on or off.
    pub(crate) fn storage(d: &DiskStats, cached: bool, armed: bool) -> Self {
        let counters = [
            ("block_reads", d.block_reads, true),
            ("block_writes", d.block_writes, true),
            ("tuple_cpu", d.tuple_cpu, true),
            ("compares", d.compares, true),
            ("checksum_verifies", d.checksum_verifies, true),
            ("cache_hits", d.cache_hits, cached),
            ("cache_misses", d.cache_misses, cached),
            ("faults_transient", d.faults_transient, armed),
            ("faults_corrupt", d.faults_corrupt, armed),
            ("latency_spikes", d.latency_spikes, armed),
        ];
        let shown = counters.into_iter().filter(|c| c.2);
        Self::new(shown.map(|(n, v, _)| (format!("storage.{n}"), v)).collect())
    }

    /// The named counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json;

    fn snapshot(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot::new(
            counters
                .iter()
                .map(|&(name, v)| (name.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let snap = snapshot(&[("storage.block_reads", 7)]);
        assert_eq!(snap.counter("storage.block_reads"), 7);
        assert_eq!(snap.counter("never.seen"), 0);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let snap = snapshot(&[("storage.block_reads", 3), ("storage.cache_hits", 1)]);
        assert_eq!(snap.schema_version, crate::obs::SCHEMA_VERSION);
        let json = json::to_string(&snap);
        let back: MetricsSnapshot = json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn pre_versioning_snapshot_json_still_deserializes() {
        // A snapshot serialized before `schema_version` existed, and
        // with the per-stage histograms snapshots used to copy from
        // the report: the version defaults, the histograms are ignored.
        let old = r#"{"counters":{"storage.block_reads":2},"histograms":{"stage.fraction":{"count":1,"sum":0.25,"min":0.25,"max":0.25}}}"#;
        let snap: MetricsSnapshot = json::from_str(old).unwrap();
        assert_eq!(snap.schema_version, 0);
        assert_eq!(
            snap.counters,
            snapshot(&[("storage.block_reads", 2)]).counters
        );
    }
}
