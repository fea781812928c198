//! Cross-job shared block draws.
//!
//! When several live jobs sample the same base relation, each of them
//! pays its own charged read — that is the per-job *accounting* the
//! deadline math needs — but the physical device only has to fetch
//! any given block once. A [`SharedDrawBroker`] sits in front of the
//! backend for a batch of co-admitted jobs: the first lane to read a
//! block performs the physical fetch and publishes the clean bytes;
//! later lanes that draw the same block are served from the pool.
//!
//! The broker is **charge-transparent per job**: a pool hit charges
//! the subscribing lane's clock exactly like a backend read (same
//! jittered cost from the lane's own RNG), consults the lane's own
//! fault injector, and verifies the same checksum — only the
//! physical `backend.read` is skipped. A lane therefore behaves
//! byte-identically with the broker on or off; what changes is the
//! *device-level* total, surfaced as `blocks_shared` /
//! `charge_saved` counters. Feeding one uniform draw to several
//! independent estimators does not bias any of them (each job's
//! sampler still picks blocks uniformly from its own seeded stream;
//! the broker only dedups the fetch when two streams collide).
//!
//! Eligibility is restricted to registered base-relation files: a
//! job's temporary run files are read by that job alone, so pooling
//! them would share nothing. A block never changes after it is
//! appended (see [`crate::disk`]), so a pooled entry never goes
//! stale and the pool has no invalidation.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::Slot;
use crate::disk::FileId;
use crate::sync::Mutex;

/// A per-batch pool deduplicating physical reads of base-relation
/// blocks across concurrent job lanes. See the [module docs](self).
pub struct SharedDrawBroker {
    /// File ids eligible for pooling (base relations only).
    files: HashSet<u64>,
    /// Clean verified blocks published by the first lane to fetch
    /// them, each with the digest the backend holds for it, keyed by
    /// `(file, block)`.
    pool: Mutex<HashMap<(u64, u64), Slot>>,
    /// Pool hits served (each one a physical read avoided).
    shared_hits: AtomicU64,
    /// Physical fetches published into the pool.
    published: AtomicU64,
}

impl SharedDrawBroker {
    /// A broker pooling reads of the given base-relation files.
    pub fn new(files: impl IntoIterator<Item = FileId>) -> Arc<Self> {
        Arc::new(SharedDrawBroker {
            files: files.into_iter().map(|f| f.0).collect(),
            pool: Mutex::new(HashMap::new()),
            shared_hits: AtomicU64::new(0),
            published: AtomicU64::new(0),
        })
    }

    /// Whether reads of `file` may be pooled.
    pub fn eligible(&self, file: FileId) -> bool {
        self.files.contains(&file.0)
    }

    /// Looks up a previously published block and its recorded digest.
    pub(crate) fn get(&self, file: u64, index: u64) -> Option<Slot> {
        let hit = self.pool.lock().get(&(file, index)).cloned();
        if hit.is_some() {
            self.shared_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Publishes a clean, checksum-verified block for other lanes,
    /// with the recorded digest each of them verifies it against.
    pub(crate) fn publish(&self, file: u64, index: u64, slot: Slot) {
        if self.pool.lock().insert((file, index), slot).is_none() {
            self.published.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pool hits served so far (physical reads avoided).
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits.load(Ordering::Relaxed)
    }

    /// Distinct blocks published into the pool.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SharedDrawBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDrawBroker")
            .field("files", &self.files.len())
            .field("published", &self.published())
            .field("shared_hits", &self.shared_hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    #[test]
    fn broker_counts_hits_and_publishes_once() {
        let broker = SharedDrawBroker::new([FileId(1)]);
        assert!(broker.eligible(FileId(1)));
        assert!(!broker.eligible(FileId(2)));
        assert!(broker.get(1, 0).is_none());
        // A miss does not count as a hit.
        assert_eq!(broker.shared_hits(), 0);
        let block = Arc::new(Block::zeroed(64));
        broker.publish(1, 0, (Arc::clone(&block), 7));
        broker.publish(1, 0, (Arc::clone(&block), 7)); // idempotent
        assert_eq!(broker.published(), 1);
        assert_eq!(broker.get(1, 0).map(|(_, digest)| digest), Some(7));
        assert_eq!(broker.shared_hits(), 1);
    }
}
