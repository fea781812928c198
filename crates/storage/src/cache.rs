//! A block-granular LRU buffer cache.
//!
//! The paper's prototype reads every block from disk ("all the input
//! relations and all the intermediate relations are always kept on
//! disks"), so the cache is **off by default** and the Section 5
//! experiments run without it. It exists because the full-fulfillment
//! plan re-reads every previous stage's runs at every stage — with a
//! buffer pool those re-reads become cheap, which is a meaningful
//! middle ground between the paper's disk-resident and main-memory
//! designs. Enable it with [`crate::Disk::new_cached`].
//!
//! The classic hash-map + recency-queue LRU behind one lock: O(1)
//! amortized lookups, stale queue entries skipped lazily at eviction
//! time, exact global LRU order. Every charged read happens on the
//! thread that runs the stage, so the lock is never contended in the
//! engine (the type is still `Sync`). Cached blocks are handed out as
//! [`Arc<Block>`] clones — a pointer bump, not a copy — and a block
//! never changes after it is appended, so an entry leaves only by
//! eviction or with its file. Eviction depends only on the sequence
//! of `get`/`put`/`invalidate_file` calls, so a deterministic caller
//! sees a deterministic hit/miss pattern.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::block::Block;
use crate::sync::Mutex;

/// Key of a cached block.
type Key = (u64, u64); // (file, index)

/// The cache's whole state, under [`BlockCache`]'s one lock.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    entries: HashMap<Key, (Arc<Block>, u64)>,
    recency: VecDeque<(Key, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Lru {
    /// Appends a recency entry, compacting whenever the queue
    /// outgrows its bound — on *every* push path, so neither re-touch
    /// storms (`get`) nor temp-file churn (`put`) can grow the queue
    /// without limit.
    fn push_recency(&mut self, key: Key, tick: u64) {
        self.recency.push_back((key, tick));
        if self.recency.len() > 8 * self.capacity {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let entries = &self.entries;
        self.recency
            .retain(|(k, t)| entries.get(k).is_some_and(|(_, cur)| cur == t));
    }

    fn evict_if_needed(&mut self) {
        while self.entries.len() > self.capacity {
            match self.recency.pop_front() {
                Some((key, tick)) => {
                    // Only evict if this queue entry is the key's
                    // *latest* touch; otherwise it is stale.
                    if self.entries.get(&key).is_some_and(|(_, cur)| *cur == tick) {
                        self.entries.remove(&key);
                    }
                }
                None => break,
            }
        }
    }

    fn get(&mut self, key: Key) -> Option<Arc<Block>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((block, t)) = self.entries.get_mut(&key) {
            *t = tick;
            let block = Arc::clone(block);
            self.push_recency(key, tick);
            self.hits += 1;
            Some(block)
        } else {
            self.misses += 1;
            None
        }
    }

    fn put(&mut self, key: Key, block: Arc<Block>) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(key, (block, tick));
        self.push_recency(key, tick);
        self.evict_if_needed();
    }

    fn invalidate_file(&mut self, file: u64) {
        self.entries.retain(|(f, _), _| *f != file);
        // Drop the dead keys' recency entries too: freed temp files
        // must not leave tombstones that grow the queue across stages.
        self.compact();
    }
}

/// A fixed-capacity LRU cache of blocks.
#[derive(Debug)]
pub struct BlockCache(Mutex<Lru>);

impl BlockCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use no cache instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BlockCache(Mutex::new(Lru {
            capacity,
            entries: HashMap::with_capacity(capacity + 1),
            recency: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }))
    }

    /// Blocks currently held.
    pub fn len(&self) -> usize {
        self.0.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits observed.
    pub fn hits(&self) -> u64 {
        self.0.lock().hits
    }

    /// Cache misses observed.
    pub fn misses(&self) -> u64 {
        self.0.lock().misses
    }

    /// Looks a block up, refreshing its recency. Hits hand back a
    /// shared `Arc` — no byte copy.
    pub fn get(&self, file: u64, index: u64) -> Option<Arc<Block>> {
        self.0.lock().get((file, index))
    }

    /// Inserts (or refreshes) a block, evicting the least recently
    /// used one if over capacity.
    pub fn put(&self, file: u64, index: u64, block: Arc<Block>) {
        self.0.lock().put((file, index), block);
    }

    /// Drops every cached block of `file` (file freed), including
    /// the file's recency-queue entries.
    pub fn invalidate_file(&self, file: u64) {
        self.0.lock().invalidate_file(file);
    }

    /// Recency-queue length (bound diagnostics).
    #[cfg(test)]
    fn recency_len(&self) -> usize {
        self.0.lock().recency.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8) -> Arc<Block> {
        let mut b = Block::zeroed(16);
        b.bytes_mut()[0] = tag;
        Arc::new(b)
    }

    #[test]
    fn hit_after_put_miss_before() {
        let c = BlockCache::new(4);
        assert!(c.get(1, 0).is_none());
        c.put(1, 0, block(7));
        assert_eq!(c.get(1, 0).unwrap().bytes()[0], 7);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = BlockCache::new(2);
        c.put(0, 0, block(0));
        c.put(0, 1, block(1));
        // Touch block 0 so block 1 becomes the LRU.
        assert!(c.get(0, 0).is_some());
        c.put(0, 2, block(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(0, 1).is_none(), "LRU entry must be evicted");
        assert!(c.get(0, 0).is_some());
        assert!(c.get(0, 2).is_some());
    }

    #[test]
    fn lru_order_is_exact_at_any_capacity() {
        let c = BlockCache::new(64);
        for i in 0..64u64 {
            c.put(0, i, block(i as u8));
        }
        assert!(c.get(0, 0).is_some());
        c.put(0, 64, block(64));
        assert_eq!(c.len(), 64);
        assert!(c.get(0, 1).is_none(), "the one least recently used goes");
        assert!((2..=64).chain([0]).all(|i| c.get(0, i).is_some()));
    }

    #[test]
    fn re_put_refreshes_value_and_recency() {
        let c = BlockCache::new(2);
        c.put(0, 0, block(1));
        c.put(0, 1, block(2));
        c.put(0, 0, block(9)); // refresh 0 → 1 is LRU
        c.put(0, 2, block(3));
        assert_eq!(c.get(0, 0).unwrap().bytes()[0], 9);
        assert!(c.get(0, 1).is_none());
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let c = BlockCache::new(8);
        c.put(1, 0, block(1));
        c.put(2, 0, block(2));
        c.invalidate_file(1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some());
    }

    #[test]
    fn heavy_retouching_stays_bounded_and_correct() {
        let c = BlockCache::new(3);
        for i in 0..3u64 {
            c.put(0, i, block(i as u8));
        }
        for _ in 0..10_000 {
            assert!(c.get(0, 1).is_some());
        }
        assert!(c.recency_len() <= 8 * 3 + 1);
        // All three still resident.
        for i in 0..3u64 {
            assert!(c.get(0, i).is_some(), "block {i} evicted wrongly");
        }
    }

    #[test]
    fn put_churn_keeps_recency_bounded() {
        // Temp-file churn: every stage writes and frees short-lived
        // files. Neither the puts nor the invalidations may grow the
        // recency queue without bound.
        let c = BlockCache::new(4);
        for file in 0..5_000u64 {
            c.put(file, 0, block(1));
            c.invalidate_file(file);
        }
        assert!(c.is_empty());
        assert!(c.recency_len() <= 8 * 4 + 1, "queue grew without bound");
    }

    #[test]
    fn invalidate_file_compacts_recency_entries() {
        let c = BlockCache::new(8);
        for i in 0..8u64 {
            c.put(1, i, block(i as u8));
        }
        c.invalidate_file(1);
        assert_eq!(c.len(), 0);
        assert_eq!(
            c.recency_len(),
            0,
            "invalidation must drop the file's recency entries"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BlockCache::new(0);
    }
}
