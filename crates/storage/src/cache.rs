//! The block pool: an LRU buffer cache, or a served batch's
//! shared-draw pool.
//!
//! The paper's prototype reads every block from disk ("all the input
//! relations and all the intermediate relations are always kept on
//! disks"), so the root disk's cache is **off by default** and the
//! Section 5 experiments run without it. It exists because the
//! full-fulfillment plan re-reads every previous stage's runs at every
//! stage — with a buffer pool those re-reads become cheap, while every
//! write and every read is still charged as the Section 4 cost
//! formulas price it. Enable it with [`crate::Disk::new_cached`].
//!
//! The same map serves a batch of co-admitted jobs
//! ([`BlockCache::unbounded`], handed to every lane view): the first
//! lane to read a base-relation block publishes it, and later lanes
//! skip the physical fetch. What a hit *costs* is not decided here
//! but by [`crate::Disk::read_block`].
//!
//! Every entry is a slot: the block beside the digest recorded
//! when it was appended, so a pool hit verifies without hashing the
//! clean block again. The bounded pool is the classic hash-map +
//! recency-queue LRU behind one lock: O(1) amortized lookups, stale
//! queue entries skipped lazily at eviction time, exact global LRU
//! order. The unbounded pool keeps no recency queue and never evicts.
//! Every charged read happens on the thread that runs the stage, so
//! the lock is never contended in the engine (the type is still
//! `Sync`). Blocks are handed out as `Arc<Block>` clones — a pointer
//! bump, not a copy — and a block never changes after it is appended,
//! so an entry leaves only by eviction or with its file. Eviction
//! depends only on the sequence of `get`/`put`/`invalidate_file`
//! calls, so a deterministic caller sees a deterministic hit/miss
//! pattern.

use std::collections::{HashMap, VecDeque};

use crate::backend::Slot;
use crate::sync::Mutex;

/// Key of a cached block.
type Key = (u64, u64); // (file, index)

/// The pool's whole state, under [`BlockCache`]'s one lock.
#[derive(Debug)]
struct Lru {
    /// `None` for the unbounded pool, which tracks no recency.
    capacity: Option<usize>,
    /// Each block and digest beside the tick of its latest touch.
    entries: HashMap<Key, (Slot, u64)>,
    recency: VecDeque<(Key, u64)>,
    tick: u64,
}

impl Lru {
    /// Appends a recency entry, compacting whenever the queue
    /// outgrows its bound — on *every* push path, so neither re-touch
    /// storms (`get`) nor temp-file churn (`put`) can grow the queue
    /// without limit.
    fn push_recency(&mut self, key: Key, tick: u64) {
        let Some(capacity) = self.capacity else {
            return;
        };
        self.recency.push_back((key, tick));
        if self.recency.len() > 8 * capacity {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let entries = &self.entries;
        self.recency
            .retain(|(k, t)| entries.get(k).is_some_and(|(_, cur)| cur == t));
    }

    fn evict_if_needed(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.entries.len() > capacity {
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

    fn get(&mut self, key: Key) -> Option<Slot> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((slot, t)) = self.entries.get_mut(&key) {
            *t = tick;
            let slot = slot.clone();
            self.push_recency(key, tick);
            Some(slot)
        } else {
            None
        }
    }

    fn put(&mut self, key: Key, slot: Slot) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(key, (slot, tick));
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

/// A pool of blocks, each beside its recorded digest: a
/// fixed-capacity LRU, or an unbounded pool that never evicts.
#[derive(Debug)]
pub struct BlockCache(Mutex<Lru>);

impl BlockCache {
    /// Creates an LRU cache holding up to `capacity` blocks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use no cache instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self::with_capacity(Some(capacity))
    }

    /// Creates a pool that keeps every block put into it and no
    /// recency order — a served batch's shared draws, which the batch
    /// bounds.
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        BlockCache(Mutex::new(Lru {
            capacity,
            entries: HashMap::with_capacity(capacity.map_or(0, |c| c + 1)),
            recency: VecDeque::new(),
            tick: 0,
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

    /// Looks a block and its digest up, refreshing its recency. Hits
    /// hand back a shared `Arc` — no byte copy.
    pub fn get(&self, file: u64, index: u64) -> Option<Slot> {
        self.0.lock().get((file, index))
    }

    /// Inserts (or refreshes) a block and its digest, evicting the
    /// least recently used one if over capacity.
    pub fn put(&self, file: u64, index: u64, slot: Slot) {
        self.0.lock().put((file, index), slot);
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
    use crate::block::Block;
    use std::sync::Arc;

    fn block(tag: u8) -> Slot {
        let mut b = Block::zeroed(16);
        b.bytes_mut()[0] = tag;
        let digest = b.checksum();
        (Arc::new(b), digest)
    }

    fn tag(slot: Slot) -> u8 {
        slot.0.bytes()[0]
    }

    #[test]
    fn hit_after_put_miss_before() {
        let c = BlockCache::new(4);
        assert!(c.get(1, 0).is_none());
        let put = block(7);
        c.put(1, 0, put.clone());
        let got = c.get(1, 0).unwrap();
        assert_eq!(got.1, put.1, "the digest travels with the block");
        assert_eq!(tag(got), 7);
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
        assert_eq!(tag(c.get(0, 0).unwrap()), 9);
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
    fn an_unbounded_pool_keeps_every_block_and_no_recency() {
        let c = BlockCache::unbounded();
        for i in 0..10_000u64 {
            c.put(i % 7, i, block(i as u8));
        }
        assert_eq!(c.len(), 10_000);
        assert!((0..10_000u64).all(|i| c.get(i % 7, i).is_some_and(|s| tag(s) == i as u8)));
        assert_eq!(c.recency_len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BlockCache::new(0);
    }
}
