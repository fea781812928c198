//! A block-granular, shard-striped LRU buffer cache.
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
//! Each shard is the classic hash-map + recency-queue LRU: O(1)
//! amortized lookups, stale queue entries skipped lazily at eviction
//! time. The cache as a whole is **lock-striped**: keys hash to one of
//! up to eight independently locked shards, so concurrent readers on
//! different shards never contend, and cached blocks are handed out as
//! [`Arc<Block>`] clones (a pointer bump) instead of copying the block
//! bytes on every hit. Hit/miss counters are process-wide atomics, so
//! they stay consistent under concurrent access.
//!
//! Small caches (capacity ≤ 8) get exactly one shard and therefore
//! keep the exact global LRU order; larger caches trade global LRU
//! exactness for parallelism (LRU is exact *per shard*). Eviction
//! decisions depend only on the sequence of `get`/`put`/
//! `invalidate_file` calls, so a deterministic caller sees a
//! deterministic hit/miss pattern at any shard count.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::block::Block;
use crate::disk::FileId;
use crate::sync::Mutex;
use crate::tuple::Tuple;

/// Key of a cached block.
type Key = (u64, u64); // (file, index)

/// One independently locked LRU shard.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    entries: HashMap<Key, (Arc<Block>, u64)>,
    recency: VecDeque<(Key, u64)>,
    tick: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            entries: HashMap::with_capacity(capacity + 1),
            recency: VecDeque::new(),
            tick: 0,
        }
    }

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
            Some(block)
        } else {
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

/// A fixed-capacity LRU cache of blocks, striped over up to eight
/// independently locked shards for concurrent access.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BlockCache {
    /// Creates a cache holding up to `capacity` blocks, with a shard
    /// count derived from the capacity: one shard per eight blocks,
    /// clamped to `1..=8`. Caches of eight blocks or fewer get a
    /// single shard and hence exact global LRU behavior.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use no cache instead).
    pub fn new(capacity: usize) -> Self {
        let shards = (capacity / 8).clamp(1, 8);
        Self::with_shards(capacity, shards)
    }

    /// Creates a cache with an explicit shard count (for stress tests
    /// and tuning). Capacity is split as evenly as possible across
    /// shards.
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero, or if `shards >
    /// capacity` (a shard must hold at least one block).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        assert!(shards <= capacity, "more shards than capacity");
        let base = capacity / shards;
        let rem = capacity % shards;
        let shards = (0..shards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < rem))))
            .collect();
        BlockCache {
            shards,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum blocks held (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits observed.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of shards the key space is striped over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: Key) -> &Mutex<Shard> {
        // SplitMix64-style mix of (file, index) so consecutive block
        // indices spread across shards instead of hammering one lock.
        let mut x = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        &self.shards[(x % self.shards.len() as u64) as usize]
    }

    /// Looks a block up, refreshing its recency. Hits hand back a
    /// shared `Arc` — no byte copy.
    pub fn get(&self, file: u64, index: u64) -> Option<Arc<Block>> {
        let key = (file, index);
        let found = self.shard_for(key).lock().get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts (or refreshes) a block, evicting the least recently
    /// used one in its shard if over capacity.
    pub fn put(&self, file: u64, index: u64, block: Arc<Block>) {
        let key = (file, index);
        self.shard_for(key).lock().put(key, block);
    }

    /// Drops every cached block of `file` (file freed/overwritten),
    /// including the file's recency-queue entries.
    pub fn invalidate_file(&self, file: u64) {
        for shard in &self.shards {
            shard.lock().invalidate_file(file);
        }
    }

    /// Total recency-queue length across shards (bound diagnostics).
    #[cfg(test)]
    fn recency_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().recency.len()).sum()
    }
}

/// A bounded LRU cache of **decoded, immutable runs**, keyed by the
/// run file's [`FileId`].
///
/// This is a wall-clock-only structure for the full-fulfillment pair
/// grid, which re-reads every previous stage's runs at every stage.
/// The executor still performs every *charged* block fetch a run
/// read implies — the simulated clock, the fault-injection RNG
/// stream, the device counters, and the [`BlockCache`] state are all
/// untouched — and only skips the per-tuple decode when the run is
/// held here ("charge from metadata, serve from memory"). Entries
/// are shared out as `Arc<[Tuple]>` clones and never mutated.
///
/// The bound is **total tuples held**, not entry count, because run
/// sizes vary by orders of magnitude across stages; a capacity of 0
/// disables the cache entirely, and a single run larger than the
/// capacity is served without being cached. The cache is owned by
/// one operator and accessed serially from the charged staging loop,
/// so it needs no interior locking; hit/miss counters are plain
/// fields.
///
/// Each entry is stamped with the file's content version (see
/// [`crate::Disk::file_version`]) at `put` time. A `get` whose
/// caller-supplied version differs from the stamp drops the entry
/// and counts a miss: run files are normally written once, but fault
/// plans can corrupt or rewrite blocks in place, and a decoded run
/// cached before such an event must never keep serving the
/// pre-fault tuples by file id.
#[derive(Debug)]
pub struct RunCache {
    capacity_tuples: usize,
    held_tuples: usize,
    entries: HashMap<FileId, (u64, Arc<[Tuple]>)>,
    /// Least- to most-recently used. Entries are few (one per stage
    /// per side), so the O(n) touch on hit is noise.
    recency: VecDeque<FileId>,
    hits: u64,
    misses: u64,
}

impl RunCache {
    /// A cache bounded to `capacity_tuples` decoded tuples in total
    /// (0 disables caching: every `put` is a no-op).
    pub fn new(capacity_tuples: usize) -> Self {
        RunCache {
            capacity_tuples,
            held_tuples: 0,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The configured bound, in tuples.
    pub fn capacity_tuples(&self) -> usize {
        self.capacity_tuples
    }

    /// Decoded tuples currently held.
    pub fn held_tuples(&self) -> usize {
        self.held_tuples
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no runs are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that were served from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to a decode.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cached run for `file`, touching its recency. The caller
    /// passes the file's *current* content version; a stale entry
    /// (stamped with an older version) is dropped and counted as a
    /// miss instead of being served.
    pub fn get(&mut self, file: FileId, version: u64) -> Option<Arc<[Tuple]>> {
        match self.entries.get(&file) {
            Some((stamp, run)) if *stamp == version => {
                self.hits += 1;
                let run = run.clone();
                if let Some(pos) = self.recency.iter().position(|&f| f == file) {
                    self.recency.remove(pos);
                }
                self.recency.push_back(file);
                Some(run)
            }
            Some(_) => {
                self.invalidate(file);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches a run decoded from the file at content `version`,
    /// evicting least-recently-used runs until it fits. A re-`put`
    /// of a cached file at the same version is a no-op (runs are
    /// immutable while their version holds); a newer version
    /// replaces the stale entry; a run larger than the whole
    /// capacity is not cached.
    pub fn put(&mut self, file: FileId, version: u64, run: Arc<[Tuple]>) {
        if self.capacity_tuples == 0 || run.len() > self.capacity_tuples {
            return;
        }
        match self.entries.get(&file) {
            Some((stamp, _)) if *stamp == version => return,
            Some(_) => self.invalidate(file),
            None => {}
        }
        while self.held_tuples + run.len() > self.capacity_tuples {
            let Some(victim) = self.recency.pop_front() else {
                break;
            };
            if let Some((_, evicted)) = self.entries.remove(&victim) {
                self.held_tuples -= evicted.len();
            }
        }
        self.held_tuples += run.len();
        self.recency.push_back(file);
        self.entries.insert(file, (version, run));
    }

    /// Drops the entry for `file`, if any, without touching the
    /// hit/miss counters. Called when a read observes the file in a
    /// degraded or rewritten state: whatever was decoded before no
    /// longer describes the bytes on disk.
    pub fn invalidate(&mut self, file: FileId) {
        if let Some((_, evicted)) = self.entries.remove(&file) {
            self.held_tuples -= evicted.len();
            if let Some(pos) = self.recency.iter().position(|&f| f == file) {
                self.recency.remove(pos);
            }
        }
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
        assert_eq!(c.shard_count(), 1, "small caches keep exact LRU");
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
    fn sharded_cache_stripes_keys_and_counts_consistently() {
        let c = BlockCache::with_shards(64, 8);
        assert_eq!(c.shard_count(), 8);
        for i in 0..32u64 {
            c.put(0, i, block(i as u8));
        }
        assert!(c.len() <= 64);
        let mut hits = 0;
        for i in 0..64u64 {
            if c.get(0, i).is_some() {
                hits += 1;
            }
        }
        assert_eq!(c.hits(), hits);
        assert_eq!(c.hits() + c.misses(), 64);
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        assert_eq!(BlockCache::new(2).shard_count(), 1);
        assert_eq!(BlockCache::new(8).shard_count(), 1);
        assert_eq!(BlockCache::new(16).shard_count(), 2);
        assert_eq!(BlockCache::new(1_000).shard_count(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BlockCache::new(0);
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn more_shards_than_capacity_rejected() {
        let _ = BlockCache::with_shards(4, 5);
    }
}

#[cfg(test)]
mod run_cache_tests {
    use super::*;
    use crate::tuple::Value;

    fn run(n: usize, tag: i64) -> Arc<[Tuple]> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(tag), Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn hit_after_put_and_counters() {
        let mut c = RunCache::new(100);
        assert!(c.get(FileId(1), 1).is_none());
        c.put(FileId(1), 1, run(10, 1));
        let got = c.get(FileId(1), 1).expect("cached");
        assert_eq!(got.len(), 10);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.held_tuples(), 10);
    }

    #[test]
    fn tuple_bound_evicts_least_recently_used() {
        let mut c = RunCache::new(25);
        c.put(FileId(1), 1, run(10, 1));
        c.put(FileId(2), 1, run(10, 2));
        // Touch 1 so 2 becomes the eviction victim.
        assert!(c.get(FileId(1), 1).is_some());
        c.put(FileId(3), 1, run(10, 3));
        assert!(c.get(FileId(2), 1).is_none(), "LRU run must be evicted");
        assert!(c.get(FileId(1), 1).is_some());
        assert!(c.get(FileId(3), 1).is_some());
        assert_eq!(c.held_tuples(), 20);
        assert!(c.held_tuples() <= c.capacity_tuples());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = RunCache::new(0);
        c.put(FileId(1), 1, run(5, 1));
        c.put(FileId(2), 1, run(0, 2)); // even empty runs stay out
        assert!(c.is_empty());
        assert!(c.get(FileId(1), 1).is_none());
    }

    #[test]
    fn oversize_run_is_served_but_not_cached() {
        let mut c = RunCache::new(8);
        c.put(FileId(1), 1, run(9, 1));
        assert!(c.is_empty());
        // Smaller runs still cache normally afterwards.
        c.put(FileId(2), 1, run(8, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn re_put_of_same_version_is_a_noop() {
        let mut c = RunCache::new(100);
        c.put(FileId(1), 3, run(10, 1));
        c.put(FileId(1), 3, run(10, 7));
        assert_eq!(c.held_tuples(), 10, "no double-counting");
        let got = c.get(FileId(1), 3).unwrap();
        assert_eq!(got[0].values()[0], Value::Int(1), "first write wins");
    }

    #[test]
    fn version_mismatch_drops_stale_entry() {
        let mut c = RunCache::new(100);
        c.put(FileId(1), 1, run(10, 1));
        // The file was rewritten on disk: version advanced to 2.
        assert!(
            c.get(FileId(1), 2).is_none(),
            "stale run must not be served"
        );
        assert_eq!(c.misses(), 1);
        assert_eq!(c.held_tuples(), 0, "stale entry dropped, not retained");
        // Re-caching at the new version works and serves the new tuples.
        c.put(FileId(1), 2, run(5, 9));
        let got = c.get(FileId(1), 2).unwrap();
        assert_eq!(got[0].values()[0], Value::Int(9));
    }

    #[test]
    fn put_at_newer_version_replaces_stale_entry() {
        let mut c = RunCache::new(100);
        c.put(FileId(1), 1, run(10, 1));
        c.put(FileId(1), 2, run(4, 8));
        assert_eq!(c.held_tuples(), 4, "stale tuples released");
        let got = c.get(FileId(1), 2).unwrap();
        assert_eq!(got[0].values()[0], Value::Int(8), "newer version wins");
    }

    #[test]
    fn invalidate_drops_entry_without_counting() {
        let mut c = RunCache::new(100);
        c.put(FileId(1), 1, run(10, 1));
        c.put(FileId(2), 1, run(5, 2));
        c.invalidate(FileId(1));
        assert_eq!(c.held_tuples(), 5);
        assert_eq!((c.hits(), c.misses()), (0, 0), "invalidate is not a lookup");
        assert!(c.get(FileId(1), 1).is_none());
        assert!(c.get(FileId(2), 1).is_some());
        // Idempotent on absent keys.
        c.invalidate(FileId(99));
        assert_eq!(c.held_tuples(), 5);
    }
}
