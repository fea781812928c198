//! [`eram_storage::BlockCache`] under concurrent readers and
//! writers, alone and behind a cached [`eram_storage::Disk`]: exact
//! hit/miss accounting, the capacity bound, no torn reads, and file
//! invalidation that never reaches another file's entries.

use std::sync::Arc;

use eram_storage::{Block, BlockCache, DeviceProfile, Disk, SimClock, BLOCK_SIZE};

/// A block tagged in its first byte, beside its digest.
fn tagged_block(tag: u8) -> (Arc<Block>, u64) {
    let mut b = Block::zeroed(32);
    b.bytes_mut()[0] = tag;
    let digest = b.checksum();
    (Arc::new(b), digest)
}

#[test]
fn contended_cache_keeps_exact_accounting_and_bounds() {
    let capacity = 64;
    let keys = 2 * capacity as u64;
    let (threads, lookups_per_thread) = (8, 2_000u64);
    // Each thread walks twice the capacity deterministically: half the
    // keys are resident before the storm, half miss under contention.
    let storm = |lookup: &(dyn Fn(u64) + Sync)| {
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    (0..lookups_per_thread).for_each(|j| lookup((t * 7 + j * 13) % keys))
                });
            }
        })
    };

    // The cache alone, `get` then `put` on a miss: eviction holds the
    // capacity bound, and a hit returns the block put under its key —
    // no cross-key tearing.
    let cache = BlockCache::new(capacity);
    for i in 0..capacity as u64 {
        cache.put(0, i, tagged_block(i as u8));
    }
    storm(&|key| match cache.get(0, key) {
        Some((block, _)) => assert_eq!(block.bytes()[0], key as u8, "torn read for key {key}"),
        None => cache.put(0, key, tagged_block(key as u8)),
    });
    assert!(
        cache.len() <= capacity,
        "eviction must hold the capacity bound under contention: {} > {capacity}",
        cache.len()
    );
    // The cache stays coherent after the storm: whatever is resident
    // reads back with the right payload.
    for key in 0..keys {
        if let Some((block, _)) = cache.get(0, key) {
            assert_eq!(block.bytes()[0], key as u8);
        }
    }

    // The same storm behind a cached disk: every read is counted once,
    // as a hit or as a miss, in the view's one account.
    let disk = Disk::new_cached(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60(),
        5,
        capacity,
    );
    let file = disk.create_file();
    for key in 0..keys {
        let mut b = Block::zeroed(BLOCK_SIZE);
        b.bytes_mut()[0] = key as u8;
        disk.append_block_uncharged(file, b).unwrap();
    }
    for key in 0..capacity as u64 {
        disk.read_block(file, key).unwrap();
    }
    let before = disk.stats();
    storm(&|key| {
        let block = disk.read_block(file, key).unwrap();
        assert_eq!(block.bytes()[0], key as u8, "torn read for key {key}");
    });
    let counted = disk.stats().since(&before);
    assert_eq!(
        counted.cache_hits + counted.cache_misses,
        threads * lookups_per_thread,
        "every read is exactly one hit or one miss"
    );
    assert!(counted.cache_hits > 0, "resident keys must hit");
    assert!(counted.cache_misses > 0, "the upper key range must miss");
}

#[test]
fn invalidation_under_concurrent_readers_stays_consistent() {
    let capacity = 32;
    let cache = BlockCache::new(capacity);
    std::thread::scope(|scope| {
        // Writer thread: repeatedly fills file 1 and wipes it.
        scope.spawn(|| {
            for round in 0..200u64 {
                for i in 0..8 {
                    cache.put(1, i, tagged_block((round % 251) as u8));
                }
                cache.invalidate_file(1);
            }
        });
        // Reader threads: hammer both a stable file and the churning
        // one; stable entries must never be collaterally invalidated.
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..8u64 {
                    cache.put(2, i, tagged_block(100 + i as u8));
                }
                for j in 0..2_000u64 {
                    let _ = cache.get(1, j % 8);
                    if let Some((block, _)) = cache.get(2, j % 8) {
                        assert_eq!(block.bytes()[0], 100 + (j % 8) as u8);
                    }
                }
            });
        }
    });
    cache.invalidate_file(1);
    for i in 0..8u64 {
        assert!(
            cache.get(1, i).is_none(),
            "file 1 must be fully invalidated"
        );
    }
}
