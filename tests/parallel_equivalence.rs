//! Serial-vs-parallel equivalence, locked down end to end.
//!
//! The worker pool only ever touches *pure* stage work (block decode,
//! run merges); every charge, trace record, RNG draw, and deadline
//! check stays on the calling thread in canonical order. The
//! observable contract is therefore strong: a seeded `SimClock` run
//! must produce a **byte-identical** [`eram_core::ExecutionReport`]
//! (as JSON) and a byte-identical JSONL trace at *any* worker count.
//!
//! 1. **Fixed-seed identity** — the Figure 5.3 join workload at
//!    `workers ∈ {2, 4, 8}` against the `workers = 1` reference.
//! 2. **Hard-deadline identity** — a selection run that aborts
//!    mid-stage, covering the mid-draw unconsume path.
//! 3. **Intersection identity** — the Figure 5.2 workload at
//!    `workers = 4` against the serial reference.
//! 4. **Property** — arbitrary seeds, quotas, and worker counts
//!    replay identically (property test).
//! 5. **Cache stress** — the [`eram_storage::BlockCache`]
//!    under concurrent readers/writers, alone and behind a cached
//!    [`eram_storage::Disk`], keeps exact hit/miss accounting and
//!    never exceeds capacity.

use std::sync::Arc;
use std::time::Duration;

use testkit::prelude::*;

use eram_bench::{Workload, WorkloadKind};
use eram_core::{AggregateFn, Database, Tracer};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{
    json, Block, BlockCache, ColumnType, DeviceProfile, Disk, Schema, SimClock, Tuple, Value,
    BLOCK_SIZE,
};

/// Runs one seeded workload query at the given worker count and
/// returns the serialized report plus the JSONL trace.
fn run_workload(
    kind: WorkloadKind,
    workers: usize,
    seed: u64,
    quota: Duration,
) -> (String, String) {
    let mut w = Workload::build_on(kind, seed, 0);
    let tracer = Tracer::recording(w.db.disk().clock().clone());
    let out =
        w.db.count(w.expr.clone())
            .within(quota)
            .workers(workers)
            .seed(seed ^ 0x5EED)
            .tracer(tracer.clone())
            .run()
            .expect("workload query must execute");
    (json::to_string(&out.report), tracer.to_jsonl())
}

#[test]
fn join_replays_byte_identically_at_any_worker_count() {
    let kind = WorkloadKind::Join {
        output_tuples: 70_000,
    };
    let quota = Duration::from_secs_f64(2.5);
    let (report_1, trace_1) = run_workload(kind, 1, 42, quota);
    assert!(!trace_1.is_empty());
    for workers in [2, 4, 8] {
        let (report_w, trace_w) = run_workload(kind, workers, 42, quota);
        assert_eq!(
            report_1, report_w,
            "ExecutionReport diverged at workers={workers}"
        );
        assert_eq!(trace_1, trace_w, "trace diverged at workers={workers}");
    }
}

#[test]
fn hard_deadline_abort_replays_identically_under_workers() {
    // A quota this tight forces the deadline to fire mid-stage, so the
    // runs exercise the abort path (sampler rewind + banked pending
    // tuples) — which must also be charge-for-charge deterministic.
    let kind = WorkloadKind::Select {
        output_tuples: 10_000,
    };
    let quota = Duration::from_millis(600);
    let (report_1, trace_1) = run_workload(kind, 1, 7, quota);
    for workers in [2, 4, 8] {
        let (report_w, trace_w) = run_workload(kind, workers, 7, quota);
        assert_eq!(
            report_1, report_w,
            "abort path diverged at workers={workers}"
        );
        assert_eq!(trace_1, trace_w);
    }
}

/// A three-group relation with distinct per-group value dispersion,
/// interleaved so sampled blocks mix the groups.
fn grouped_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![
        ("k", ColumnType::Int),
        ("amount", ColumnType::Int),
        ("grp", ColumnType::Int),
    ])
    .padded_to(200);
    let mut tuples = Vec::new();
    let mut k = 0i64;
    for (g, (n, spread)) in [(6_000i64, 5i64), (3_000, 800), (1_000, 90)]
        .into_iter()
        .enumerate()
    {
        for i in 0..n {
            tuples.push(Tuple::new(vec![
                Value::Int(k),
                Value::Int((i * 37) % spread),
                Value::Int(g as i64),
            ]));
            k += 1;
        }
    }
    tuples.sort_by_key(|t| t.value(0).as_int().unwrap() % 997);
    db.load_relation("g", schema, tuples).unwrap();
    db
}

/// Runs one grouped-SUM query (per-group stopping enabled by the
/// engine's defaults) and returns the serialized report plus the
/// JSONL trace.
fn run_grouped_sum(workers: usize, seed: u64, quota: Duration) -> (String, String) {
    let mut db = grouped_db(seed);
    let tracer = Tracer::recording(db.disk().clock().clone());
    let expr = Expr::relation("g").select(Predicate::col_cmp(1, CmpOp::Lt, 700));
    let out = db
        .aggregate(
            AggregateFn::SumBy {
                column: 1,
                group: 2,
            },
            expr,
        )
        .within(quota)
        .workers(workers)
        .seed(seed ^ 0x5EED)
        .tracer(tracer.clone())
        .run()
        .expect("grouped query must execute");
    (json::to_string(&out.report), tracer.to_jsonl())
}

#[test]
fn grouped_sum_replays_byte_identically_at_any_worker_count() {
    // The per-group report (group keys, per-group CIs, freeze stages)
    // must be byte-stable under the worker pool, exactly like the
    // scalar report.
    let quota = Duration::from_secs_f64(2.5);
    let (report_1, trace_1) = run_grouped_sum(1, 31, quota);
    assert!(report_1.contains("\"groups\""), "grouped report present");
    for workers in [2, 4, 8] {
        let (report_w, trace_w) = run_grouped_sum(workers, 31, quota);
        assert_eq!(
            report_1, report_w,
            "grouped report diverged at workers={workers}"
        );
        assert_eq!(trace_1, trace_w, "trace diverged at workers={workers}");
    }
}

#[test]
fn grouped_sum_deadline_abort_replays_identically_under_workers() {
    // A quota too tight for census forces a mid-run stop with partial
    // per-group answers; the abort path must stay deterministic.
    let quota = Duration::from_millis(400);
    let (report_1, trace_1) = run_grouped_sum(1, 53, quota);
    for workers in [2, 4, 8] {
        let (report_w, trace_w) = run_grouped_sum(workers, 53, quota);
        assert_eq!(
            report_1, report_w,
            "grouped abort diverged at workers={workers}"
        );
        assert_eq!(trace_1, trace_w);
    }
}

#[test]
fn ci_selected_worker_count_matches_the_serial_reference() {
    let kind = WorkloadKind::Intersect { overlap: 5_000 };
    let quota = Duration::from_secs_f64(2.5);
    let (report_1, trace_1) = run_workload(kind, 1, 11, quota);
    let (report_4, trace_4) = run_workload(kind, 4, 11, quota);
    assert_eq!(report_1, report_4);
    assert_eq!(trace_1, trace_4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed, quota, and worker count replays the serial run
    /// byte-for-byte — reports and traces both.
    #[test]
    fn any_run_replays_identically_in_parallel(
        seed in any::<u64>(),
        quota_ms in 200u64..3_000,
        workers in 2usize..=8,
        output_thousands in 0u64..=10,
    ) {
        let kind = WorkloadKind::Select { output_tuples: output_thousands * 1_000 };
        let quota = Duration::from_millis(quota_ms);
        let (report_1, trace_1) = run_workload(kind, 1, seed, quota);
        let (report_w, trace_w) = run_workload(kind, workers, seed, quota);
        prop_assert_eq!(report_1, report_w, "workers={}", workers);
        prop_assert_eq!(trace_1, trace_w, "workers={}", workers);
    }
}

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
