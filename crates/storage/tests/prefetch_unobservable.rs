//! `Disk::prefetch` is advice: twin disks built from one seed run one
//! read sequence, the second interleaving arbitrary hints, and must
//! be indistinguishable by anything a caller can observe.

use std::sync::Arc;
use std::time::Duration;

use testkit::prelude::*;

use eram_storage::{
    Block, DeviceProfile, Disk, DiskStats, FaultPlan, FaultStats, FileId, SharedDrawBroker,
    SimClock,
};

/// Blocks in the base relation; reads and hints also reach past it.
const BLOCKS: u64 = 40;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    /// An 8-block LRU in front of the backend.
    Cached,
    /// Transient errors, corruption and latency spikes armed.
    Faulty,
    /// A lane view pooling the base relation with a sibling lane.
    Lane,
}

/// Everything a caller can see of a disk after a read sequence.
#[derive(Debug, PartialEq)]
struct Observed {
    reads: Vec<Result<Vec<u8>, String>>,
    stats: DiskStats,
    faults: Option<FaultStats>,
    cache: Option<(u64, u64)>,
    sharing: (u64, u64),
    pool: Option<(u64, u64)>,
    elapsed: Duration,
}

fn tagged(file: u64, index: u64) -> Block {
    let mut block = Block::zeroed(eram_storage::BLOCK_SIZE);
    for (i, byte) in block.bytes_mut().iter_mut().enumerate() {
        *byte = (file % 251 * 31 + index * 7 + i as u64) as u8;
    }
    block
}

/// Runs `reads` — `(file selector, index)` pairs — on a disk of
/// `kind` built from `seed`; with `hints`, hint `i` (same encoding,
/// many indices) is given just before read `i`.
fn run(
    kind: Kind,
    seed: u64,
    reads: &[(usize, u64)],
    hints: Option<&[(usize, Vec<u64>)]>,
) -> Observed {
    let profile = DeviceProfile::sun_3_60();
    let clock = || Arc::new(SimClock::new());
    let root = match kind {
        Kind::Cached => Disk::new_cached(clock(), profile, seed, 8),
        _ => Disk::new(clock(), profile, seed),
    };
    let base = root.create_file();
    for i in 0..BLOCKS {
        root.append_block_uncharged(base, tagged(base.0, i))
            .unwrap();
    }
    if matches!(kind, Kind::Faulty | Kind::Lane) {
        root.set_fault_plan(
            FaultPlan::new(seed ^ 0xFA17)
                .with_transient(0.2)
                .with_corruption(0.1)
                .with_spikes(0.15, Duration::from_millis(3)),
        );
    }
    let broker = matches!(kind, Kind::Lane).then(|| SharedDrawBroker::new([base]));
    let disk = match &broker {
        Some(broker) => {
            // The sibling fetches half the relation first, so the
            // lane under test meets both pool hits and misses.
            let sibling = root.lane_view(clock(), seed, 1, Some(Arc::clone(broker)));
            for i in (0..BLOCKS).step_by(2) {
                let _ = sibling.read_block(base, i);
            }
            root.lane_view(clock(), seed, 0, Some(Arc::clone(broker)))
        }
        None => Arc::clone(&root),
    };
    // A temporary of the disk under test (a lane-virtual id on a
    // lane), and one created, filled and freed.
    let temp = disk.create_file();
    let freed = disk.create_file();
    for i in 0..6 {
        disk.append_block(temp, tagged(temp.0, i)).unwrap();
        disk.append_block(freed, tagged(freed.0, i)).unwrap();
    }
    disk.free_file(freed);
    let files = [base, temp, freed, FileId(999)];
    let pick = |selector: usize| files[selector % files.len()];

    let outcomes = reads
        .iter()
        .enumerate()
        .map(|(i, &(selector, index))| {
            if let Some((selector, indices)) = hints.and_then(|h| h.get(i)) {
                disk.prefetch(pick(*selector), indices);
            }
            disk.read_block(pick(selector), index)
                .map(|block| block.bytes().to_vec())
                .map_err(|e| e.to_string())
        })
        .collect();
    Observed {
        reads: outcomes,
        stats: disk.stats(),
        faults: disk.fault_stats(),
        cache: disk.cache_stats(),
        sharing: disk.sharing(),
        pool: broker.map(|b| (b.shared_hits(), b.published())),
        elapsed: disk.clock().elapsed(),
    }
}

/// An index mostly inside the relation, sometimes just past it,
/// sometimes anywhere in `u64`.
fn index() -> impl Strategy<Value = u64> {
    prop_oneof![0..BLOCKS, 0..BLOCKS, BLOCKS..BLOCKS + 8, any::<u64>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hints_change_nothing_a_caller_can_observe(
        seed in any::<u64>(),
        reads in prop::collection::vec((0usize..8, index()), 1..120),
        hints in prop::collection::vec(
            (0usize..8, prop::collection::vec(index(), 0..24)),
            0..120,
        ),
    ) {
        for kind in [Kind::Plain, Kind::Cached, Kind::Faulty, Kind::Lane] {
            let plain = run(kind, seed, &reads, None);
            let hinted = run(kind, seed, &reads, Some(&hints));
            prop_assert_eq!(&hinted, &plain, "{kind:?} told the twins apart");
        }
    }
}

#[test]
fn the_twins_exercise_what_they_claim_to() {
    // The property is vacuous unless the sequences really meet
    // faults, cache hits, pool hits and every error: pin that once.
    let reads: Vec<(usize, u64)> = (0..200u64).map(|i| ((i % 4) as usize, i % 44)).collect();
    let faulty = run(Kind::Faulty, 3, &reads, None);
    let faults = faulty.faults.unwrap();
    assert!(faults.transient_errors > 0 && faults.corrupt_reads > 0 && faults.latency_spikes > 0);
    let errors = |needle: &str| {
        faulty
            .reads
            .iter()
            .any(|r| matches!(r, Err(e) if e.contains(needle)))
    };
    assert!(errors("unknown file") && errors("out of range"));
    let cached = run(Kind::Cached, 3, &reads, None);
    assert!(cached.cache.unwrap().0 > 0);
    let lane = run(Kind::Lane, 3, &reads, None);
    assert!(lane.sharing.0 > 0 && lane.pool.unwrap().1 > 0);
}
