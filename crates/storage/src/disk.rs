//! The block store.
//!
//! [`Disk`] is the single point through which all block I/O and all
//! modeled CPU work flows. Every charged operation samples a duration
//! from the [`DeviceProfile`] (with jitter) and advances the attached
//! [`Clock`], so against a [`crate::SimClock`] the disk *is* the
//! simulated device, and against a [`crate::WallClock`] the charges
//! are free and real time rules.
//!
//! Blocks live in memory by default. A paper relation is 2 000 1 KB
//! blocks; the wall-clock benchmark's is 40 000, which no core's own
//! caches hold, so a reader that knows its next blocks can say so
//! ([`Disk::prefetch`]). The charged-access discipline — not the
//! backing medium — is what the algorithms observe. `*_uncharged`
//! accessors exist for ground-truth computation (exact `COUNT`
//! evaluation must not consume the query's simulated quota).
//!
//! # Write-once blocks
//!
//! A block is appended and never changes: there is no overwrite, and
//! file ids are never reused, so `(file, index)` names the same bytes
//! from the append until [`Disk::free_file`]. Whatever holds a copy of
//! a block or of what was decoded from it — the buffer cache, the
//! shared-draw pool, a sorted run's tuples — therefore needs no
//! invalidation protocol; the digest verified on every charged read
//! is what detects a fault.
//!
//! # Lane views
//!
//! A disk is split into *shared* state (the backend's blocks, each
//! with its digest — one copy per physical device) and *per-view*
//! state (the jitter RNG, the fault injector's attempt counters, and
//! the view's one [`DiskStats`] account of what it did: device
//! charges, cache and pool outcomes, injected faults).
//! [`Disk::lane_view`] derives a second handle onto the same backend
//! whose charges go to a different clock and whose RNG/fault streams
//! are private, and whose account starts at zero: the query
//! server gives each admitted job such a lane so interleaved
//! execution charges every job exactly as if it ran alone. Files
//! created through a lane get lane-local *virtual* ids (translated at
//! the backend boundary), so a job's temporary run files carry the
//! same ids — and therefore the same fault-injection decisions, which
//! hash the id — no matter how many other jobs allocate concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::backend::{BlockBackend, FileBackend, MemoryBackend, Slot};
use crate::block::{Block, BLOCK_SIZE};
use crate::cache::BlockCache;
use crate::clock::Clock;
use crate::cost::{DeviceOp, DeviceProfile};
use crate::error::{IoFault, StorageError};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::rng::Rng;
use crate::sync::Mutex;
use crate::Result;

/// Identifies a file on a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Declares [`DiskStats`] and its live twin `Counters` (one atomic
/// per field) from one list, so a counter cannot be added to one and
/// not the other.
macro_rules! disk_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// What one disk view did since it was made: every counter of
        /// its activity, in one record. The counters are lifetime
        /// totals — arming, re-arming or clearing a fault plan resets
        /// none of them — so [`DiskStats::since`] of two readings of
        /// one view is exactly what happened in between.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DiskStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl DiskStats {
            /// What happened between `before` and `self`, two readings
            /// of one view (`before` the earlier).
            pub fn since(&self, before: &DiskStats) -> DiskStats {
                DiskStats {
                    $($field: self.$field - before.$field,)*
                }
            }
        }

        #[derive(Default)]
        struct Counters {
            $($field: AtomicU64,)*
        }

        impl Counters {
            fn load(&self) -> DiskStats {
                DiskStats {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

disk_stats! {
    /// Charged block reads that reached the fault gate: every read
    /// but a buffer-cache hit.
    block_reads,
    /// Charged block writes.
    block_writes,
    /// Charged tuple-CPU units.
    tuple_cpu,
    /// Charged comparison units.
    compares,
    /// Checksum verifications performed on charged reads.
    checksum_verifies,
    /// Charged reads served by the buffer cache.
    cache_hits,
    /// Charged reads the buffer cache did not hold.
    cache_misses,
    /// Charged reads served from the batch's shared-draw pool: a
    /// physical fetch avoided, the reader still charged in full.
    pool_hits,
    /// Device time (ns) those pool hits would have cost.
    pool_saved_ns,
    /// Injected transient read errors.
    faults_transient,
    /// Injected corruptions, each surfaced as a checksum mismatch.
    faults_corrupt,
    /// Injected latency spikes charged to the clock.
    latency_spikes,
}

/// Adds `n` to a live counter.
fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Per-view state: the jitter RNG and the fault injector's attempt
/// counters. Each lane view gets its own, so one job's charge stream
/// and fault pattern never depend on what other jobs are doing.
struct DiskLocal {
    rng: Rng,
    /// Active fault injector, if a [`FaultPlan`] has been armed.
    faults: Option<FaultInjector>,
}

/// High bit + lane tag marking virtual file ids handed out by lane
/// views; backend ids are small integers, so the namespaces can never
/// collide. Through a lane view, an id without the tag is a base
/// relation: the lane created none of it.
const LANE_FILE_TAG: u64 = 0x8000_0000_0000_0000;

/// Lane-local virtual file-id namespace: files created through a lane
/// view get deterministic ids derived from the lane index alone, so
/// fault decisions (which hash the file id) and error messages are
/// invariant to how lanes interleave their allocations.
struct LaneFiles {
    tag: u64,
    next: u64,
    /// virtual id → physical backend id
    map: HashMap<u64, u64>,
}

/// A block store that charges a clock for every operation.
pub struct Disk {
    /// Shared by every view of one physical disk: each block appended
    /// through any of them, beside the [`Block::checksum`] it had
    /// then; verified on every charged read.
    backend: Arc<Mutex<Box<dyn BlockBackend>>>,
    local: Mutex<DiskLocal>,
    /// Buffer cache, behind a lock of its own: a hit never takes the
    /// backend's.
    cache: Option<BlockCache>,
    /// Lane-local virtual file-id table; `None` on a root disk, whose
    /// ids are the backend's own.
    lane: Option<Mutex<LaneFiles>>,
    /// The batch's shared-draw pool, armed only on lane views serving
    /// a concurrent batch.
    shared: Option<Arc<BlockCache>>,
    clock: Arc<dyn Clock>,
    profile: DeviceProfile,
    counters: Counters,
}

impl Disk {
    /// Creates an in-memory disk with the paper's default 1 KB blocks.
    /// Panics on a profile [`Disk::open`] refuses.
    pub fn new(clock: Arc<dyn Clock>, profile: DeviceProfile, seed: u64) -> Arc<Self> {
        Self::open(clock, profile, seed, None, 0).expect("an in-memory disk always opens")
    }

    /// Creates a disk whose blocks live in real files under `dir`
    /// (one file per relation/temporary) — for data sets larger than
    /// RAM. The directory must already exist.
    pub fn file_backed(
        clock: Arc<dyn Clock>,
        profile: DeviceProfile,
        seed: u64,
        dir: &std::path::Path,
    ) -> Result<Arc<Self>> {
        Self::open(clock, profile, seed, Some(dir), 0)
    }

    /// Creates a disk with the paper's default 1 KB blocks: in
    /// memory, or in one file per relation/temporary under `dir`
    /// (which must exist), fronted by an LRU buffer cache of
    /// `cache_blocks` blocks (0 = none, the paper's setup). Charged
    /// reads that hit the cache cost [`DeviceProfile::cache_hit`]
    /// instead of a full block read. A profile whose `jitter_rel` is
    /// NaN or outside [`DeviceProfile::with_jitter`]'s `[0, 1)` is
    /// [`StorageError::InvalidProfile`].
    pub fn open(
        clock: Arc<dyn Clock>,
        profile: DeviceProfile,
        seed: u64,
        dir: Option<&std::path::Path>,
        cache_blocks: usize,
    ) -> Result<Arc<Self>> {
        if !(0.0..1.0).contains(&profile.jitter_rel) {
            return Err(StorageError::InvalidProfile(format!(
                "relative jitter {} is outside [0, 1)",
                profile.jitter_rel
            )));
        }
        let backend: Box<dyn BlockBackend> = match dir {
            Some(dir) => Box::new(FileBackend::new(dir, BLOCK_SIZE)?),
            None => Box::new(MemoryBackend::new()),
        };
        Ok(Arc::new(Disk {
            backend: Arc::new(Mutex::new(backend)),
            local: Mutex::new(DiskLocal {
                rng: Rng::seed_from_u64(seed),
                faults: None,
            }),
            cache: (cache_blocks > 0).then(|| BlockCache::new(cache_blocks)),
            lane: None,
            shared: None,
            clock,
            profile,
            counters: Counters::default(),
        }))
    }

    /// Derives a per-job lane view of this disk: same backend bytes
    /// and checksums, but charges go to `clock`, the
    /// jitter RNG restarts from `seed`, and the fault injector (a
    /// fresh instance of this disk's armed plan, with its own attempt
    /// counters) decides faults from the lane's own read history.
    /// Files created through the view get lane-deterministic virtual
    /// ids. `shared`, when set, is the batch's pool: base-relation
    /// reads are pooled with the other lanes of the same batch —
    /// charge-transparent to this lane (see [`Disk::read_block`]).
    ///
    /// Lane views carry no buffer cache: each job's charge stream
    /// must be independent of co-resident jobs, and a shared cache
    /// would leak their access history into this job's costs.
    pub fn lane_view(
        self: &Arc<Self>,
        clock: Arc<dyn Clock>,
        seed: u64,
        lane: u64,
        shared: Option<Arc<BlockCache>>,
    ) -> Arc<Disk> {
        let plan = self.fault_plan();
        Arc::new(Disk {
            backend: Arc::clone(&self.backend),
            local: Mutex::new(DiskLocal {
                rng: Rng::seed_from_u64(seed),
                faults: plan.map(FaultInjector::new),
            }),
            cache: None,
            lane: Some(Mutex::new(LaneFiles {
                tag: LANE_FILE_TAG | ((lane + 1) << 32),
                next: 0,
                map: HashMap::new(),
            })),
            shared,
            clock,
            profile: self.profile.clone(),
            counters: Counters::default(),
        })
    }

    /// Maps a (possibly lane-virtual) file id to the backend's id.
    /// Only tagged ids are ever in a lane's table, so a base
    /// relation's reads never take its lock.
    fn physical(&self, file: FileId) -> u64 {
        match &self.lane {
            Some(lane) if file.0 & LANE_FILE_TAG != 0 => {
                lane.lock().map.get(&file.0).copied().unwrap_or(file.0)
            }
            _ => file.0,
        }
    }

    /// Appends `block` beside its digest — the digest taken before
    /// the backend lock is. Returns the block's index and the slot
    /// the backend now holds.
    fn store(&self, file: FileId, block: Block) -> Result<(u64, Slot)> {
        assert_eq!(block.len(), BLOCK_SIZE, "block size mismatch");
        let digest = block.checksum();
        let slot = (Arc::new(block), digest);
        let physical = self.physical(file);
        let stored = self.backend.lock().append(physical, slot.clone());
        let index = stored.map_err(|e| e.naming_file(file.0))?;
        Ok((index, slot))
    }

    /// Creates an in-memory disk fronted by an LRU buffer cache of
    /// `cache_blocks` blocks (0 = none); the paper's prototype has no
    /// cache. Panics on a profile [`Disk::open`] refuses.
    pub fn new_cached(
        clock: Arc<dyn Clock>,
        profile: DeviceProfile,
        seed: u64,
        cache_blocks: usize,
    ) -> Arc<Self> {
        Self::open(clock, profile, seed, None, cache_blocks)
            .expect("an in-memory disk always opens")
    }

    /// `(cache_hits, cache_misses)` of [`Disk::stats`], if a cache is
    /// attached.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        let stats = self.cache.as_ref().map(|_| self.stats());
        stats.map(|s| (s.cache_hits, s.cache_misses))
    }

    /// Arms fault injection: every subsequent charged read runs
    /// through the plan's deterministic fault decisions. Replaces any
    /// previously armed plan and its attempt counters; the faults it
    /// injected stay counted in [`Disk::stats`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.local.lock().faults = Some(FaultInjector::new(plan));
    }

    /// Disarms fault injection.
    pub fn clear_fault_plan(&self) {
        self.local.lock().faults = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.local.lock().faults.as_ref().map(|i| *i.plan())
    }

    /// The clock charged by this disk.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The device cost model in effect.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Block capacity in bytes: every disk's is [`BLOCK_SIZE`].
    pub fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    /// Allocates a new, empty file. Through a lane view the returned
    /// id is lane-virtual — deterministic for the lane regardless of
    /// concurrent allocations on other views.
    pub fn create_file(&self) -> FileId {
        let physical = self.backend.lock().create_file();
        match &self.lane {
            Some(lane) => {
                let mut lane = lane.lock();
                let virt = lane.tag | lane.next;
                lane.next += 1;
                lane.map.insert(virt, physical);
                FileId(virt)
            }
            None => FileId(physical),
        }
    }

    /// Releases a file's blocks and their digests (temporary results
    /// between stages), and through a lane view the id's mapping: the
    /// view no longer knows the file.
    pub fn free_file(&self, file: FileId) {
        let physical = match &self.lane {
            Some(lane) => lane.lock().map.remove(&file.0).unwrap_or(file.0),
            None => file.0,
        };
        self.backend.lock().free_file(physical);
        if let Some(cache) = &self.cache {
            cache.invalidate_file(file.0);
        }
    }

    /// Number of blocks currently allocated to `file`.
    pub fn num_blocks(&self, file: FileId) -> Result<u64> {
        let physical = self.physical(file);
        self.backend
            .lock()
            .num_blocks(physical)
            .ok_or(StorageError::UnknownFile(file.0))
    }

    /// Appends a block to `file`, charging one block write. The
    /// backend and the cache share the one allocation the caller
    /// moved in.
    ///
    /// # Panics
    /// Panics if the block's size differs from the disk's block size.
    pub fn append_block(&self, file: FileId, block: Block) -> Result<u64> {
        self.charge(DeviceOp::BlockWrite);
        add(&self.counters.block_writes, 1);
        let (index, slot) = self.store(file, block)?;
        if let Some(cache) = &self.cache {
            cache.put(file.0, index, slot);
        }
        Ok(index)
    }

    /// Reads block `index` of `file`, charging one block read (or a
    /// cache hit when the block is resident in the buffer cache).
    ///
    /// Charged reads are the fault-injection and integrity-check
    /// surface: an armed [`FaultPlan`] may fail the read transiently,
    /// add a latency spike, or corrupt the returned bytes, and every
    /// block read from the backend is verified against the checksum
    /// recorded when it was written. Cache hits skip both — a cached
    /// block was verified when it entered the cache, matching a real
    /// buffer pool where rot lives on the medium, not in RAM.
    ///
    /// A lane view serving a concurrent batch holds the batch's
    /// shared-draw pool, a second [`BlockCache`] that the read
    /// consults *after* the fault gate. When several live jobs sample
    /// the same base relation, each of them pays its own charged read
    /// — the per-job accounting the deadline math needs — but the
    /// device only has to fetch a block once: the first lane to read
    /// it publishes the clean, verified bytes with their recorded
    /// digest, and a later lane that draws the same block skips the
    /// physical backend fetch and nothing else. A pool hit charges
    /// this lane's clock exactly like a backend read (the same
    /// jittered cost from the lane's own RNG), consults the lane's
    /// own fault injector, and verifies the same digest, so a lane
    /// behaves byte-identically with the pool on or off; what changes
    /// is the device-level total, counted in [`DiskStats::pool_hits`].
    /// Feeding one uniform draw to several independent estimators
    /// biases none of them: each job's sampler still picks blocks
    /// uniformly from its own seeded stream, and the pool only dedups
    /// the fetch when two streams collide. Only base relations are
    /// pooled — the ids without the lane tag — because a job's
    /// own run files are read by that job alone, so pooling them
    /// would share nothing.
    ///
    /// Returns a shared [`Arc<Block>`]: cache and pool hits, and
    /// misses on the in-memory backend, hand back the block that is
    /// held there without copying its bytes.
    pub fn read_block(&self, file: FileId, index: u64) -> Result<Arc<Block>> {
        let counters = &self.counters;
        // Cache lookup first: a hit never touches the backend lock.
        if let Some(cache) = &self.cache {
            if let Some((block, _)) = cache.get(file.0, index) {
                add(&counters.cache_hits, 1);
                self.charge(DeviceOp::CacheHit);
                return Ok(block);
            }
            add(&counters.cache_misses, 1);
        }
        let physical = self.physical(file);
        // The charge and the fault decision share one hold of the
        // view's lock, so the jitter draw and the (file, block,
        // attempt) accounting of two reads can never interleave.
        // Spikes charge the clock directly.
        let mut local = self.local.lock();
        let cost = self.sample_charge(&mut local, DeviceOp::BlockRead);
        add(&counters.block_reads, 1);
        let mut corrupt_bit = None;
        if let Some(injector) = local.faults.as_mut() {
            let outcome = injector.on_read(file.0, index);
            if let Some(spike) = outcome.spike {
                add(&counters.latency_spikes, 1);
                self.clock.charge(spike);
            }
            match outcome.kind {
                Some(FaultKind::Transient) => {
                    add(&counters.faults_transient, 1);
                    return Err(StorageError::Io(IoFault::new(
                        std::io::ErrorKind::Interrupted,
                        format!(
                            "injected transient fault reading block {index} of file {}",
                            file.0
                        ),
                    )));
                }
                Some(FaultKind::Corrupt) => {
                    add(&counters.faults_corrupt, 1);
                    corrupt_bit = Some(injector.corrupt_bit(file.0, index, BLOCK_SIZE));
                }
                None => {}
            }
        }
        drop(local);
        // Pool lookup happens only after the fault gate: a transient
        // failure never consults the pool, and a pool hit still pays
        // spikes/corruption from this lane's own injector. A tagged id
        // is one of this lane's own run files, never pooled.
        let pool = self.shared.as_ref().filter(|_| file.0 & LANE_FILE_TAG == 0);
        let pooled = pool.and_then(|pool| pool.get(physical, index));
        let from_pool = pooled.is_some();
        // The block and the digest recorded beside it when it was
        // written come from one lookup, under the one hold of the
        // backend lock a miss takes.
        let (fetched, expected) = match pooled {
            Some(slot) => {
                add(&counters.pool_hits, 1);
                add(&counters.pool_saved_ns, cost.as_nanos() as u64);
                slot
            }
            None => {
                let stored = self.backend.lock().read(physical, index);
                stored.map_err(|e| e.naming_file(file.0))?
            }
        };
        let block = match corrupt_bit {
            // Flip one deterministic bit on a copy: `fetched` is the
            // backend's (or the pool's) own block, which uncharged
            // (ground-truth) reads and every other reader must keep
            // seeing clean.
            Some((byte, mask)) => {
                let mut copy = Block::clone(&fetched);
                copy.bytes_mut()[byte] ^= mask;
                Arc::new(copy)
            }
            None => fetched,
        };
        add(&counters.checksum_verifies, 1);
        if block.checksum() != expected {
            return Err(StorageError::Corrupt {
                file: file.0,
                block: index,
            });
        }
        if let Some(pool) = pool.filter(|_| !from_pool) {
            pool.put(physical, index, (Arc::clone(&block), expected));
        }
        if let Some(cache) = &self.cache {
            cache.put(file.0, index, (Arc::clone(&block), expected));
        }
        Ok(block)
    }

    /// Advises the backend that blocks `indices` of `file` are about
    /// to be read, in that order, so what [`Disk::read_block`] would
    /// wait for can be on its way. Advice only: nothing is charged,
    /// counted, drawn, cached or pooled, no read changes its result,
    /// and an index or a file that does not exist is ignored.
    pub fn prefetch(&self, file: FileId, indices: &[u64]) {
        let physical = self.physical(file);
        self.backend.lock().prefetch(physical, indices);
    }

    /// Reads block `index` of `file` without charging the clock —
    /// for ground-truth evaluation and tests only.
    pub fn read_block_uncharged(&self, file: FileId, index: u64) -> Result<Block> {
        let physical = self.physical(file);
        let stored = self.backend.lock().read(physical, index);
        let (block, _) = stored.map_err(|e| e.naming_file(file.0))?;
        Ok(Block::clone(&block))
    }

    /// Appends a block without charging the clock — for loading base
    /// relations before the query's quota is armed, and for tests.
    pub fn append_block_uncharged(&self, file: FileId, block: Block) -> Result<u64> {
        self.store(file, block).map(|(index, _)| index)
    }

    /// Samples the jittered duration for `op` from this view's RNG
    /// and charges the clock, returning what was charged (zero under
    /// a wall clock, where charges are free).
    fn sample_charge(&self, local: &mut DiskLocal, op: DeviceOp) -> Duration {
        if !self.clock.is_simulated() {
            return Duration::ZERO;
        }
        let d = self.profile.sample(op, &mut local.rng);
        self.clock.charge(d);
        d
    }

    /// Charges the clock for `op` (with jitter under a simulated
    /// clock) and updates the activity counters.
    pub fn charge(&self, op: DeviceOp) {
        match op {
            DeviceOp::TupleCpu(n) => add(&self.counters.tuple_cpu, n),
            DeviceOp::Compare(n) => add(&self.counters.compares, n),
            _ => {}
        }
        // A measured clock is never charged: skip the view's lock too.
        if self.clock.is_simulated() {
            self.sample_charge(&mut self.local.lock(), op);
        }
    }

    /// A reading of this view's activity counters.
    pub fn stats(&self) -> DiskStats {
        self.counters.load()
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("lane", &self.lane.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, WallClock};
    use std::time::Duration;

    fn sim_disk() -> (Arc<SimClock>, Arc<Disk>) {
        let clock = Arc::new(SimClock::new());
        let disk = Disk::new(clock.clone(), DeviceProfile::sun_3_60().without_jitter(), 7);
        (clock, disk)
    }

    #[test]
    fn create_append_read_round_trip() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[0] = 0x5A;
        let idx = disk.append_block(f, b.clone()).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(*disk.read_block(f, 0).unwrap(), b);
        assert_eq!(disk.num_blocks(f).unwrap(), 1);
    }

    #[test]
    fn open_refuses_a_jitter_no_charge_can_be_drawn_from() {
        let open = |jitter_rel: f64| {
            let profile = DeviceProfile {
                jitter_rel,
                ..DeviceProfile::modern()
            };
            Disk::open(Arc::new(SimClock::new()), profile, 1, None, 0)
        };
        for bad in [f64::NAN, -0.5, 1.0, 3.0] {
            let err = open(bad)
                .err()
                .unwrap_or_else(|| panic!("jitter {bad} was accepted"));
            assert!(matches!(err, StorageError::InvalidProfile(_)), "{err}");
        }
        // 0.9 is the jitter soak's level.
        for good in [0.0, 0.9] {
            assert!(open(good).is_ok(), "jitter {good} was refused");
        }
    }

    #[test]
    fn disk_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Disk>();
        assert_send_sync::<Arc<Disk>>();
    }

    #[test]
    fn charged_io_advances_sim_clock() {
        let (clock, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block(f, Block::zeroed(disk.block_size()))
            .unwrap();
        let after_write = clock.elapsed();
        assert_eq!(after_write, disk.profile().block_write);
        disk.read_block(f, 0).unwrap();
        assert_eq!(
            clock.elapsed(),
            disk.profile().block_write + disk.profile().block_read
        );
    }

    #[test]
    fn uncharged_access_leaves_clock_alone() {
        let (clock, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.read_block_uncharged(f, 0).unwrap();
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    #[test]
    fn wall_clock_disk_never_charges() {
        let clock = Arc::new(WallClock::new());
        let disk = Disk::new(clock, DeviceProfile::sun_3_60(), 1);
        let f = disk.create_file();
        disk.append_block(f, Block::zeroed(disk.block_size()))
            .unwrap();
        // No panic, and stats still recorded.
        assert_eq!(disk.stats().block_writes, 1);
    }

    #[test]
    fn out_of_range_and_unknown_file_errors() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        assert!(matches!(
            disk.read_block(f, 0),
            Err(StorageError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            disk.read_block(FileId(999), 0),
            Err(StorageError::UnknownFile(999))
        ));
    }

    #[test]
    fn free_file_releases() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block(f, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.free_file(f);
        let unknown = StorageError::UnknownFile(f.0);
        assert_eq!(disk.num_blocks(f).unwrap_err(), unknown);
        assert_eq!(disk.read_block(f, 0).unwrap_err(), unknown);
        assert_eq!(disk.read_block_uncharged(f, 0).unwrap_err(), unknown);
        // Its digests went with it: a later file starts clean.
        let g = disk.create_file();
        assert_ne!(g, f, "file ids are not reused");
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[0] = 1;
        disk.append_block(g, b.clone()).unwrap();
        assert_eq!(*disk.read_block(g, 0).unwrap(), b);
    }

    fn tagged(disk: &Disk, tag: u8) -> Block {
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut().fill(tag);
        b
    }

    #[test]
    fn clean_reads_share_the_stored_block() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, tagged(&disk, 1)).unwrap();
        let (a, b) = (
            disk.read_block(f, 0).unwrap(),
            disk.read_block(f, 0).unwrap(),
        );
        assert!(Arc::ptr_eq(&a, &b), "a miss hands out the backend's block");
    }

    #[test]
    fn injected_corruption_never_reaches_the_stored_block() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, tagged(&disk, 7)).unwrap();
        let held = disk.read_block(f, 0).unwrap();
        disk.set_fault_plan(crate::FaultPlan::new(2).with_corruption(1.0));
        let corrupt = StorageError::Corrupt {
            file: f.0,
            block: 0,
        };
        assert_eq!(disk.read_block(f, 0).unwrap_err(), corrupt);
        // The flip landed on a copy: ground truth, a handle given out
        // earlier, and the next clean charged read all see the bytes
        // that were written.
        assert_eq!(disk.read_block_uncharged(f, 0).unwrap(), tagged(&disk, 7));
        assert_eq!(*held, tagged(&disk, 7));
        disk.clear_fault_plan();
        let clean = disk.read_block(f, 0).unwrap();
        assert_eq!(*clean, tagged(&disk, 7));
        assert!(Arc::ptr_eq(&clean, &held));
    }

    #[test]
    fn every_read_past_the_fault_gate_is_verified_broker_or_not() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        for i in 0..100u8 {
            disk.append_block_uncharged(f, tagged(&disk, i)).unwrap();
        }
        disk.set_fault_plan(
            crate::FaultPlan::new(77)
                .with_transient(0.2)
                .with_corruption(0.1),
        );
        let pool = Arc::new(BlockCache::unbounded());
        let counts = |pool: Option<&Arc<BlockCache>>| {
            let lanes =
                [0, 1].map(|i| disk.lane_view(Arc::new(SimClock::new()), 1, i, pool.cloned()));
            lanes.map(|lane| {
                let corrupt = (0..100u64)
                    .filter(|&i| matches!(lane.read_block(f, i), Err(StorageError::Corrupt { .. })))
                    .count() as u64;
                let stats = lane.stats();
                assert!(stats.faults_transient > 0 && corrupt > 0);
                assert_eq!(stats.faults_corrupt, corrupt, "every flip was caught");
                assert_eq!(
                    stats.checksum_verifies,
                    stats.block_reads - stats.faults_transient
                );
                stats
            })
        };
        let alone = counts(None);
        let pooled = counts(Some(&pool));
        assert!(
            pooled[1].pool_hits > 0,
            "the second lane drew from the pool"
        );
        assert_eq!(pooled.map(unpooled), alone);
    }

    /// A reading with the pool's counters cleared: what a lane saw
    /// had it read without a shared-draw pool.
    fn unpooled(stats: DiskStats) -> DiskStats {
        DiskStats {
            pool_hits: 0,
            pool_saved_ns: 0,
            ..stats
        }
    }

    #[test]
    fn lane_view_errors_name_the_callers_file_id() {
        let (_, disk) = sim_disk();
        let lane = disk.lane_view(Arc::new(SimClock::new()), 1, 3, None);
        // Two root files first, so the lane's physical id differs
        // from every id the lane hands out.
        disk.create_file();
        disk.create_file();
        let f = lane.create_file();
        lane.append_block(f, tagged(&lane, 1)).unwrap();
        let out_of_range = StorageError::BlockOutOfRange {
            file: f.0,
            block: 5,
            len: 1,
        };
        assert_eq!(lane.read_block(f, 5).unwrap_err(), out_of_range);
        assert_eq!(lane.read_block_uncharged(f, 5).unwrap_err(), out_of_range);
        lane.set_fault_plan(crate::FaultPlan::new(2).with_corruption(1.0));
        let corrupt = StorageError::Corrupt {
            file: f.0,
            block: 0,
        };
        assert_eq!(lane.read_block(f, 0).unwrap_err(), corrupt);
        lane.set_fault_plan(crate::FaultPlan::new(2).with_transient(1.0));
        let transient = lane.read_block(f, 0).unwrap_err();
        assert!(transient.to_string().contains(&format!("file {}", f.0)));
        lane.clear_fault_plan();
        lane.free_file(f);
        let unknown = StorageError::UnknownFile(f.0);
        assert_eq!(lane.read_block(f, 0).unwrap_err(), unknown);
        assert_eq!(lane.num_blocks(f).unwrap_err(), unknown);
        assert_eq!(lane.append_block(f, tagged(&lane, 3)).unwrap_err(), unknown);
    }

    #[test]
    fn lane_free_file_forgets_the_virtual_id() {
        let (_, disk) = sim_disk();
        let lane = disk.lane_view(Arc::new(SimClock::new()), 1, 0, None);
        let files = [lane.create_file(), lane.create_file()];
        let mapped = || lane.lane.as_ref().unwrap().lock().map.len();
        assert_eq!(mapped(), 2);
        lane.free_file(files[0]);
        assert_eq!(mapped(), 1);
        lane.append_block(files[1], tagged(&lane, 1)).unwrap();
        assert_eq!(lane.num_blocks(files[1]).unwrap(), 1);
        assert_eq!(disk.backend.lock().num_blocks(0), None);
    }

    #[test]
    fn cached_disk_charges_hits_cheaply() {
        let clock = Arc::new(SimClock::new());
        let disk = Disk::new_cached(
            clock.clone(),
            DeviceProfile::sun_3_60().without_jitter(),
            7,
            4,
        );
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        let t0 = clock.elapsed();
        disk.read_block(f, 0).unwrap(); // miss
        let miss_cost = clock.elapsed() - t0;
        let t1 = clock.elapsed();
        disk.read_block(f, 0).unwrap(); // hit
        let hit_cost = clock.elapsed() - t1;
        assert_eq!(miss_cost, disk.profile().block_read);
        assert_eq!(hit_cost, disk.profile().cache_hit);
        assert!(hit_cost < miss_cost / 10);
        assert_eq!(disk.cache_stats(), Some((1, 1)));
    }

    #[test]
    fn cache_invalidated_on_free_and_eviction_respected() {
        let clock = Arc::new(SimClock::new());
        let disk = Disk::new_cached(
            clock.clone(),
            DeviceProfile::sun_3_60().without_jitter(),
            9,
            2,
        );
        let f = disk.create_file();
        for _ in 0..4 {
            disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
                .unwrap();
        }
        // Read 3 distinct blocks through a 2-block cache: block 0 is
        // evicted by the time we return to it.
        for i in [0u64, 1, 2, 0] {
            disk.read_block(f, i).unwrap();
        }
        let (hits, misses) = disk.cache_stats().unwrap();
        assert_eq!(hits, 0);
        assert_eq!(misses, 4);
        // Charged writes populate the cache (write-through).
        let g = disk.create_file();
        disk.append_block(g, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.read_block(g, 0).unwrap();
        assert_eq!(disk.cache_stats().unwrap().0, 1);
        disk.free_file(g);
        assert!(disk.read_block(g, 0).is_err());
    }

    #[test]
    fn transient_fault_fails_then_recovers_on_retry() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        for _ in 0..50 {
            disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
                .unwrap();
        }
        disk.set_fault_plan(crate::FaultPlan::new(21).with_transient(0.5));
        // Find a block whose first attempt fails...
        let failed = (0..50u64)
            .find(|&i| disk.read_block(f, i).is_err())
            .expect("50% transient rate fails at least one of 50 reads");
        // ...and retry it until it succeeds (attempt-varying faults).
        let recovered = (0..64).any(|_| disk.read_block(f, failed).is_ok());
        assert!(recovered, "transient fault never cleared on retry");
        let stats = disk.stats();
        assert!(stats.faults_transient >= 1);
        assert_eq!(stats.faults_corrupt, 0);
    }

    #[test]
    fn transient_errors_are_classified_transient() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.set_fault_plan(crate::FaultPlan::new(1).with_transient(1.0));
        let err = disk.read_block(f, 0).unwrap_err();
        assert!(err.is_transient(), "injected fault not transient: {err}");
    }

    #[test]
    fn corrupt_site_surfaces_checksum_mismatch_permanently() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.set_fault_plan(crate::FaultPlan::new(2).with_corruption(1.0));
        for _ in 0..3 {
            assert!(matches!(
                disk.read_block(f, 0),
                Err(StorageError::Corrupt { block: 0, .. })
            ));
        }
        // Ground truth is unaffected: the backend bytes stay clean.
        assert!(disk.read_block_uncharged(f, 0).is_ok());
        assert!(disk.stats().faults_corrupt >= 3);
    }

    #[test]
    fn latency_spikes_charge_the_sim_clock() {
        let (clock, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        disk.set_fault_plan(crate::FaultPlan::new(3).with_spikes(1.0, Duration::from_millis(500)));
        let t0 = clock.elapsed();
        disk.read_block(f, 0).unwrap();
        let cost = clock.elapsed() - t0;
        assert_eq!(cost, disk.profile().block_read + Duration::from_millis(500));
        assert_eq!(disk.stats().latency_spikes, 1);
    }

    #[test]
    fn clear_fault_plan_restores_clean_reads() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
            .unwrap();
        let plan = crate::FaultPlan::new(4).with_transient(1.0);
        disk.set_fault_plan(plan);
        assert!(disk.read_block(f, 0).is_err());
        disk.clear_fault_plan();
        assert!(disk.read_block(f, 0).is_ok());
        assert!(disk.fault_plan().is_none());
        // The counters outlive the plan, and re-arming adds to them.
        assert_eq!(disk.stats().faults_transient, 1);
        disk.set_fault_plan(plan);
        assert!(disk.read_block(f, 0).is_err());
        assert_eq!(disk.stats().faults_transient, 2);
    }

    #[test]
    fn fault_sites_replay_identically_for_one_seed() {
        let run = || {
            let (_, disk) = sim_disk();
            let f = disk.create_file();
            for _ in 0..100 {
                disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
                    .unwrap();
            }
            disk.set_fault_plan(
                crate::FaultPlan::new(77)
                    .with_transient(0.1)
                    .with_corruption(0.05),
            );
            (0..100u64)
                .map(|i| match disk.read_block(f, i) {
                    Ok(_) => 0u8,
                    Err(StorageError::Io(_)) => 1,
                    Err(StorageError::Corrupt { .. }) => 2,
                    Err(_) => 3,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checksums_follow_appends_and_go_with_the_file() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block(f, Block::zeroed(disk.block_size()))
            .unwrap();
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[7] = 7;
        disk.append_block(f, b.clone()).unwrap();
        // Each read verifies against its own block's digest.
        assert_eq!(*disk.read_block(f, 1).unwrap(), b);
        assert!(disk.read_block(f, 0).is_ok());
        // Freeing the file drops its digests.
        disk.free_file(f);
        let g = disk.create_file();
        disk.append_block_uncharged(g, Block::zeroed(disk.block_size()))
            .unwrap();
        assert!(disk.read_block(g, 0).is_ok());
    }

    #[test]
    fn checksum_verifies_are_counted_on_charged_reads_only() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        disk.append_block(f, Block::zeroed(disk.block_size()))
            .unwrap();
        assert_eq!(disk.stats().checksum_verifies, 0);
        disk.read_block(f, 0).unwrap();
        assert_eq!(disk.stats().checksum_verifies, 1);
        // Uncharged (ground-truth) reads skip verification.
        disk.read_block_uncharged(f, 0).unwrap();
        assert_eq!(disk.stats().checksum_verifies, 1);
        disk.read_block(f, 0).unwrap();
        assert_eq!(disk.stats().checksum_verifies, 2);
    }

    #[test]
    fn cpu_charges_update_stats_and_clock() {
        let (clock, disk) = sim_disk();
        disk.charge(DeviceOp::TupleCpu(5));
        disk.charge(DeviceOp::Compare(100));
        let stats = disk.stats();
        assert_eq!(stats.tuple_cpu, 5);
        assert_eq!(stats.compares, 100);
        let expected = disk.profile().tuple_cpu * 5 + disk.profile().compare * 100;
        assert_eq!(clock.elapsed(), expected);
    }

    #[test]
    fn lane_view_shares_bytes_but_charges_its_own_clock() {
        let (root_clock, disk) = sim_disk();
        let f = disk.create_file();
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[3] = 0x33;
        disk.append_block_uncharged(f, b.clone()).unwrap();
        let before = root_clock.elapsed();

        let lane_clock = Arc::new(SimClock::new());
        let lane = disk.lane_view(lane_clock.clone(), 99, 0, None);
        assert_eq!(*lane.read_block(f, 0).unwrap(), b, "same backend bytes");
        assert_eq!(lane_clock.elapsed(), lane.profile().block_read);
        assert_eq!(root_clock.elapsed(), before, "root clock untouched");
        assert_eq!(lane.stats().block_reads, 1);
        assert_eq!(disk.stats().block_reads, 0, "root counters untouched");
    }

    #[test]
    fn lane_created_files_use_virtual_ids_and_round_trip() {
        let (_, disk) = sim_disk();
        let lane_a = disk.lane_view(Arc::new(SimClock::new()), 1, 0, None);
        let lane_b = disk.lane_view(Arc::new(SimClock::new()), 2, 1, None);
        // Allocation order across lanes must not influence the ids a
        // lane sees: they are derived from the lane index alone.
        let fa = lane_a.create_file();
        let fb = lane_b.create_file();
        let fa2 = lane_a.create_file();
        assert_eq!(fa.0, LANE_FILE_TAG | (1 << 32));
        assert_eq!(fa2.0, (LANE_FILE_TAG | (1 << 32)) + 1);
        assert_eq!(fb.0, LANE_FILE_TAG | (2 << 32));
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[1] = 0xAA;
        lane_a.append_block(fa, b.clone()).unwrap();
        assert_eq!(*lane_a.read_block(fa, 0).unwrap(), b);
        assert!(lane_a.num_blocks(fa).is_ok(), "the view knows this file");
        lane_a.free_file(fa);
        assert!(lane_a.num_blocks(fa).is_err());
        // The other lane's file is unaffected.
        lane_b.append_block(fb, b.clone()).unwrap();
        assert_eq!(lane_b.num_blocks(fb).unwrap(), 1);
    }

    #[test]
    fn lane_fault_injectors_are_private_instances_of_the_armed_plan() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        for _ in 0..40 {
            disk.append_block_uncharged(f, Block::zeroed(disk.block_size()))
                .unwrap();
        }
        disk.set_fault_plan(crate::FaultPlan::new(5).with_transient(0.3));
        let pattern = |lane: &Arc<Disk>| {
            (0..40u64)
                .map(|i| lane.read_block(f, i).is_err())
                .collect::<Vec<_>>()
        };
        let lane_a = disk.lane_view(Arc::new(SimClock::new()), 1, 0, None);
        let lane_b = disk.lane_view(Arc::new(SimClock::new()), 1, 1, None);
        // Same plan, fresh attempt counters: both lanes see the same
        // first-attempt pattern regardless of each other's reads.
        assert_eq!(pattern(&lane_a), pattern(&lane_b));
        assert_eq!(disk.stats().faults_transient, 0);
        assert!(lane_a.stats().faults_transient > 0);
    }

    #[test]
    fn broker_pool_hit_is_charge_transparent() {
        let (_, disk) = sim_disk();
        let f = disk.create_file();
        let mut b = Block::zeroed(disk.block_size());
        b.bytes_mut()[5] = 0x55;
        disk.append_block_uncharged(f, b.clone()).unwrap();

        // Reference lane: no pool.
        let solo_clock = Arc::new(SimClock::new());
        let solo = disk.lane_view(solo_clock.clone(), 42, 0, None);
        solo.read_block(f, 0).unwrap();

        // Pooled pair: lane 0 publishes, lane 1 hits the pool.
        let pool = Arc::new(BlockCache::unbounded());
        let c0 = Arc::new(SimClock::new());
        let l0 = disk.lane_view(c0.clone(), 42, 0, Some(Arc::clone(&pool)));
        let c1 = Arc::new(SimClock::new());
        let l1 = disk.lane_view(c1.clone(), 42, 1, Some(Arc::clone(&pool)));
        assert_eq!(*l0.read_block(f, 0).unwrap(), b);
        assert_eq!(*l1.read_block(f, 0).unwrap(), b);

        // Identical seed ⇒ identical charge, pool or not; the hit
        // only changes the pool's counters.
        assert_eq!(c0.elapsed(), solo_clock.elapsed());
        assert_eq!(c1.elapsed(), solo_clock.elapsed());
        assert_eq!(l0.stats(), solo.stats());
        assert_eq!(unpooled(l1.stats()), solo.stats());
        // One block published once, one hit served.
        assert_eq!(l1.stats().pool_hits, 1);
        assert!(l1.stats().pool_saved_ns > 0);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn a_lane_never_pools_its_own_files() {
        let (_, disk) = sim_disk();
        let pool = Arc::new(BlockCache::unbounded());
        let lane = disk.lane_view(Arc::new(SimClock::new()), 1, 0, Some(Arc::clone(&pool)));
        let run = lane.create_file();
        lane.append_block(run, tagged(&lane, 4)).unwrap();
        // A decoy under the run's physical id: a read that consulted
        // the pool would hand it back.
        let decoy = tagged(&lane, 9);
        let digest = decoy.checksum();
        pool.put(lane.physical(run), 0, (Arc::new(decoy), digest));
        assert_eq!(*lane.read_block(run, 0).unwrap(), tagged(&lane, 4));
        assert_eq!(*lane.read_block(run, 0).unwrap(), tagged(&lane, 4));
        assert_eq!(pool.len(), 1, "never published");
        assert_eq!(lane.stats().pool_hits, 0);
    }
}
