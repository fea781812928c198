//! Sample-space physical operators (Section 4, Figures 4.3–4.7).
//!
//! A PIE term (a Select–Join–Intersect–Project expression) compiles to
//! a [`PhysTree`] whose nodes evaluate *deltas*: at each stage every
//! leaf draws new disk blocks (cluster sampling without replacement)
//! and each operator produces the new output tuples implied by the new
//! inputs.
//!
//! Binary operators implement the paper's **fulfillment plans**: under
//! *full fulfillment*, a stage-`s` sample is combined with every
//! sample of stages `1..s` of the other side (Figure 4.5's
//! `F₁ᵢ ↔ F₂ₖ` grid — "not only between the current samples, but also
//! between the current and all previous ones"), making "the most use
//! of the sampled data ... at the cost of keeping all intermediate
//! results". Under *partial fulfillment* ([HoOT 88a], reconstructed)
//! only same-stage samples are combined — cheaper per stage, fewer
//! points covered.
//!
//! All operators are sort-based, mirroring the algorithms whose cost
//! formulas the time-control strategies evaluate: binary operators
//! write their incoming deltas to temporary files, sort them, and
//! merge sorted runs pairwise (eqs. 4.2–4.4); projection sorts and
//! deduplicates against the cumulative distinct file (Figure 4.7),
//! maintaining group occupancies for Goodman's estimator. Every step
//! charges the device clock *and* reports its measured duration so
//! the adaptive cost model can re-fit its coefficients.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use eram_relalg::{Catalog, CompiledPredicate, Expr, ExprError, OpKind, Predicate};
use eram_sampling::BlockSampler;
use eram_storage::{
    Block, ColumnarBlock, Deadline, DeviceOp, Disk, HeapFile, Json, Rng, Schema, StorageError,
    Tuple,
};

use crate::config::EngineConfig;
use crate::costs::CostCoeff;
use crate::kernel::{merge_keyed, sort_run, sort_run_with_keys, KeyColumn, KeySpec, MergeKind};
use crate::obs::Phase;
use crate::parallel::map_ordered;
use crate::seltrack::SelTracker;

/// Which sample combinations binary operators evaluate each stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fulfillment {
    /// Combine the new sample with all previous samples of the other
    /// side (the paper's implemented plan).
    #[default]
    Full,
    /// Combine only same-stage samples ([HoOT 88a]'s cheaper plan).
    Partial,
}

/// Where intermediate results live during evaluation.
///
/// The paper's prototype keeps "all the input relations and all the
/// intermediate relations ... always on disks", motivated by very
/// large databases; it also announces a main-memory variant: "after
/// samples are taken, all data processing is confined to the main
/// memory ... the sampling approach with a time-control mechanism
/// can be efficiently implemented and will be very promising for
/// real-time database applications". Both are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Intermediate results are written to and re-read from disk
    /// (the prototype's design; the Section 4 cost formulas).
    #[default]
    DiskResident,
    /// After sample blocks are read, all processing stays in memory:
    /// no temporary files, no output materialization.
    MainMemory,
}

/// How sampled blocks are decoded and flowed between operators.
///
/// Both layouts decode the same on-disk fixed-width pages and produce
/// byte-identical reports and traces — the layout changes only *how*
/// the pure-CPU operator kernels traverse a stage's data, never what
/// they compute or charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockLayout {
    /// Blocks decode to row [`Tuple`]s; operators walk tuples (the
    /// original path, kept verbatim as the oracle).
    #[default]
    Row,
    /// Blocks decode to per-column typed arrays ([`ColumnarBlock`]):
    /// selection evaluates a per-column bitmap and materializes only
    /// surviving rows; merge keys are read straight off key columns.
    Columnar,
}

/// Default [`EngineConfig::run_cache_tuples`] budget: one million tuples
/// (~200 MB of decoded 200-byte paper tuples) held per binary node.
pub const DEFAULT_RUN_CACHE_TUPLES: usize = 1 << 20;

/// Why a stage ended before completing its planned work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// The stage was cut short by the hard deadline; the query is
    /// over and the estimate so far is the answer.
    Deadline,
    /// An unrecoverable storage fault that is neither transient (the
    /// retry policy gave up on those by dropping the block) nor a
    /// lost cluster (absorbed by estimator renormalization) — e.g. an
    /// unknown file or a schema mismatch. The query fails.
    Storage(StorageError),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Deadline => write!(f, "stage aborted by the hard deadline"),
            StageError::Storage(e) => write!(f, "stage failed on storage error: {e}"),
        }
    }
}

impl std::error::Error for StageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageError::Deadline => None,
            StageError::Storage(e) => Some(e),
        }
    }
}

/// Fault-handling counters accumulated while evaluating one stage.
///
/// `blocks_lost` counts clusters dropped from the sample — blocks
/// whose transient faults outlasted the retry budget plus blocks that
/// failed checksum verification. The estimator renormalizes over the
/// surviving blocks automatically, because `points_covered` only ever
/// counts tuples actually read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageHealth {
    /// Storage faults observed (transient errors + corrupt reads).
    pub faults_seen: u64,
    /// Read attempts re-issued after a transient fault.
    pub retries: u64,
    /// Blocks dropped from the sample as unrecoverable.
    pub blocks_lost: u64,
}

impl StageHealth {
    /// Adds another stage's counters into this one.
    pub fn absorb(&mut self, other: StageHealth) {
        self.faults_seen += other.faults_seen;
        self.retries += other.retries;
        self.blocks_lost += other.blocks_lost;
    }
}

/// One measured operator step, for cost-model adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepObservation {
    /// Which coefficient the step exercises.
    pub coeff: CostCoeff,
    /// How many units of it.
    pub units: f64,
    /// Measured duration.
    pub elapsed: Duration,
}

/// Mutable per-stage environment threaded through `advance`.
pub struct StageEnv<'a> {
    /// The device (charges the clock).
    pub disk: Arc<Disk>,
    /// The run's settings: retry policy, tracer, profiler and worker
    /// count are read from here at their use sites.
    pub config: &'a EngineConfig,
    /// Hard deadline to honour mid-stage, if any.
    pub deadline: Option<&'a Deadline>,
    /// Sample fraction of this stage.
    pub fraction: f64,
    /// Collected step timings.
    pub observations: Vec<StepObservation>,
    /// Fault-handling counters accumulated this stage.
    pub health: StageHealth,
}

impl<'a> StageEnv<'a> {
    /// Builds a stage environment with fresh counters.
    pub fn new(
        disk: Arc<Disk>,
        config: &'a EngineConfig,
        deadline: Option<&'a Deadline>,
        fraction: f64,
    ) -> Self {
        StageEnv {
            disk,
            config,
            deadline,
            fraction,
            observations: Vec::new(),
            health: StageHealth::default(),
        }
    }
}

impl StageEnv<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(Deadline::expired)
    }

    fn observe(&mut self, coeff: CostCoeff, units: f64, elapsed: Duration) {
        self.observations.push(StepObservation {
            coeff,
            units,
            elapsed,
        });
    }

    fn now(&self) -> Duration {
        self.disk.clock().elapsed()
    }
}

/// A new-output delta produced by one stage of one node.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The new output records.
    pub records: Records,
    /// Leaf-level points newly covered by this delta.
    pub leaf_points: f64,
}

/// The form a delta's records travel in.
#[derive(Debug, Clone)]
pub enum Records {
    /// Row tuples: every operator's output, and a row-layout leaf's.
    Rows(Vec<Tuple>),
    /// Freshly decoded blocks of a leaf under
    /// [`BlockLayout::Columnar`].
    Columnar(Vec<ColumnarBlock>),
    /// Counted, never decoded: the term's root when the aggregate
    /// reads no rows (plain COUNT over a selection that ran inside
    /// the leaf's scan). No operator takes this form as input.
    Counted(usize),
}

impl Delta {
    /// A plain row-form delta.
    pub fn rows(tuples: Vec<Tuple>, leaf_points: f64) -> Self {
        Delta {
            records: Records::Rows(tuples),
            leaf_points,
        }
    }

    /// Records carried, whatever their form. Charges and selectivity
    /// accounting key off this so every form charges identically.
    pub fn record_count(&self) -> usize {
        match &self.records {
            Records::Rows(tuples) => tuples.len(),
            Records::Columnar(blocks) => blocks.iter().map(ColumnarBlock::len).sum(),
            Records::Counted(n) => *n,
        }
    }

    /// Materializes the delta as row tuples, in record order. A no-op
    /// (move) for row-form deltas.
    ///
    /// # Panics
    /// Panics on [`Records::Counted`]: its rows were never decoded
    /// because the plan said nobody reads them.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self.records {
            Records::Rows(tuples) => tuples,
            Records::Columnar(blocks) => {
                let mut rows = Vec::with_capacity(blocks.iter().map(ColumnarBlock::len).sum());
                for block in &blocks {
                    rows.extend(block.to_tuples());
                }
                rows
            }
            Records::Counted(_) => unreachable!("a counted delta was built to be read by nobody"),
        }
    }
}

/// One sorted run of a binary operator's input (a stage's worth).
pub(crate) struct Run {
    /// The temporary file the run was written to, re-read (charged)
    /// at every merge — the prototype's disk-resident design. `None`
    /// in the main-memory variant.
    file: Option<HeapFile>,
    /// The tuples as sorted at ingest, shared immutably so repeated
    /// merges never copy them: always kept by a main-memory run, and
    /// by a disk-resident one while the node's
    /// [`EngineConfig::run_cache_tuples`] budget had room. A run file
    /// never changes once written, so they stay what decoding it
    /// yields.
    decoded: Option<Arc<[Tuple]>>,
    tuples: u64,
    /// Merge keys extracted once at ingest, aligned index-for-index
    /// with the run's tuples (Schwartzian transform): merges compare
    /// precomputed keys instead of re-projecting per comparison.
    keys: KeyColumn,
    /// Leaf points the run's delta covered (for coverage accounting).
    leaf_points: f64,
}

/// A run file is a temporary of the operator that wrote it: its
/// blocks go back to the disk with the run. Freeing charges nothing
/// and file ids are never reused, so no later charge, fault decision
/// or trace byte depends on it.
impl Drop for Run {
    fn drop(&mut self) {
        if let Some(file) = &self.file {
            file.disk().free_file(file.file_id());
        }
    }
}

pub(crate) struct LeafNode {
    pub(crate) file: HeapFile,
    pub(crate) sampler: BlockSampler,
    pub(crate) cum_tuples: f64,
    /// Decode target for sampled blocks.
    pub(crate) layout: BlockLayout,
}

/// A selection that runs inside its leaf's scan, on the page bytes.
pub(crate) struct FusedScan {
    /// The node's formula compiled against the leaf's record layout.
    compiled: CompiledPredicate,
    /// Whether the passing records are decoded. False only at the
    /// root of a term whose aggregate reads no rows.
    materialize: bool,
}

pub(crate) struct SelectNode {
    pub(crate) child: Box<Node>,
    pub(crate) predicate: Predicate,
    /// Set when the child is a row-layout leaf — the shape selection
    /// push-down produces: the formula is then evaluated by the
    /// leaf's scan and the row filter below never runs.
    pub(crate) fused: Option<FusedScan>,
    pub(crate) tracker: SelTracker,
    pub(crate) memory: MemoryMode,
    pub(crate) out_blocking: f64,
    pub(crate) cum_out: f64,
    pub(crate) cum_leaf_points: f64,
}

pub(crate) struct ProjectNode {
    pub(crate) child: Box<Node>,
    pub(crate) columns: Vec<usize>,
    pub(crate) tracker: SelTracker,
    pub(crate) memory: MemoryMode,
    pub(crate) out_blocking: f64,
    /// Distinct groups seen so far with their sample occupancies
    /// (Goodman's estimator input).
    pub(crate) occupancy: BTreeMap<Tuple, u64>,
    pub(crate) cum_in: f64,
    pub(crate) cum_leaf_points: f64,
}

pub(crate) enum BinKind {
    Join { on: Vec<(usize, usize)> },
    Intersect,
}

pub(crate) struct BinaryNode {
    pub(crate) kind: BinKind,
    pub(crate) left: Box<Node>,
    pub(crate) right: Box<Node>,
    pub(crate) tracker: SelTracker,
    pub(crate) fulfillment: Fulfillment,
    pub(crate) memory: MemoryMode,
    pub(crate) in_schema_left: Schema,
    pub(crate) in_schema_right: Schema,
    pub(crate) out_blocking: f64,
    pub(crate) left_runs: Vec<Run>,
    pub(crate) right_runs: Vec<Run>,
    /// What is left of [`EngineConfig::run_cache_tuples`]: a run of
    /// either side keeps its decoded tuples if they fit, and takes
    /// them off this. Every run read is charged in full either way,
    /// so the budget changes wall-clock time only — never simulated
    /// results.
    pub(crate) run_room: usize,
    pub(crate) cum_out: f64,
    pub(crate) cum_leaf_points: f64,
}

/// The operator label a leaf's profiled phases are attributed to.
const LEAF_LABEL: &str = "leaf";

/// Blocks a leaf hints to the disk at a time, and how many such
/// batches the hints run ahead of the reads. Chosen by measurement.
const PREFETCH_BATCH: usize = 8;
const PREFETCH_AHEAD: usize = 2;

/// A physical operator node.
pub(crate) enum Node {
    Leaf(LeafNode),
    Select(SelectNode),
    Project(ProjectNode),
    Binary(BinaryNode),
}

impl Node {
    /// Leaf points covered so far by this subtree's evaluation.
    pub(crate) fn leaf_points_covered(&self) -> f64 {
        match self {
            Node::Leaf(n) => n.cum_tuples,
            Node::Select(n) => n.cum_leaf_points,
            Node::Project(n) => n.cum_leaf_points,
            Node::Binary(n) => n.cum_leaf_points,
        }
    }

    /// Output tuples produced so far.
    pub(crate) fn cum_output(&self) -> f64 {
        match self {
            Node::Leaf(n) => n.cum_tuples,
            Node::Select(n) => n.cum_out,
            Node::Project(n) => n.occupancy.len() as f64,
            Node::Binary(n) => n.cum_out,
        }
    }

    /// Visits every operator tracker (pre-order).
    pub(crate) fn for_each_tracker<'a>(&'a self, f: &mut dyn FnMut(&'a SelTracker)) {
        match self {
            Node::Leaf(_) => {}
            Node::Select(n) => {
                f(&n.tracker);
                n.child.for_each_tracker(f);
            }
            Node::Project(n) => {
                f(&n.tracker);
                n.child.for_each_tracker(f);
            }
            Node::Binary(n) => {
                f(&n.tracker);
                n.left.for_each_tracker(f);
                n.right.for_each_tracker(f);
            }
        }
    }

    /// Remaining un-drawn blocks, minimized over leaves (0 when any
    /// leaf is exhausted ⇒ no further stage can cover new points for
    /// every dimension... each leaf may still have stock; we stop when
    /// *all* leaves are exhausted).
    pub(crate) fn max_remaining_blocks(&self) -> u64 {
        match self {
            Node::Leaf(n) => n.sampler.remaining(),
            Node::Select(n) => n.child.max_remaining_blocks(),
            Node::Project(n) => n.child.max_remaining_blocks(),
            Node::Binary(n) => n
                .left
                .max_remaining_blocks()
                .max(n.right.max_remaining_blocks()),
        }
    }

    /// The operator label profiled phases are attributed to.
    pub(crate) fn op_label(&self) -> &'static str {
        match self {
            Node::Leaf(_) => LEAF_LABEL,
            Node::Select(_) => "select",
            Node::Project(_) => "project",
            Node::Binary(n) => match n.kind {
                BinKind::Join { .. } => "join",
                BinKind::Intersect => "intersect",
            },
        }
    }

    /// Advances the subtree by one stage at `env.fraction`, returning
    /// the new-output delta. Phases timed inside are attributed to
    /// this node's operator label (innermost node wins, so a join's
    /// leaf children charge their decode to `leaf`, not `join`).
    pub(crate) fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        let _op = env.config.profiler.operator(self.op_label());
        match self {
            Node::Leaf(n) => n.advance(env),
            Node::Select(n) => n.advance(env),
            Node::Project(n) => n.advance(env),
            Node::Binary(n) => n.advance(env),
        }
    }
}

/// Reads one raw block through the stage's retry policy, leaving the
/// (pure) decode to the caller — deferred to worker threads, or, for
/// a run that kept its tuples, skipped entirely.
///
/// * Transient faults are retried up to `retry.max_attempts` total
///   attempts, with the backoff *charged to the clock* — recovery
///   consumes quota exactly like extra I/O, and the hard deadline can
///   fire mid-retry.
/// * A block whose transient faults outlast the retry budget, or that
///   fails checksum verification ([`StorageError::Corrupt`]), is
///   dropped: `Ok(None)`, one cluster lost, query continues.
/// * Any other storage error (unknown file, schema mismatch) is not a
///   degradable fault and fails the stage.
fn read_block_resilient_raw(
    env: &mut StageEnv<'_>,
    file: &HeapFile,
    index: u64,
) -> Result<Option<Arc<Block>>, StageError> {
    let policy = env.config.retry;
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let fetched = {
            // The block-fetch path through the buffer cache / device.
            let _phase = env.config.profiler.phase(Phase::Cache);
            file.read_block_raw(index)
        };
        match fetched {
            Ok(block) => return Ok(Some(block)),
            Err(e) if e.is_transient() => {
                env.health.faults_seen += 1;
                if attempt >= max_attempts {
                    env.health.blocks_lost += 1;
                    env.config.tracer.event("block_lost", || {
                        vec![
                            ("block", Json::from(index)),
                            ("reason", Json::from("retry_exhausted")),
                        ]
                    });
                    return Ok(None);
                }
                env.health.retries += 1;
                let backoff = policy.backoff_for(attempt);
                env.config.tracer.event("retry", || {
                    vec![
                        ("attempt", Json::from(attempt)),
                        ("backoff_ns", Json::from(backoff.as_nanos() as u64)),
                    ]
                });
                {
                    let _phase = env.config.profiler.phase(Phase::RetryBackoff);
                    env.disk.clock().charge(backoff);
                }
                if env.expired() {
                    return Err(StageError::Deadline);
                }
            }
            Err(StorageError::Corrupt { .. }) => {
                env.health.faults_seen += 1;
                env.health.blocks_lost += 1;
                env.config.tracer.event("block_lost", || {
                    vec![
                        ("block", Json::from(index)),
                        ("reason", Json::from("corrupt")),
                    ]
                });
                return Ok(None);
            }
            Err(e) => return Err(StageError::Storage(e)),
        }
    }
}

/// Scans fetched pages of a row-layout leaf in place, in order:
/// evaluates `filter` on each encoded record and decodes a record
/// only if it passes and `materialize` asks for rows. Returns
/// `(scanned, passed, rows)`. Pure CPU — touches neither clock nor
/// tracer.
fn scan_pages(
    file: &HeapFile,
    pages: &[(u64, Arc<Block>)],
    filter: Option<&CompiledPredicate>,
    materialize: bool,
) -> Result<(usize, usize, Vec<Tuple>), StorageError> {
    let (mut scanned, mut passed) = (0, 0);
    let mut rows = Vec::new();
    if materialize && filter.is_none() {
        rows.reserve_exact(pages.len() * file.blocking_factor());
    }
    for (index, block) in pages {
        for record in file.records(*index, block) {
            scanned += 1;
            if let Some(filter) = filter {
                if !filter.eval(record)? {
                    continue;
                }
            }
            passed += 1;
            if materialize {
                rows.push(file.schema().decode(record)?);
            }
        }
    }
    Ok((scanned, passed, rows))
}

impl LeafNode {
    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        self.scan(env, None, true).map(|(_, delta)| delta)
    }

    /// One stage of the leaf: draws, fetches the drawn pages, and
    /// reads them. Returns the number of records scanned — each a
    /// leaf point newly covered — and a delta of those that passed
    /// `filter`, decoded only if `materialize`. A columnar leaf
    /// decodes whole blocks and takes no filter.
    fn scan(
        &mut self,
        env: &mut StageEnv<'_>,
        filter: Option<&CompiledPredicate>,
        materialize: bool,
    ) -> Result<(usize, Delta), StageError> {
        let total = self.sampler.population();
        let want = ((env.fraction * total as f64).round() as u64)
            .max(1)
            .min(self.sampler.remaining());
        let _draw_span = env.config.tracer.span("block_draw");
        let indices: Vec<u64> = {
            let _phase = env.config.profiler.phase(Phase::RngDraw);
            self.sampler.draw(want).to_vec()
        };
        // Taken after the draw: the sampler's one-off O(relation)
        // shuffle is not a per-block cost.
        let start = env.now();
        // The whole stage is known before its first block is read, so
        // the disk hears of each batch `PREFETCH_AHEAD` batches early.
        // A hint is advice: a stage cut short has warmed blocks it
        // never read, and nothing else.
        let mut ahead = indices.chunks(PREFETCH_BATCH);
        let mut hint = || {
            if let Some(batch) = ahead.next() {
                self.file.disk().prefetch(self.file.file_id(), batch);
            }
        };
        (0..PREFETCH_AHEAD).for_each(|_| hint());
        // Fetch phase, serial: every charge, retry, deadline check,
        // and trace event happens on this thread in draw order, so
        // the simulated clock advances identically at any worker
        // count.
        let mut pages = Vec::with_capacity(indices.len());
        for (k, idx) in indices.iter().enumerate() {
            if k > 0 && k % PREFETCH_BATCH == 0 {
                hint();
            }
            let aborted = if env.expired() {
                true
            } else {
                // A lost block is a dropped cluster: `cum_tuples`
                // (the points actually covered) doesn't grow for it,
                // so the cluster estimator renormalizes over
                // surviving blocks.
                match read_block_resilient_raw(env, &self.file, *idx) {
                    Ok(Some(block)) => {
                        pages.push((*idx, block));
                        false
                    }
                    Ok(None) => false,
                    Err(StageError::Deadline) => true,
                    Err(e) => return Err(e),
                }
            };
            if aborted {
                // The unread indices go back to the sampler, so
                // blocks drawn stays equal to blocks fetched. The
                // pages that *were* read go with the stage: the
                // deadline ends the query, and `cum_tuples` counts
                // points only when they are delivered.
                self.sampler.unconsume((indices.len() - k) as u64);
                return Err(StageError::Deadline);
            }
        }
        // Read phase, parallel: pure CPU — touches neither clock nor
        // tracer — fanned out and recombined in draw order. The phase
        // guard wraps the whole fan-out on this thread, so
        // worker-pool time is attributed to `block_decode`. Both
        // layouts read the same fetched pages; only what is built
        // from them differs.
        let file = &self.file;
        let (scanned, records) = match self.layout {
            BlockLayout::Row => {
                // One contiguous run of pages per worker, so a serial
                // scan folds straight into one result.
                let per_worker = pages.len().div_ceil(env.config.workers.max(1)).max(1);
                let parts = {
                    let _phase = env.config.profiler.phase(Phase::BlockDecode);
                    map_ordered(
                        env.config.workers,
                        pages.chunks(per_worker).collect(),
                        |_, part| scan_pages(file, part, filter, materialize),
                    )
                };
                let (mut scanned, mut passed) = (0, 0);
                let mut rows = Vec::new();
                for part in parts {
                    let (n, k, mut decoded) = part.map_err(StageError::Storage)?;
                    scanned += n;
                    passed += k;
                    // The first part's rows are taken as they are: a
                    // serial scan has no other, and copies nothing.
                    if rows.is_empty() {
                        rows = decoded;
                    } else {
                        rows.append(&mut decoded);
                    }
                }
                if materialize {
                    (scanned, Records::Rows(rows))
                } else {
                    (scanned, Records::Counted(passed))
                }
            }
            BlockLayout::Columnar => {
                debug_assert!(filter.is_none() && materialize);
                let decoded = {
                    let _phase = env.config.profiler.phase(Phase::BlockDecode);
                    map_ordered(env.config.workers, pages, |_, (idx, block)| {
                        file.decode_block_columnar(idx, &block)
                    })
                };
                let mut blocks = Vec::with_capacity(decoded.len());
                for d in decoded {
                    blocks.push(d.map_err(StageError::Storage)?);
                }
                let scanned = blocks.iter().map(ColumnarBlock::len).sum();
                (scanned, Records::Columnar(blocks))
            }
        };
        env.observe(
            CostCoeff::BlockRead,
            indices.len() as f64,
            env.now() - start,
        );
        let leaf_points = scanned as f64;
        self.cum_tuples += leaf_points;
        Ok((
            scanned,
            Delta {
                records,
                leaf_points,
            },
        ))
    }
}

/// Charges block writes for materializing `n_tuples` tuples at the
/// given blocking factor (used where the 1989 system would write an
/// output file nobody re-reads: select outputs, operator results).
/// Honours the hard deadline between pages — the paper's timer
/// interrupt fires mid-write too.
fn charge_tuple_writes(
    env: &mut StageEnv<'_>,
    n_tuples: f64,
    blocking: f64,
) -> Result<(), StageError> {
    if n_tuples <= 0.0 {
        return Ok(());
    }
    let pages = (n_tuples / blocking.max(1.0)).ceil() as u64;
    let start = env.now();
    for _ in 0..pages {
        if env.expired() {
            return Err(StageError::Deadline);
        }
        env.disk.charge(DeviceOp::BlockWrite);
    }
    env.observe(CostCoeff::WriteTuple, n_tuples, env.now() - start);
    Ok(())
}

/// Charges `units` of tuple-granularity CPU work in chunks, checking
/// the hard deadline between chunks so an abort never trails the
/// quota by more than one chunk's worth of simulated time (the
/// paper's interrupt granularity is the device operation; ours is a
/// block-sized batch).
fn charge_chunked(
    env: &mut StageEnv<'_>,
    make: impl Fn(u64) -> DeviceOp,
    units: u64,
    chunk: u64,
) -> Result<(), StageError> {
    let chunk = chunk.max(1);
    let mut left = units;
    while left > 0 {
        if env.expired() {
            return Err(StageError::Deadline);
        }
        let c = left.min(chunk);
        env.disk.charge(make(c));
        left -= c;
    }
    Ok(())
}

impl SelectNode {
    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        // A fused selection has already run when the leaf's scan
        // returns: the scan reports how many records it read and
        // hands back only those that passed. Any other child delivers
        // every record and the filter runs below. Either way the
        // charges key off the same two numbers — records scanned,
        // records passed — so fusing removes host work only.
        let (n_in, child) = match (&self.fused, self.child.as_mut()) {
            (Some(fused), Node::Leaf(leaf)) => {
                // Attributed as `Node::advance` on the leaf would be.
                let _op = env.config.profiler.operator(LEAF_LABEL);
                leaf.scan(env, Some(&fused.compiled), fused.materialize)?
            }
            (_, child) => {
                let delta = child.advance(env)?;
                (delta.record_count(), delta)
            }
        };
        if env.expired() {
            return Err(StageError::Deadline);
        }
        let start = env.now();
        charge_chunked(env, DeviceOp::TupleCpu, n_in as u64, 5)?;
        let out = Delta {
            records: if self.fused.is_some() {
                child.records
            } else {
                self.filter(child.records)
            },
            leaf_points: child.leaf_points,
        };
        let n_out = out.record_count() as f64;
        env.observe(CostCoeff::ScanTuple, n_in as f64, env.now() - start);
        if self.memory == MemoryMode::DiskResident {
            charge_tuple_writes(env, n_out, self.out_blocking)?;
        }

        self.tracker.record_stage(n_out, n_in as f64);
        self.cum_out += n_out;
        self.cum_leaf_points += out.leaf_points;
        Ok(out)
    }

    /// The selection over decoded input — what a child that is not a
    /// row-layout leaf (an operator, a columnar leaf) delivers.
    fn filter(&self, input: Records) -> Records {
        match input {
            Records::Rows(tuples) => Records::Rows(
                tuples
                    .into_iter()
                    .filter(|t| self.predicate.eval(t))
                    .collect(),
            ),
            // Columnar blocks evaluate the predicate as a per-column
            // bitmap and materialize only surviving rows.
            Records::Columnar(blocks) => {
                let mut out = Vec::new();
                for block in &blocks {
                    let mask = self.predicate.eval_mask(block);
                    out.extend(block.gather(&mask));
                }
                Records::Rows(out)
            }
            Records::Counted(_) => unreachable!("only a term's root is counted"),
        }
    }
}

/// Sorts tuples by a key spec, charging `n·log₂n` comparisons (in
/// chunks, honouring the hard deadline), and returns the run's key
/// column. Keys are extracted once here (Schwartzian transform) and
/// reused by every later merge instead of being re-projected per
/// comparison.
fn charged_sort(
    env: &mut StageEnv<'_>,
    tuples: &mut Vec<Tuple>,
    spec: &KeySpec,
) -> Result<KeyColumn, StageError> {
    let n = tuples.len();
    if n < 2 {
        return Ok(spec.column_for(tuples));
    }
    let units = n as f64 * (n as f64).log2();
    let start = env.now();
    charge_chunked(env, DeviceOp::Compare, units.ceil() as u64, 128)?;
    let keys = sort_run(tuples, spec);
    env.observe(CostCoeff::SortUnit, units, env.now() - start);
    Ok(keys)
}

/// [`charged_sort`] for a run whose merge keys were already extracted
/// (columnar ingest reads them straight off the key columns):
/// identical charges and observations, with the Schwartzian pairing
/// built from the precomputed keys instead of re-projecting.
fn charged_sort_prekeyed(
    env: &mut StageEnv<'_>,
    tuples: &mut Vec<Tuple>,
    spec: &KeySpec,
    prekeys: Vec<Tuple>,
) -> Result<KeyColumn, StageError> {
    let n = tuples.len();
    if n < 2 {
        return Ok(spec.column_for(tuples));
    }
    let units = n as f64 * (n as f64).log2();
    let start = env.now();
    charge_chunked(env, DeviceOp::Compare, units.ceil() as u64, 128)?;
    let keys = sort_run_with_keys(tuples, prekeys);
    env.observe(CostCoeff::SortUnit, units, env.now() - start);
    Ok(keys)
}

impl ProjectNode {
    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        let child = self.child.advance(env)?;
        if env.expired() {
            return Err(StageError::Deadline);
        }
        let n_in = child.record_count();
        // Step 1+2 (Figure 4.7): project and sort the new tuples.
        // Columnar blocks project straight from their typed columns —
        // only the projected-out values are ever materialized.
        let mut projected: Vec<Tuple> = {
            let start = env.now();
            charge_chunked(env, DeviceOp::TupleCpu, n_in as u64, 5)?;
            let columns = &self.columns;
            let p: Vec<Tuple> = match &child.records {
                Records::Rows(tuples) => tuples.iter().map(|t| t.project(columns)).collect(),
                Records::Columnar(blocks) => blocks
                    .iter()
                    .flat_map(|block| {
                        (0..block.len()).map(move |row| {
                            Tuple::new(
                                columns
                                    .iter()
                                    .map(|&c| block.column(c).value(row))
                                    .collect(),
                            )
                        })
                    })
                    .collect(),
                Records::Counted(_) => unreachable!("only a term's root is counted"),
            };
            env.observe(CostCoeff::ScanTuple, n_in as f64, env.now() - start);
            p
        };
        charged_sort(env, &mut projected, &KeySpec::Whole)?;

        // Step 3: merge against the cumulative distinct file,
        // updating occupancies and collecting the new groups.
        let cum = self.occupancy.len() as f64;
        let merge_units = projected.len() as f64 + cum;
        let start = env.now();
        charge_chunked(env, DeviceOp::Compare, merge_units.ceil() as u64, 128)?;
        let mut new_groups: Vec<Tuple> = Vec::new();
        for t in projected {
            if env.expired() {
                return Err(StageError::Deadline);
            }
            match self.occupancy.get_mut(&t) {
                Some(c) => *c += 1,
                None => {
                    self.occupancy.insert(t.clone(), 1);
                    new_groups.push(t);
                }
            }
        }
        env.observe(CostCoeff::MergeTuple, merge_units, env.now() - start);
        if self.memory == MemoryMode::DiskResident {
            // Rewrite the distinct file with the enlarged group set.
            charge_tuple_writes(env, self.occupancy.len() as f64, self.out_blocking)?;
        }

        self.tracker
            .record_stage(new_groups.len() as f64, n_in as f64);
        self.cum_in += n_in as f64;
        self.cum_leaf_points += child.leaf_points;
        Ok(Delta::rows(new_groups, child.leaf_points))
    }
}

/// One merge pair staged for the parallel phase: both runs' tuples
/// and their precomputed key columns.
type StagedPair = (Arc<[Tuple]>, KeyColumn, Arc<[Tuple]>, KeyColumn);

impl BinKind {
    fn op_kind(&self) -> OpKind {
        match self {
            BinKind::Join { .. } => OpKind::Join,
            BinKind::Intersect => OpKind::Intersect,
        }
    }

    /// Key spec for left-side runs (join columns, or the whole tuple
    /// for set intersection).
    fn left_spec(&self) -> KeySpec {
        match self {
            BinKind::Join { on } => KeySpec::Columns(on.iter().map(|&(l, _)| l).collect()),
            BinKind::Intersect => KeySpec::Whole,
        }
    }

    /// Key spec for right-side runs.
    fn right_spec(&self) -> KeySpec {
        match self {
            BinKind::Join { on } => KeySpec::Columns(on.iter().map(|&(_, r)| r).collect()),
            BinKind::Intersect => KeySpec::Whole,
        }
    }

    fn merge_kind(&self) -> MergeKind {
        match self {
            BinKind::Join { .. } => MergeKind::Join,
            BinKind::Intersect => MergeKind::Intersect,
        }
    }
}

impl BinaryNode {
    /// Total tuples across the left-side runs ingested so far.
    pub(crate) fn left_runs_tuples(&self) -> f64 {
        self.left_runs.iter().map(|r| r.tuples as f64).sum()
    }

    /// Total tuples across the right-side runs ingested so far.
    pub(crate) fn right_runs_tuples(&self) -> f64 {
        self.right_runs.iter().map(|r| r.tuples as f64).sum()
    }

    /// Number of left-side runs (one per stage so far).
    pub(crate) fn left_run_count(&self) -> usize {
        self.left_runs.len()
    }

    /// Number of right-side runs (one per stage so far).
    pub(crate) fn right_run_count(&self) -> usize {
        self.right_runs.len()
    }

    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        let dl = self.left.advance(env)?;
        let dr = self.right.advance(env)?;
        if env.expired() {
            return Err(StageError::Deadline);
        }

        // Ingest: sort each delta and persist it as a run
        // (Figures 4.4/4.6 steps 1–2: write to temporary files, sort).
        self.ingest(env, dl, true)?;
        self.ingest(env, dr, false)?;

        // Step 3: merge the new runs against the other side per the
        // fulfillment plan (Figure 4.5's pair grid).
        let mut pair_points = 0.0;
        let mut leaf_points = 0.0;

        let (l_end, r_end) = (self.left_runs.len(), self.right_runs.len());
        let pairs: Vec<(usize, usize)> = match self.fulfillment {
            Fulfillment::Full => {
                let mut v = Vec::new();
                // new left × all right (old + new)…
                for r in 0..r_end {
                    v.push((l_end - 1, r));
                }
                // …plus old left × new right.
                for l in 0..l_end - 1 {
                    v.push((l, r_end - 1));
                }
                v
            }
            Fulfillment::Partial => vec![(l_end - 1, r_end - 1)],
        };

        // Charged phase, serial: per-pair run reads, comparison
        // charges, and cost observations in the canonical pair order
        // — the simulated clock and the trace advance exactly as a
        // single-threaded run's would. A run that kept its tuples
        // still pays every block read (and consumes every fault draw)
        // of its file; only the re-decode is skipped.
        let (left_spec, right_spec) = (self.kind.left_spec(), self.kind.right_spec());
        let mut staged: Vec<StagedPair> = Vec::with_capacity(pairs.len());
        for &(li, ri) in &pairs {
            if env.expired() {
                return Err(StageError::Deadline);
            }
            let start = env.now();
            let (lt, lk) = read_run(env, &self.left_runs[li], &left_spec)?;
            let (rt, rk) = read_run(env, &self.right_runs[ri], &right_spec)?;
            charge_chunked(env, DeviceOp::Compare, (lt.len() + rt.len()) as u64, 128)?;
            env.observe(
                CostCoeff::MergeTuple,
                (lt.len() + rt.len()) as f64,
                env.now() - start,
            );
            let (lrun, rrun) = (&self.left_runs[li], &self.right_runs[ri]);
            pair_points += lrun.tuples as f64 * rrun.tuples as f64;
            leaf_points += lrun.leaf_points * rrun.leaf_points;
            staged.push((lt, lk, rt, rk));
        }
        // Merge phase, parallel: each pair's keyed merge is pure CPU
        // over the staged runs and their precomputed key columns;
        // results concatenate in pair order. The phase guard wraps the
        // whole fan-out on this thread, so worker-pool time is
        // attributed to `run_merge`.
        let merged = {
            let _phase = env.config.profiler.phase(Phase::RunMerge);
            let mk = self.kind.merge_kind();
            map_ordered(env.config.workers, staged, move |_, (lt, lk, rt, rk)| {
                merge_keyed(mk, &lt, &lk, &rt, &rk)
            })
        };
        let mut out: Vec<Tuple> = Vec::with_capacity(merged.iter().map(Vec::len).sum());
        for m in merged {
            out.extend(m);
        }

        // Materialize the operator's new output (kept on disk in the
        // prototype's design: "all the intermediate relations are
        // always kept on disks").
        if self.memory == MemoryMode::DiskResident {
            charge_tuple_writes(env, out.len() as f64, self.out_blocking)?;
        }

        self.tracker.record_stage(out.len() as f64, pair_points);
        self.cum_out += out.len() as f64;
        self.cum_leaf_points += leaf_points;
        Ok(Delta::rows(out, leaf_points))
    }

    fn ingest(
        &mut self,
        env: &mut StageEnv<'_>,
        delta: Delta,
        left: bool,
    ) -> Result<(), StageError> {
        let spec = if left {
            self.kind.left_spec()
        } else {
            self.kind.right_spec()
        };
        let leaf_points = delta.leaf_points;
        // Columnar deltas read merge keys straight off the key
        // columns before any row tuple exists; the prekeyed stable
        // sort then reproduces `sort_run`'s order exactly. (A Whole
        // spec keys on the full tuple, so there is nothing to skip —
        // it takes the ordinary path.)
        let prekeys: Option<Vec<Tuple>> = match (&delta.records, &spec) {
            (Records::Columnar(blocks), KeySpec::Columns(_)) => {
                let mut keys: Vec<Tuple> = Vec::with_capacity(delta.record_count());
                for block in blocks {
                    let mut ks = spec
                        .extract_columnar(block)
                        .expect("a Columns spec extracts keys");
                    keys.append(&mut ks);
                }
                Some(keys)
            }
            _ => None,
        };
        let mut tuples = delta.into_rows();
        let keys = match prekeys {
            Some(prekeys) => charged_sort_prekeyed(env, &mut tuples, &spec, prekeys)?,
            None => charged_sort(env, &mut tuples, &spec)?,
        };
        let n = tuples.len();
        let (file, decoded) = match self.memory {
            MemoryMode::DiskResident => {
                let schema = if left {
                    self.in_schema_left.clone()
                } else {
                    self.in_schema_right.clone()
                };
                let start = env.now();
                let mut file = HeapFile::create(env.disk.clone(), schema, true);
                file.append_all(tuples.iter().cloned())
                    .map_err(StageError::Storage)?;
                file.flush().map_err(StageError::Storage)?;
                env.observe(CostCoeff::WriteTuple, n as f64, env.now() - start);
                // The sorted tuples just written stay with the run
                // while the budget has room: the fixed-width encoding
                // round-trips bit-faithfully, so they equal what
                // re-decoding the file would produce.
                let keep = n <= self.run_room;
                if keep {
                    self.run_room -= n;
                }
                (Some(file), keep.then(|| tuples.into()))
            }
            MemoryMode::MainMemory => (None, Some(tuples.into())),
        };
        let run = Run {
            file,
            decoded,
            tuples: n as u64,
            keys,
            leaf_points,
        };
        if left {
            self.left_runs.push(run);
        } else {
            self.right_runs.push(run);
        }
        Ok(())
    }
}

/// Reads a whole sorted run, honouring the deadline at block
/// granularity, and returns it as a shared slice plus its aligned
/// merge-key column. Disk-resident runs charge block reads; in-memory
/// runs are free — that asymmetry *is* the main-memory variant's
/// advantage. Run blocks go through the same retry-or-drop policy as
/// sample blocks: a lost run block under-merges its tuples, which is
/// degradation, not failure.
///
/// The tuples a run kept sit *behind* the charged fetch loop, never
/// in front of it: every block read is charged (and every fault-plan
/// draw consumed) exactly as for a run that kept nothing, and only a
/// complete read is then served from memory. A degraded read (lost
/// blocks) yields a subsequence of the run, so the ingest-time key
/// column no longer aligns; such reads decode the survivors and
/// rebuild their keys.
fn read_run(
    env: &mut StageEnv<'_>,
    run: &Run,
    spec: &KeySpec,
) -> Result<(Arc<[Tuple]>, KeyColumn), StageError> {
    let Some(file) = &run.file else {
        if env.expired() {
            return Err(StageError::Deadline);
        }
        let tuples = run
            .decoded
            .clone()
            .expect("a run with no file keeps its tuples");
        return Ok((tuples, run.keys.clone()));
    };
    let mut fetched: Vec<(u64, Arc<Block>)> = Vec::with_capacity(file.num_blocks() as usize);
    let mut complete = true;
    for b in 0..file.num_blocks() {
        if env.expired() {
            return Err(StageError::Deadline);
        }
        match read_block_resilient_raw(env, file, b)? {
            Some(block) => fetched.push((b, block)),
            None => complete = false,
        }
    }
    if let (true, Some(tuples)) = (complete, &run.decoded) {
        return Ok((tuples.clone(), run.keys.clone()));
    }
    // Decode phase, parallel: pure CPU over the fetched raw blocks,
    // recombined in block order.
    let decoded = {
        let _phase = env.config.profiler.phase(Phase::BlockDecode);
        map_ordered(env.config.workers, fetched, |_, (idx, block)| {
            file.decode_block(idx, &block)
        })
    };
    let mut out: Vec<Tuple> = Vec::with_capacity(file.num_tuples() as usize);
    for d in decoded {
        out.extend(d.map_err(StageError::Storage)?);
    }
    let keys = if complete {
        run.keys.clone()
    } else {
        spec.column_for(&out)
    };
    Ok((out.into(), keys))
}

/// A compiled PIE term: the operator tree plus its point-space
/// geometry.
pub struct PhysTree {
    pub(crate) root: Node,
    /// `N` — total points (product of leaf relation cardinalities).
    pub(crate) total_points: f64,
    /// `B` — total space blocks (product of leaf block counts).
    pub(crate) total_space_blocks: f64,
    /// True if the term root is a projection (Goodman estimation).
    pub(crate) projection_root: bool,
}

/// Compiles one term: what every node of the tree is built from, and
/// the point-space geometry accumulated as the leaves go by.
struct Compiler<'a> {
    catalog: &'a Catalog,
    disk: &'a Arc<Disk>,
    config: &'a EngineConfig,
    /// Seeds the per-leaf block samplers, in leaf order.
    rng: &'a mut Rng,
    total_points: f64,
    total_space_blocks: f64,
}

impl Compiler<'_> {
    fn node(&mut self, expr: &Expr) -> Result<Node, ExprError> {
        match expr {
            Expr::Relation(name) => {
                // Re-base the relation onto the execution disk: same
                // backend bytes, but draws charge *this* execution's
                // clock — which is what lets the server run each job
                // on its own lane view of the shared device.
                let file = self
                    .catalog
                    .relation(name)
                    .ok_or_else(|| ExprError::UnknownRelation(name.clone()))?
                    .clone()
                    .with_disk(self.disk.clone());
                self.total_points *= file.num_tuples() as f64;
                self.total_space_blocks *= file.num_blocks() as f64;
                let leaf_rng = Rng::seed_from_u64(self.rng.next_u64());
                let sampler = BlockSampler::new(file.num_blocks(), leaf_rng);
                Ok(Node::Leaf(LeafNode {
                    file,
                    sampler,
                    cum_tuples: 0.0,
                    layout: self.config.block_layout,
                }))
            }
            Expr::Select { input, predicate } => {
                let (child, tracker, out_blocking) = self.unary(expr, input, OpKind::Select)?;
                let fused = match &child {
                    Node::Leaf(leaf) if leaf.layout == BlockLayout::Row => Some(FusedScan {
                        compiled: predicate.compile(leaf.file.schema())?,
                        materialize: true,
                    }),
                    _ => None,
                };
                Ok(Node::Select(SelectNode {
                    child: Box::new(child),
                    predicate: predicate.clone(),
                    fused,
                    tracker,
                    memory: self.config.memory,
                    out_blocking,
                    cum_out: 0.0,
                    cum_leaf_points: 0.0,
                }))
            }
            Expr::Project { input, columns } => {
                let (child, tracker, out_blocking) = self.unary(expr, input, OpKind::Project)?;
                Ok(Node::Project(ProjectNode {
                    child: Box::new(child),
                    columns: columns.clone(),
                    tracker,
                    memory: self.config.memory,
                    out_blocking,
                    occupancy: BTreeMap::new(),
                    cum_in: 0.0,
                    cum_leaf_points: 0.0,
                }))
            }
            Expr::Join { left, right, on } => {
                self.binary(expr, BinKind::Join { on: on.clone() }, left, right)
            }
            Expr::Intersect { left, right } => self.binary(expr, BinKind::Intersect, left, right),
            Expr::Union { .. } | Expr::Difference { .. } => {
                // The PIE rewrite removes these before compilation.
                Err(ExprError::IncompatibleSchemas(
                    "union/difference must be rewritten away before compilation".into(),
                ))
            }
        }
    }

    /// The child of a selection or projection `expr`, the operator's
    /// tracker over the child's share of the point space, and the
    /// blocking factor of its output.
    fn unary(
        &mut self,
        expr: &Expr,
        input: &Expr,
        kind: OpKind,
    ) -> Result<(Node, SelTracker, f64), ExprError> {
        let before = self.total_points;
        let child = self.node(input)?;
        let subtree_points = self.total_points / before.max(1.0);
        let tracker = SelTracker::new(kind, subtree_points, 0.0)
            .with_initial(self.config.defaults.initial_for(kind, 0.0));
        Ok((child, tracker, self.out_blocking(expr)?))
    }

    fn binary(
        &mut self,
        expr: &Expr,
        kind: BinKind,
        left: &Expr,
        right: &Expr,
    ) -> Result<Node, ExprError> {
        let before = self.total_points;
        let l = self.node(left)?;
        let mid = self.total_points;
        let r = self.node(right)?;
        let left_points = mid / before.max(1.0);
        let right_points = self.total_points / mid.max(1.0);
        let op_kind = kind.op_kind();
        let max_operand = left_points.max(right_points);
        let tracker = SelTracker::new(op_kind, left_points * right_points, max_operand)
            .with_initial(self.config.defaults.initial_for(op_kind, max_operand));
        Ok(Node::Binary(BinaryNode {
            in_schema_left: left.output_schema(self.catalog)?,
            in_schema_right: right.output_schema(self.catalog)?,
            kind,
            left: Box::new(l),
            right: Box::new(r),
            tracker,
            fulfillment: self.config.fulfillment,
            memory: self.config.memory,
            out_blocking: self.out_blocking(expr)?,
            left_runs: Vec::new(),
            right_runs: Vec::new(),
            run_room: self.config.run_cache_tuples,
            cum_out: 0.0,
            cum_leaf_points: 0.0,
        }))
    }

    /// Output tuples of `expr` to a block of the execution disk.
    fn out_blocking(&self, expr: &Expr) -> Result<f64, ExprError> {
        let schema = expr.output_schema(self.catalog)?;
        Ok(schema.blocking_factor(self.disk.block_size()) as f64)
    }
}

impl PhysTree {
    /// Compiles a union/difference-free expression against stored
    /// relations as `config` plans it (selectivity defaults,
    /// fulfillment, memory mode, run budget, block layout). `rng`
    /// seeds the per-leaf block samplers.
    pub fn build(
        expr: &Expr,
        catalog: &Catalog,
        disk: &Arc<Disk>,
        config: &EngineConfig,
        rng: &mut Rng,
    ) -> Result<PhysTree, ExprError> {
        expr.output_schema(catalog)?; // full validation up front
        let mut compiler = Compiler {
            catalog,
            disk,
            config,
            rng,
            total_points: 1.0,
            total_space_blocks: 1.0,
        };
        let root = compiler.node(expr)?;
        Ok(PhysTree {
            root,
            total_points: compiler.total_points,
            total_space_blocks: compiler.total_space_blocks,
            projection_root: matches!(expr, Expr::Project { .. }),
        })
    }

    /// `N`, the point-space size.
    pub fn total_points(&self) -> f64 {
        self.total_points
    }

    /// `B`, the space-block count.
    pub fn total_space_blocks(&self) -> f64 {
        self.total_space_blocks
    }

    /// True if the term root is a projection (the count estimate uses
    /// Goodman's estimator over group occupancies).
    pub fn projection_root(&self) -> bool {
        self.projection_root
    }

    /// Leaf points covered so far.
    pub fn points_covered(&self) -> f64 {
        self.root.leaf_points_covered()
    }

    /// Output tuples (or distinct groups) found so far.
    pub fn ones_found(&self) -> f64 {
        self.root.cum_output()
    }

    /// Group occupancies if the root is a projection.
    pub fn occupancies(&self) -> Option<Vec<u64>> {
        match &self.root {
            Node::Project(p) => Some(p.occupancy.values().copied().collect()),
            _ => None,
        }
    }

    /// True when every leaf has drawn its entire relation (census).
    pub fn exhausted(&self) -> bool {
        self.root.max_remaining_blocks() == 0
    }

    /// Tells the term that nothing reads its output rows (a plain
    /// COUNT looks only at [`PhysTree::ones_found`]): a root selection
    /// fused into its leaf's scan then counts the records that pass
    /// without decoding them. Any other root still builds its rows.
    pub(crate) fn count_only(&mut self) {
        if let Node::Select(SelectNode {
            fused: Some(fused), ..
        }) = &mut self.root
        {
            fused.materialize = false;
        }
    }

    /// Advances the whole term by one stage.
    ///
    /// `Err(StageError::Deadline)` is terminal for the tree: what the
    /// cut stage had read is dropped, a binary node may be left one
    /// run ahead on one side, and `advance` must not be called again.
    pub fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        self.root.advance(env)
    }

    /// Disk blocks drawn so far, summed over operand relations.
    pub fn blocks_drawn(&self) -> u64 {
        fn walk(node: &Node) -> u64 {
            match node {
                Node::Leaf(n) => n.sampler.drawn(),
                Node::Select(n) => walk(&n.child),
                Node::Project(n) => walk(&n.child),
                Node::Binary(n) => walk(&n.left) + walk(&n.right),
            }
        }
        walk(&self.root)
    }

    /// For a projection root: the pre-projection child's cumulative
    /// output tuples and leaf points covered (Goodman's population
    /// plug-in). `None` for other roots.
    pub fn projection_child_stats(&self) -> Option<(f64, f64)> {
        match &self.root {
            Node::Project(p) => Some((p.child.cum_output(), p.child.leaf_points_covered())),
            _ => None,
        }
    }

    /// Visits every operator tracker.
    pub fn for_each_tracker<'a>(&'a self, f: &mut dyn FnMut(&'a SelTracker)) {
        self.root.for_each_tracker(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_relalg::CmpOp;
    use eram_storage::{ColumnType, DeviceProfile, SimClock, Value};

    fn setup(rows: &[(&str, Vec<(i64, i64)>)]) -> (Arc<Disk>, Catalog) {
        let clock = Arc::new(SimClock::new());
        let disk = Disk::new(clock, DeviceProfile::sun_3_60().without_jitter(), 5);
        let mut cat = Catalog::new();
        for (name, data) in rows {
            let schema =
                Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
            let hf = HeapFile::load(
                disk.clone(),
                schema,
                data.iter()
                    .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)])),
            )
            .unwrap();
            cat.register(*name, hf);
        }
        (disk, cat)
    }

    /// The engine's defaults, as every test that varies nothing runs.
    fn paper() -> &'static EngineConfig {
        static PAPER: std::sync::OnceLock<EngineConfig> = std::sync::OnceLock::new();
        PAPER.get_or_init(EngineConfig::default)
    }

    fn env(disk: &Arc<Disk>, fraction: f64) -> StageEnv<'static> {
        StageEnv::new(disk.clone(), paper(), None, fraction)
    }

    fn rows(n: i64) -> Vec<(i64, i64)> {
        (0..n).map(|i| (i, i % 10)).collect()
    }

    #[test]
    fn full_census_select_recovers_exact_count() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 3));
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(1)).unwrap();
        let mut e = env(&disk, 1.0);
        tree.advance(&mut e).unwrap();
        assert!(tree.exhausted());
        assert_eq!(tree.points_covered(), 100.0);
        assert_eq!(tree.ones_found(), 30.0); // b ∈ {0,1,2}
    }

    #[test]
    fn staged_select_accumulates_without_double_counting() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(2)).unwrap();
        let mut covered = 0.0;
        for _ in 0..4 {
            let mut e = env(&disk, 0.25);
            tree.advance(&mut e).unwrap();
            assert!(tree.points_covered() > covered);
            covered = tree.points_covered();
        }
        assert_eq!(tree.points_covered(), 100.0);
        assert_eq!(tree.ones_found(), 50.0);
    }

    #[test]
    fn full_census_intersect_matches_exact() {
        let a: Vec<(i64, i64)> = (0..50).map(|i| (i, 0)).collect();
        let b: Vec<(i64, i64)> = (25..75).map(|i| (i, 0)).collect();
        let (disk, cat) = setup(&[("a", a), ("b", b)]);
        let expr = Expr::relation("a").intersect(Expr::relation("b"));
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(3)).unwrap();
        // Multiple stages with full fulfillment must still find every
        // cross-stage match.
        for _ in 0..3 {
            let mut e = env(&disk, 0.4);
            tree.advance(&mut e).unwrap();
        }
        assert!(tree.exhausted());
        assert_eq!(tree.ones_found(), 25.0);
        assert_eq!(tree.points_covered(), 2500.0);
    }

    #[test]
    fn full_census_join_matches_exact() {
        let a: Vec<(i64, i64)> = (0..30).map(|i| (i % 5, i)).collect();
        let b: Vec<(i64, i64)> = (0..20).map(|i| (i % 5, -i)).collect();
        let (disk, cat) = setup(&[("a", a.clone()), ("b", b.clone())]);
        let expr = Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)]);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(4)).unwrap();
        for _ in 0..2 {
            let mut e = env(&disk, 0.6);
            tree.advance(&mut e).unwrap();
        }
        assert!(tree.exhausted());
        // Each key 0..4 appears 6× in a and 4× in b → 5·24 = 120.
        assert_eq!(tree.ones_found(), 120.0);
        assert_eq!(tree.points_covered(), 600.0);
    }

    #[test]
    fn partial_fulfillment_covers_fewer_points() {
        let a: Vec<(i64, i64)> = (0..50).map(|i| (i, 0)).collect();
        let b: Vec<(i64, i64)> = (0..50).map(|i| (i, 0)).collect();
        let (disk, cat) = setup(&[("a", a.clone()), ("b", b)]);
        let expr = Expr::relation("a").intersect(Expr::relation("b"));
        let build = |fulfillment: Fulfillment, seed: u64, disk: &Arc<Disk>, cat: &Catalog| {
            let cfg = EngineConfig {
                fulfillment,
                ..EngineConfig::default()
            };
            PhysTree::build(&expr, cat, disk, &cfg, &mut Rng::seed_from_u64(seed)).unwrap()
        };
        let mut full = build(Fulfillment::Full, 7, &disk, &cat);
        let mut partial = build(Fulfillment::Partial, 7, &disk, &cat);
        for _ in 0..3 {
            let mut e = env(&disk, 0.2);
            full.advance(&mut e).unwrap();
            let mut e = env(&disk, 0.2);
            partial.advance(&mut e).unwrap();
        }
        assert!(
            full.points_covered() > partial.points_covered(),
            "full {} vs partial {}",
            full.points_covered(),
            partial.points_covered()
        );
    }

    #[test]
    fn projection_tracks_occupancies() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r").project(vec![1]);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(5)).unwrap();
        assert!(tree.projection_root());
        let mut e = env(&disk, 1.0);
        tree.advance(&mut e).unwrap();
        let occ = tree.occupancies().unwrap();
        assert_eq!(occ.len(), 10); // values 0..9
        assert_eq!(occ.iter().sum::<u64>(), 100);
        assert_eq!(tree.ones_found(), 10.0);
    }

    #[test]
    fn advancing_charges_the_clock() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r").select(Predicate::True);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(6)).unwrap();
        let before = disk.clock().elapsed();
        let mut e = env(&disk, 0.5);
        tree.advance(&mut e).unwrap();
        assert!(disk.clock().elapsed() > before);
        assert!(!e.observations.is_empty());
        assert!(e
            .observations
            .iter()
            .any(|o| o.coeff == CostCoeff::BlockRead));
    }

    #[test]
    fn hard_deadline_aborts_mid_stage() {
        let (disk, cat) = setup(&[("r", rows(10_000))]);
        let expr = Expr::relation("r").select(Predicate::True);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(7)).unwrap();
        // Quota shorter than the stage needs (2000 blocks at ~30 ms).
        let deadline = Deadline::new(disk.clock().clone(), Duration::from_secs(1));
        let mut e = StageEnv::new(disk.clone(), paper(), Some(&deadline), 1.0);
        assert!(matches!(tree.advance(&mut e), Err(StageError::Deadline)));
        assert!(deadline.expired());
        // The abort happened at block granularity — not long after T.
        assert!(deadline.overspent() < Duration::from_millis(200));
    }

    #[test]
    fn mid_draw_abort_returns_undrawn_blocks_and_delivers_nothing() {
        // Regression: a mid-draw deadline abort used to leave every
        // index of the draw consumed in the sampler, so the stage
        // reported blocks it never fetched.
        let (disk, cat) = setup(&[("r", rows(10_000))]);
        let expr = Expr::relation("r");
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(23)).unwrap();
        // 1 s quota vs a 2000-block full draw (~30 ms/block): the
        // deadline fires a few dozen blocks in.
        let deadline = Deadline::new(disk.clock().clone(), Duration::from_secs(1));
        let mut e = StageEnv::new(disk.clone(), paper(), Some(&deadline), 1.0);
        assert!(matches!(tree.advance(&mut e), Err(StageError::Deadline)));
        let Node::Leaf(leaf) = &tree.root else {
            panic!("leaf-only tree");
        };
        // The unread tail of the draw went back to the population:
        // blocks drawn is blocks fetched…
        let drawn = leaf.sampler.drawn();
        assert!(0 < drawn && drawn < 2_000, "abort left whole draw consumed");
        assert_eq!(drawn, disk.stats().block_reads);
        assert_eq!(leaf.sampler.remaining(), leaf.sampler.population() - drawn);
        // …and the cut stage, the tree's last, covered nothing.
        assert_eq!(tree.points_covered(), 0.0);
    }

    /// A leaf-only tree over a 400-block relation, on a disk of its
    /// own: two calls build twins.
    fn leaf_twin() -> (Arc<Disk>, PhysTree) {
        let (disk, cat) = setup(&[("r", rows(2_000))]);
        let tree = PhysTree::build(
            &Expr::relation("r"),
            &cat,
            &disk,
            paper(),
            &mut Rng::seed_from_u64(37),
        )
        .unwrap();
        (disk, tree)
    }

    fn leaf_of(tree: &mut PhysTree) -> &mut LeafNode {
        match &mut tree.root {
            Node::Leaf(leaf) => leaf,
            _ => panic!("leaf-only tree"),
        }
    }

    #[test]
    fn a_hinted_stage_delivers_what_one_at_a_time_reads_do_at_every_window_edge() {
        // Stage sizes on both sides of every batch boundary the hint
        // window has, the constants' own edges included.
        let (b, a) = (PREFETCH_BATCH, PREFETCH_AHEAD);
        let mut sizes = vec![1, 7, 8, 9, 16, 17, 24, 25];
        sizes.extend([b - 1, b + 1, a * b - 1, a * b, a * b + 1, (a + 1) * b]);
        let (disk, mut tree) = leaf_twin();
        let (twin_disk, mut twin) = leaf_twin();
        for blocks in sizes {
            let mut e = env(&disk, blocks as f64 / 400.0);
            let staged = tree.advance(&mut e).unwrap().into_rows();
            let leaf = leaf_of(&mut twin);
            let mut one_at_a_time = Vec::new();
            for idx in leaf.sampler.draw(blocks as u64).to_vec() {
                one_at_a_time.extend(leaf.file.read_block(idx).unwrap());
            }
            assert_eq!(staged.len(), blocks * 5, "a {blocks}-block stage");
            assert_eq!(staged, one_at_a_time, "a {blocks}-block stage");
            assert_eq!(disk.stats(), twin_disk.stats());
            assert_eq!(disk.clock().elapsed(), twin_disk.clock().elapsed());
        }
    }

    #[test]
    fn a_deadline_inside_the_hint_window_counts_only_the_blocks_read() {
        // The hints run ahead of the reads; the charges, the counters
        // and the sampler must not. A 40-block stage is cut after
        // exactly `k` reads, inside, at the edge of and past the
        // first window.
        for workers in [1, 4] {
            for k in [0u32, 1, 3, 8, 15, 16, 17, 30] {
                let (disk, mut tree) = leaf_twin();
                let cfg = EngineConfig {
                    workers,
                    ..EngineConfig::default()
                };
                let quota = disk.profile().block_read * k;
                let deadline = Deadline::new(disk.clock().clone(), quota);
                let mut e = StageEnv::new(disk.clone(), &cfg, Some(&deadline), 0.1);
                assert!(matches!(tree.advance(&mut e), Err(StageError::Deadline)));
                assert_eq!(disk.stats().block_reads, u64::from(k), "workers {workers}");
                assert_eq!(disk.clock().elapsed(), quota);
                let leaf = leaf_of(&mut tree);
                assert_eq!(leaf.sampler.drawn(), u64::from(k));
                assert_eq!(leaf.sampler.remaining(), 400 - u64::from(k));
                assert_eq!(leaf.cum_tuples, 0.0, "a cut stage delivers nothing");
            }
        }
    }

    #[test]
    fn counting_scan_charges_and_counts_exactly_what_the_decoding_scan_does() {
        // A plain COUNT tells the tree nobody reads its rows: the
        // fused scan then decodes nothing. Scanned, passed, coverage,
        // the simulated clock and every cost observation must be what
        // the materializing scan produces — only host work differs.
        let run = |count_only: bool| {
            let (disk, cat) = setup(&[("r", rows(1_000))]);
            let expr = Expr::relation("r").select(
                Predicate::col_cmp(1, CmpOp::Lt, 3).or(Predicate::col_cmp(0, CmpOp::Ge, 990)),
            );
            let mut tree =
                PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(31)).unwrap();
            if count_only {
                tree.count_only();
            }
            let mut stages = Vec::new();
            for _ in 0..3 {
                let mut e = env(&disk, 0.3);
                let delta = tree.advance(&mut e).unwrap();
                assert_eq!(
                    matches!(delta.records, Records::Counted(_)),
                    count_only,
                    "rows are built exactly when someone reads them"
                );
                stages.push((delta.record_count(), delta.leaf_points, e.observations));
            }
            (
                stages,
                tree.ones_found(),
                tree.points_covered(),
                disk.clock().elapsed(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn selection_is_fused_only_directly_over_a_row_layout_leaf() {
        let (disk, cat) = setup(&[("a", rows(50)), ("b", rows(50))]);
        let fused = |expr: &Expr, layout: BlockLayout| {
            let cfg = EngineConfig {
                block_layout: layout,
                ..EngineConfig::default()
            };
            let tree =
                PhysTree::build(expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(1)).unwrap();
            let Node::Select(s) = &tree.root else {
                panic!("select root");
            };
            s.fused.is_some()
        };
        let p = Predicate::col_cmp(1, CmpOp::Lt, 3);
        let over_leaf = Expr::relation("a").select(p.clone());
        let over_join = Expr::relation("a")
            .join(Expr::relation("b"), vec![(0, 0)])
            .select(p.clone());
        let over_select = Expr::relation("a").select(p.clone()).select(p);
        assert!(fused(&over_leaf, BlockLayout::Row));
        assert!(!fused(&over_leaf, BlockLayout::Columnar));
        assert!(!fused(&over_join, BlockLayout::Row));
        assert!(!fused(&over_select, BlockLayout::Row));
    }

    #[test]
    fn worker_count_does_not_change_stage_output() {
        // The parallel phases (block decode, pair merges) are pure:
        // outputs, coverage, and simulated cost must be identical at
        // any worker count.
        let a: Vec<(i64, i64)> = (0..60).map(|i| (i % 6, i)).collect();
        let b: Vec<(i64, i64)> = (0..40).map(|i| (i % 6, -i)).collect();
        let run = |workers: usize| {
            let (disk, cat) = setup(&[("a", a.clone()), ("b", b.clone())]);
            let expr = Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)]);
            let mut tree =
                PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(29)).unwrap();
            let cfg = EngineConfig {
                workers,
                ..EngineConfig::default()
            };
            let mut outputs = Vec::new();
            for _ in 0..3 {
                let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.4);
                outputs.push(tree.advance(&mut e).unwrap().into_rows());
            }
            (outputs, tree.points_covered(), disk.clock().elapsed())
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), serial, "divergence at workers={workers}");
        }
    }

    #[test]
    fn minimum_draw_is_one_block() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r");
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(8)).unwrap();
        let mut e = env(&disk, 1e-9);
        let d = tree.advance(&mut e).unwrap();
        assert_eq!(d.record_count(), 5); // one block of 5 tuples
    }

    #[test]
    fn main_memory_mode_matches_disk_results_cheaper() {
        let a: Vec<(i64, i64)> = (0..60).map(|i| (i, 0)).collect();
        let b: Vec<(i64, i64)> = (30..90).map(|i| (i, 0)).collect();
        let (disk, cat) = setup(&[("a", a), ("b", b)]);
        let expr = Expr::relation("a").intersect(Expr::relation("b"));
        let build = |memory: MemoryMode| {
            let cfg = EngineConfig {
                memory,
                ..EngineConfig::default()
            };
            PhysTree::build(&expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(77)).unwrap()
        };
        let mut on_disk = build(MemoryMode::DiskResident);
        let t0 = disk.clock().elapsed();
        for _ in 0..3 {
            let mut e = env(&disk, 0.4);
            on_disk.advance(&mut e).unwrap();
        }
        let disk_cost = disk.clock().elapsed() - t0;

        let mut in_mem = build(MemoryMode::MainMemory);
        let t1 = disk.clock().elapsed();
        for _ in 0..3 {
            let mut e = env(&disk, 0.4);
            in_mem.advance(&mut e).unwrap();
        }
        let mem_cost = disk.clock().elapsed() - t1;

        // Identical answers (same seed → same sample order)…
        assert_eq!(on_disk.ones_found(), in_mem.ones_found());
        assert_eq!(on_disk.points_covered(), in_mem.points_covered());
        assert_eq!(on_disk.ones_found(), 30.0);
        // …at a fraction of the simulated cost.
        assert!(
            mem_cost < disk_cost / 2,
            "main memory {mem_cost:?} vs disk {disk_cost:?}"
        );
    }

    /// What the simulation can see of a join: each stage's output and
    /// cost observations, then coverage and the simulated clock.
    type JoinSim = (Vec<(Vec<Tuple>, Vec<StepObservation>)>, f64, Duration);

    /// Three stages of a join (25 + 15 tuples a stage) under a
    /// `run_cache_tuples` budget. Returns what the simulation sees,
    /// which runs kept their tuples (left side, right side), and how
    /// often the join itself — its leaves aside — decoded blocks.
    fn join_under_budget(
        run_cache_tuples: usize,
        faults: Option<eram_storage::FaultPlan>,
    ) -> (JoinSim, [Vec<bool>; 2], u64) {
        let a: Vec<(i64, i64)> = (0..60).map(|i| (i % 6, i)).collect();
        let b: Vec<(i64, i64)> = (0..40).map(|i| (i % 6, -i)).collect();
        let (disk, cat) = setup(&[("a", a), ("b", b)]);
        if let Some(plan) = faults {
            disk.set_fault_plan(plan);
        }
        let expr = Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)]);
        let cfg = EngineConfig {
            run_cache_tuples,
            profiler: crate::obs::Profiler::recording(disk.clock().clone()),
            ..EngineConfig::default()
        };
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(31)).unwrap();
        let mut stages = Vec::new();
        for _ in 0..3 {
            let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.4);
            let out = tree.advance(&mut e).unwrap().into_rows();
            stages.push((out, e.observations));
        }
        let Node::Binary(join) = &tree.root else {
            panic!("join root");
        };
        let kept = [&join.left_runs, &join.right_runs]
            .map(|runs| runs.iter().map(|r| r.decoded.is_some()).collect());
        let profile = cfg.profiler.snapshot().unwrap();
        let decodes = profile.per_operator["join"]
            .get(Phase::BlockDecode.name())
            .map_or(0, |p| p.calls);
        (
            (stages, tree.points_covered(), disk.clock().elapsed()),
            kept,
            decodes,
        )
    }

    #[test]
    fn run_cache_does_not_change_results_or_charges() {
        // The tuples a run keeps must be invisible to the simulation:
        // identical outputs, observations, coverage and simulated
        // clock with the budget on or off — it only skips wall-clock
        // re-decode work. Full fulfillment reads 2 + 6 + 10 runs over
        // three stages; with room for all of them none is decoded.
        let (unbounded, kept, decodes) = join_under_budget(DEFAULT_RUN_CACHE_TUPLES, None);
        assert_eq!(kept, [vec![true; 3], vec![true; 3]]);
        assert_eq!(decodes, 0);
        assert_eq!(join_under_budget(0, None).0, unbounded);
    }

    #[test]
    fn a_zero_budget_keeps_no_run_and_every_run_read_decodes() {
        let (sim, kept, decodes) = join_under_budget(0, None);
        assert_eq!(kept, [vec![false; 3], vec![false; 3]]);
        assert_eq!(decodes, 18, "the later stages' re-reads included");
        assert_eq!(sim, join_under_budget(DEFAULT_RUN_CACHE_TUPLES, None).0);
    }

    #[test]
    fn a_budget_goes_to_the_first_runs_that_fit() {
        // Room for the first left run (25 tuples) and for none after
        // it: that one run is kept for good, and its three reads are
        // the only ones not decoded.
        let (sim, kept, decodes) = join_under_budget(25, None);
        assert_eq!(kept, [vec![true, false, false], vec![false; 3]]);
        assert_eq!(decodes, 18 - 3);
        assert_eq!(sim, join_under_budget(DEFAULT_RUN_CACHE_TUPLES, None).0);
    }

    #[test]
    fn degraded_run_reads_bypass_the_cache() {
        // Corrupt run blocks drop tuples from the merge; the full
        // copy a run kept must NOT paper over the loss. Degraded
        // reads decode the survivors and rebuild their keys, so the
        // plans stay identical under faults whatever the budget.
        let plan = || Some(eram_storage::FaultPlan::new(41).with_corruption(0.3));
        let (kept_all, _, decodes) = join_under_budget(DEFAULT_RUN_CACHE_TUPLES, plan());
        assert!(decodes > 0, "no run read was degraded");
        assert_eq!(kept_all, join_under_budget(0, plan()).0);
    }

    #[test]
    fn a_malformed_column_fails_only_the_scan_that_decodes_it() {
        // The one intended behavioural difference of scanning on page
        // bytes. A page whose digest is good but whose string column
        // is malformed (here: a hand-built block standing for block 0
        // of the relation) fails any scan that decodes the record.
        // The counting scan reads only the column its formula names
        // and never builds the row, so it answers; page integrity is
        // the digest's job, not the decoder's.
        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            3,
        );
        let schema = Schema::new(vec![
            ("k", ColumnType::Int),
            ("tag", ColumnType::Str { width: 6 }),
        ])
        .padded_to(200);
        let file = HeapFile::load(
            disk.clone(),
            schema,
            (0..50i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Str("ok".into())])),
        )
        .unwrap();
        let mut block = disk.read_block_uncharged(file.file_id(), 0).unwrap();
        block.bytes_mut()[8..10].copy_from_slice(&60u16.to_le_bytes()); // tag length 60 > width 6
        let pages = [(0, Arc::new(block))];
        let k_below_25 = Predicate::col_cmp(0, CmpOp::Lt, 25)
            .compile(file.schema())
            .unwrap();
        let counted = scan_pages(&file, &pages, Some(&k_below_25), false).unwrap();
        assert_eq!(counted, (5, 5, vec![]), "reads column 0 only");
        // k = 0 passes the formula, so materializing builds the bad record.
        assert!(scan_pages(&file, &pages, Some(&k_below_25), true).is_err());
        assert!(file.decode_block_columnar(0, &pages[0].1).is_err());
    }

    #[test]
    fn transient_faults_are_retried_and_charged() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r");
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(10)).unwrap();
        disk.set_fault_plan(eram_storage::FaultPlan::new(13).with_transient(0.4));
        let before = disk.clock().elapsed();
        let mut e = env(&disk, 1.0);
        tree.advance(&mut e).unwrap();
        assert!(e.health.faults_seen > 0, "40% rate on 20 blocks is sure");
        assert!(e.health.retries > 0);
        // Retried backoff was charged: elapsed exceeds the fault-free
        // cost of the same work by at least the backoff charges.
        assert!(disk.clock().elapsed() > before);
        // Most clusters survive retries at this rate/budget.
        assert!(tree.points_covered() > 0.0);
    }

    #[test]
    fn corrupt_blocks_are_dropped_and_counted() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r");
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(11)).unwrap();
        // Half the sites rot: the census loses clusters but finishes.
        disk.set_fault_plan(eram_storage::FaultPlan::new(17).with_corruption(0.5));
        let mut e = env(&disk, 1.0);
        let delta = tree.advance(&mut e).unwrap();
        assert!(e.health.blocks_lost > 0);
        assert!(e.health.blocks_lost < 20, "some of 20 blocks survive");
        // Coverage reflects only surviving clusters (renormalization):
        // 5 tuples per block, every lost block removes exactly 5.
        let expected = 100.0 - 5.0 * e.health.blocks_lost as f64;
        assert_eq!(tree.points_covered(), expected);
        assert_eq!(delta.record_count() as f64, expected);
    }

    #[test]
    fn all_blocks_lost_still_returns_empty_delta() {
        let (disk, cat) = setup(&[("r", rows(50))]);
        let expr = Expr::relation("r").select(Predicate::True);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(12)).unwrap();
        disk.set_fault_plan(eram_storage::FaultPlan::new(19).with_corruption(1.0));
        let mut e = env(&disk, 1.0);
        let delta = tree.advance(&mut e).unwrap();
        assert_eq!(delta.record_count(), 0);
        assert_eq!(tree.points_covered(), 0.0);
        assert_eq!(e.health.blocks_lost, 10);
    }

    #[test]
    fn retry_exhaustion_loses_the_block_not_the_query() {
        let (disk, cat) = setup(&[("r", rows(100))]);
        let expr = Expr::relation("r");
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(14)).unwrap();
        // Every attempt fails: each block burns its full retry budget
        // and is dropped.
        disk.set_fault_plan(eram_storage::FaultPlan::new(23).with_transient(1.0));
        let mut e = env(&disk, 1.0);
        let delta = tree.advance(&mut e).unwrap();
        assert_eq!(delta.record_count(), 0);
        assert_eq!(e.health.blocks_lost, 20);
        assert_eq!(
            e.health.retries,
            20 * u64::from(paper().retry.max_attempts - 1)
        );
    }

    #[test]
    fn union_refused_at_compile_time() {
        let (disk, cat) = setup(&[("r", rows(10))]);
        let expr = Expr::relation("r").union(Expr::relation("r"));
        let res = PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(9));
        assert!(res.is_err());
    }
}
