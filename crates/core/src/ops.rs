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
//!
//! This is the paper's one evaluation design: "all the input
//! relations and all the intermediate relations are always kept on
//! disks". Every operator charges the write of its output, and every
//! sorted run has its file, re-read (and charged) at each merge.

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
use crate::kernel::{merge_keyed, sort_run, KeyColumn, KeySpec, MergeKind};
use crate::obs::Phase;
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

/// How a leaf decodes the blocks it samples.
///
/// Both layouts read the same on-disk fixed-width pages, hand the
/// operators above the same rows, and produce byte-identical reports
/// and traces — the layout changes only how a leaf's scan traverses a
/// page, never what it computes or charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockLayout {
    /// A selection fused into the leaf evaluates on the encoded
    /// records in the page, and only the records that pass are decoded.
    #[default]
    Row,
    /// Each page decodes whole to per-column typed arrays
    /// ([`ColumnarBlock`]); a fused selection evaluates as a bitmap
    /// over them and only the rows that pass are gathered.
    Columnar,
}

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
    /// The run's settings: retry policy, tracer, profiler and block
    /// layout are read from here at their use sites.
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
    /// Row tuples, whatever the leaf's layout.
    Rows(Vec<Tuple>),
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
            Records::Counted(n) => *n,
        }
    }

    /// The delta's row tuples, in record order.
    ///
    /// # Panics
    /// Panics on [`Records::Counted`]: its rows were never decoded
    /// because the plan said nobody reads them.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self.records {
            Records::Rows(tuples) => tuples,
            Records::Counted(_) => unreachable!("a counted delta was built to be read by nobody"),
        }
    }
}

/// One sorted run of a binary operator's input (a stage's worth).
pub(crate) struct Run {
    /// The temporary file the run was written to, re-read (charged)
    /// at every merge — the prototype's disk-resident design.
    file: HeapFile,
    /// The tuples as sorted at ingest, shared immutably so repeated
    /// merges never copy them. A run file never changes once written,
    /// so they stay what decoding it yields.
    tuples: Arc<[Tuple]>,
    /// Merge keys extracted once at ingest, aligned index-for-index
    /// with the run's tuples (Schwartzian transform): merges compare
    /// precomputed keys instead of re-projecting per comparison.
    keys: KeyColumn,
    /// Leaf points the run's delta covered (for coverage accounting).
    leaf_points: f64,
}

impl Run {
    /// The share of the run's tuples that a read of `read` of them
    /// served: exactly 1 for a complete read, and for an empty run.
    fn surviving_share(&self, read: usize) -> f64 {
        if self.tuples.is_empty() {
            1.0
        } else {
            read as f64 / self.tuples.len() as f64
        }
    }
}

/// A run file is a temporary of the operator that wrote it: its
/// blocks go back to the disk with the run. Freeing charges nothing
/// and file ids are never reused, so no later charge, fault decision
/// or trace byte depends on it.
impl Drop for Run {
    fn drop(&mut self) {
        self.file.disk().free_file(self.file.file_id());
    }
}

pub(crate) struct LeafNode {
    pub(crate) file: HeapFile,
    pub(crate) sampler: BlockSampler,
    pub(crate) cum_tuples: f64,
    /// Decode target for sampled blocks.
    pub(crate) layout: BlockLayout,
}

/// A selection that runs inside its leaf's scan, in the form each
/// block layout evaluates it in.
pub(crate) struct FusedScan {
    /// The node's formula compiled against the leaf's record layout:
    /// a row-layout scan evaluates it on the page bytes.
    compiled: CompiledPredicate,
    /// The node's formula as written: a columnar scan evaluates it as
    /// a bitmap over the decoded block.
    predicate: Predicate,
    /// Whether the passing records are decoded. False only at the
    /// root of a term whose aggregate reads no rows.
    materialize: bool,
}

pub(crate) struct SelectNode {
    pub(crate) child: Box<Node>,
    pub(crate) predicate: Predicate,
    /// Set when the child is a leaf — the shape selection push-down
    /// produces: the formula is then evaluated by the leaf's scan and
    /// the row filter below never runs.
    pub(crate) fused: Option<FusedScan>,
    pub(crate) tracker: SelTracker,
    pub(crate) out_blocking: f64,
    pub(crate) cum_out: f64,
    pub(crate) cum_leaf_points: f64,
}

pub(crate) struct ProjectNode {
    pub(crate) child: Box<Node>,
    pub(crate) columns: Vec<usize>,
    pub(crate) tracker: SelTracker,
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
    pub(crate) in_schema_left: Schema,
    pub(crate) in_schema_right: Schema,
    pub(crate) out_blocking: f64,
    pub(crate) left_runs: Vec<Run>,
    pub(crate) right_runs: Vec<Run>,
    pub(crate) cum_out: f64,
    pub(crate) cum_leaf_points: f64,
}

/// The operator label a leaf's profiled phases are attributed to.
const LEAF_LABEL: &str = "leaf";

/// Blocks a leaf hints to the disk at a time, and how many such
/// batches the hints run ahead of the reads. Chosen by measurement.
const PREFETCH_BATCH: usize = 8;
const PREFETCH_AHEAD: usize = 2;

/// Tuples a projection's occupancy merge handles between deadline
/// checks.
const OCCUPANCY_CHECK_EVERY: usize = 64;

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

    /// Remaining un-drawn blocks, maximized over leaves: 0 only when
    /// *every* leaf is exhausted, the point past which no stage can
    /// draw a new block.
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
/// (pure) decode to the caller — a leaf scans the block at once, a
/// run re-read decodes its blocks after the charged fetch loop, and a
/// run that kept its tuples skips it entirely.
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

/// What a leaf's stage has read so far: records scanned, records that
/// passed the filter, and — if asked for — their rows.
#[derive(Default)]
struct Tally {
    scanned: usize,
    passed: usize,
    rows: Vec<Tuple>,
}

impl Tally {
    /// Scans one fetched page in place (the row layout): evaluates
    /// `filter` on each encoded record and decodes a record only if it
    /// passes and `materialize` asks for rows. Pure CPU — touches
    /// neither clock nor tracer.
    fn scan(
        &mut self,
        file: &HeapFile,
        index: u64,
        block: &Block,
        filter: Option<&CompiledPredicate>,
        materialize: bool,
    ) -> Result<(), StorageError> {
        for record in file.records(index, block) {
            self.scanned += 1;
            if let Some(filter) = filter {
                if !filter.eval(record)? {
                    continue;
                }
            }
            self.passed += 1;
            if materialize {
                self.rows.push(file.schema().decode(record)?);
            }
        }
        Ok(())
    }

    /// Reads one page already decoded whole (the columnar layout):
    /// evaluates `filter` as a bitmap over the block, then gathers the
    /// rows that pass if `materialize` asks for them, or only counts
    /// them. Pure CPU, like [`Tally::scan`].
    fn columns(&mut self, block: &ColumnarBlock, filter: Option<&Predicate>, materialize: bool) {
        let mask = filter.unwrap_or(&Predicate::True).eval_mask(block);
        self.scanned += block.len();
        self.passed += mask.iter().filter(|&&pass| pass).count();
        if materialize {
            self.rows.extend(block.gather(&mask));
        }
    }
}

impl LeafNode {
    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        self.scan(env, None).map(|(_, delta)| delta)
    }

    /// One stage of the leaf: draws, then fetches and reads each drawn
    /// page in one pass. Returns the number of records scanned — each
    /// a leaf point newly covered — and a delta of those that passed
    /// the `fused` selection, if any, decoded unless it says nobody
    /// reads them. The only place the block layout is read.
    fn scan(
        &mut self,
        env: &mut StageEnv<'_>,
        fused: Option<&FusedScan>,
    ) -> Result<(usize, Delta), StageError> {
        let materialize = fused.map_or(true, |f| f.materialize);
        let total = self.sampler.population();
        let want = ((env.fraction * total as f64).round() as u64)
            .max(1)
            .min(self.sampler.remaining());
        let _draw_span = env.config.tracer.span("block_draw");
        let indices: Vec<u64> = {
            let _phase = env.config.profiler.phase(Phase::RngDraw);
            self.sampler.draw(want).to_vec()
        };
        // Taken after the draw: drawing is the generator's cost (and,
        // at the first draw past 1/128 of the relation, the sampler's
        // identity fill), not a per-block read cost.
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
        let mut tally = Tally::default();
        if fused.is_none() {
            tally
                .rows
                .reserve_exact(indices.len() * self.file.blocking_factor());
        }
        // The error of the first page whose scan fails: held until
        // every drawn block is fetched, so a failing stage charges
        // what a clean one does.
        let mut failed = None;
        // One pass: each drawn block is fetched — every charge,
        // retry, deadline check and trace event in draw order — and
        // read while its lines are still warm, inside the deadline
        // checks.
        for (k, idx) in indices.iter().enumerate() {
            if k > 0 && k % PREFETCH_BATCH == 0 {
                hint();
            }
            let fetched = if env.expired() {
                Err(StageError::Deadline)
            } else {
                read_block_resilient_raw(env, &self.file, *idx)
            };
            match fetched {
                Ok(Some(block)) if failed.is_none() => {
                    let _phase = env.config.profiler.phase(Phase::BlockDecode);
                    let read = match self.layout {
                        BlockLayout::Row => {
                            let filter = fused.map(|f| &f.compiled);
                            tally.scan(&self.file, *idx, &block, filter, materialize)
                        }
                        BlockLayout::Columnar => {
                            let filter = fused.map(|f| &f.predicate);
                            self.file
                                .decode_block_columnar(*idx, &block)
                                .map(|decoded| tally.columns(&decoded, filter, materialize))
                        }
                    };
                    failed = read.err();
                }
                // A lost block is a dropped cluster: `cum_tuples` (the
                // points actually covered) doesn't grow for it, so the
                // cluster estimator renormalizes over surviving blocks.
                // After a failed read the stage only fetches.
                Ok(_) => {}
                Err(StageError::Deadline) => {
                    // The unread indices go back to the sampler, so
                    // blocks drawn stays equal to blocks fetched. The
                    // pages that *were* read go with the stage: the
                    // deadline ends the query, and `cum_tuples` counts
                    // points only when they are delivered.
                    self.sampler.unconsume((indices.len() - k) as u64);
                    return Err(StageError::Deadline);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = failed {
            return Err(StageError::Storage(e));
        }
        let records = if materialize {
            Records::Rows(tally.rows)
        } else {
            Records::Counted(tally.passed)
        };
        env.observe(
            CostCoeff::BlockRead,
            indices.len() as f64,
            env.now() - start,
        );
        let leaf_points = tally.scanned as f64;
        self.cum_tuples += leaf_points;
        Ok((
            tally.scanned,
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
    charge_chunked(env, |_| DeviceOp::BlockWrite, pages, 1)?;
    env.observe(CostCoeff::WriteTuple, n_tuples, env.now() - start);
    Ok(())
}

/// Charges `units` of work in chunks, checking the hard deadline
/// between chunks so an abort never trails the quota by more than one
/// chunk's worth of simulated time (the paper's interrupt granularity
/// is the device operation; ours is a block-sized batch). A measured
/// clock is not moved by a charge, so there all the units are one
/// chunk: one check answers for every later one, and one charge
/// counts in `DiskStats` what the chunks would.
fn charge_chunked(
    env: &mut StageEnv<'_>,
    make: impl Fn(u64) -> DeviceOp,
    units: u64,
    chunk: u64,
) -> Result<(), StageError> {
    let chunk = if env.disk.clock().is_simulated() {
        chunk.max(1)
    } else {
        units
    };
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
                leaf.scan(env, Some(fused))?
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
            leaf_points: child.leaf_points,
            records: if self.fused.is_some() {
                child.records
            } else {
                let mut rows = child.into_rows();
                rows.retain(|t| self.predicate.eval(t));
                Records::Rows(rows)
            },
        };
        let n_out = out.record_count() as f64;
        env.observe(CostCoeff::ScanTuple, n_in as f64, env.now() - start);
        charge_tuple_writes(env, n_out, self.out_blocking)?;

        self.tracker.record_stage(n_out, n_in as f64);
        self.cum_out += n_out;
        self.cum_leaf_points += out.leaf_points;
        Ok(out)
    }
}

/// Sorts tuples by a key spec, charging `n·log₂n` comparisons (in
/// chunks, honouring the hard deadline), and returns the run's key
/// column. Keys are extracted once here (Schwartzian transform) and
/// reused by every later merge instead of being re-projected per
/// comparison.
fn charged_sort(
    env: &mut StageEnv<'_>,
    tuples: &mut [Tuple],
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

impl ProjectNode {
    fn advance(&mut self, env: &mut StageEnv<'_>) -> Result<Delta, StageError> {
        let child = self.child.advance(env)?;
        if env.expired() {
            return Err(StageError::Deadline);
        }
        let n_in = child.record_count();
        let leaf_points = child.leaf_points;
        // Step 1+2 (Figure 4.7): project and sort the new tuples.
        let mut projected: Vec<Tuple> = {
            let start = env.now();
            charge_chunked(env, DeviceOp::TupleCpu, n_in as u64, 5)?;
            let p: Vec<Tuple> = child
                .into_rows()
                .iter()
                .map(|t| t.project(&self.columns))
                .collect();
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
        // Nothing in this loop charges, so on a simulated clock every
        // check answers as the first did; on a measured one a check
        // every `OCCUPANCY_CHECK_EVERY` tuples keeps it interruptible.
        for (i, t) in projected.into_iter().enumerate() {
            if i % OCCUPANCY_CHECK_EVERY == 0 && env.expired() {
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
        // Rewrite the distinct file with the enlarged group set.
        charge_tuple_writes(env, self.occupancy.len() as f64, self.out_blocking)?;

        self.tracker
            .record_stage(new_groups.len() as f64, n_in as f64);
        self.cum_in += n_in as f64;
        self.cum_leaf_points += leaf_points;
        Ok(Delta::rows(new_groups, leaf_points))
    }
}

/// One merge pair staged for the merge phase: both runs' tuples and
/// their precomputed key columns.
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
        self.left_runs.iter().map(|r| r.tuples.len() as f64).sum()
    }

    /// Total tuples across the right-side runs ingested so far.
    pub(crate) fn right_runs_tuples(&self) -> f64 {
        self.right_runs.iter().map(|r| r.tuples.len() as f64).sum()
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

        // Charged phase: per-pair run reads, comparison charges, and
        // cost observations in the canonical pair order. A run keeps
        // its tuples yet still pays every block read (and consumes
        // every fault draw) of its file; only the re-decode is skipped.
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
            // A pair covers what it merged: lost run blocks take their
            // tuples' share of the run's leaf points with them.
            let (lrun, rrun) = (&self.left_runs[li], &self.right_runs[ri]);
            pair_points += lt.len() as f64 * rt.len() as f64;
            leaf_points += (lrun.leaf_points * lrun.surviving_share(lt.len()))
                * (rrun.leaf_points * rrun.surviving_share(rt.len()));
            staged.push((lt, lk, rt, rk));
        }
        // Merge phase: each pair's keyed merge is pure CPU over the
        // staged runs and their precomputed key columns; results
        // concatenate in pair order under one `run_merge` guard.
        let out: Vec<Tuple> = {
            let _phase = env.config.profiler.phase(Phase::RunMerge);
            let mk = self.kind.merge_kind();
            staged
                .into_iter()
                .flat_map(|(lt, lk, rt, rk)| merge_keyed(mk, &lt, &lk, &rt, &rk))
                .collect()
        };

        // Materialize the operator's new output (kept on disk in the
        // prototype's design: "all the intermediate relations are
        // always kept on disks").
        charge_tuple_writes(env, out.len() as f64, self.out_blocking)?;

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
        let mut tuples = delta.into_rows();
        let keys = charged_sort(env, &mut tuples, &spec)?;
        let n = tuples.len();
        let schema = if left {
            self.in_schema_left.clone()
        } else {
            self.in_schema_right.clone()
        };
        let start = env.now();
        let mut file = HeapFile::create(env.disk.clone(), schema, true);
        file.append_all(&tuples).map_err(StageError::Storage)?;
        file.flush().map_err(StageError::Storage)?;
        env.observe(CostCoeff::WriteTuple, n as f64, env.now() - start);
        // The sorted tuples stay with the run: the fixed-width encoding
        // round-trips bit-faithfully, so they equal what re-decoding
        // the file would produce.
        let run = Run {
            file,
            tuples: tuples.into(),
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
/// merge-key column. Every block read is charged (and every fault-plan
/// draw consumed). Run blocks go through the same retry-or-drop policy
/// as sample blocks: a lost run block under-merges its tuples, which
/// is degradation, not failure.
///
/// The tuples a run kept sit *behind* the charged fetch loop, never
/// in front of it, and no block is decoded: the run was appended in
/// sorted order, so block `b` holds `tuples[b·bf .. min((b+1)·bf, n)]`
/// for the file's blocking factor `bf`. A complete read serves the
/// kept tuples and keys as they are; a degraded read (lost blocks)
/// serves the kept tuples of the surviving blocks, and rebuilds their
/// keys, since the ingest-time key column no longer aligns.
fn read_run(
    env: &mut StageEnv<'_>,
    run: &Run,
    spec: &KeySpec,
) -> Result<(Arc<[Tuple]>, KeyColumn), StageError> {
    let mut survivors: Vec<&[Tuple]> = Vec::with_capacity(run.file.num_blocks() as usize);
    let mut complete = true;
    for (b, kept) in run.tuples.chunks(run.file.blocking_factor()).enumerate() {
        if env.expired() {
            return Err(StageError::Deadline);
        }
        match read_block_resilient_raw(env, &run.file, b as u64)? {
            Some(_) => survivors.push(kept),
            None => complete = false,
        }
    }
    if complete {
        return Ok((run.tuples.clone(), run.keys.clone()));
    }
    let out = survivors.concat();
    let keys = spec.column_for(&out);
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
                    Node::Leaf(leaf) => Some(FusedScan {
                        compiled: predicate.compile(leaf.file.schema())?,
                        predicate: predicate.clone(),
                        materialize: true,
                    }),
                    _ => None,
                };
                Ok(Node::Select(SelectNode {
                    child: Box::new(child),
                    predicate: predicate.clone(),
                    fused,
                    tracker,
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
        let tracker = SelTracker::new(kind, subtree_points, 0.0);
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
        let mut tracker = SelTracker::new(op_kind, left_points * right_points, max_operand);
        if let BinKind::Join { .. } = kind {
            tracker = tracker.with_initial(self.config.join_selectivity);
        }
        Ok(Node::Binary(BinaryNode {
            in_schema_left: left.output_schema(self.catalog)?,
            in_schema_right: right.output_schema(self.catalog)?,
            kind,
            left: Box::new(l),
            right: Box::new(r),
            tracker,
            fulfillment: self.config.fulfillment,
            out_blocking: self.out_blocking(expr)?,
            left_runs: Vec::new(),
            right_runs: Vec::new(),
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
    /// fulfillment, block layout). `rng`
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
    /// without building their rows. Any other root still builds them.
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
    use std::sync::atomic::{AtomicU64, Ordering};

    use eram_relalg::CmpOp;
    use eram_storage::{Clock, ColumnType, DeviceProfile, SimClock, Value};

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
        for k in [0u32, 1, 3, 8, 15, 16, 17, 30] {
            let (disk, mut tree) = leaf_twin();
            let cfg = EngineConfig::default();
            let quota = disk.profile().block_read * k;
            let deadline = Deadline::new(disk.clock().clone(), quota);
            let mut e = StageEnv::new(disk.clone(), &cfg, Some(&deadline), 0.1);
            assert!(matches!(tree.advance(&mut e), Err(StageError::Deadline)));
            assert_eq!(disk.stats().block_reads, u64::from(k));
            assert_eq!(disk.clock().elapsed(), quota);
            let leaf = leaf_of(&mut tree);
            assert_eq!(leaf.sampler.drawn(), u64::from(k));
            assert_eq!(leaf.sampler.remaining(), 400 - u64::from(k));
            assert_eq!(leaf.cum_tuples, 0.0, "a cut stage delivers nothing");
        }
    }

    /// The leaf of a leaf-only tree or of a selection over a leaf.
    fn leaf_under(node: &Node) -> &LeafNode {
        match node {
            Node::Leaf(leaf) => leaf,
            Node::Select(n) => leaf_under(&n.child),
            _ => panic!("a leaf or a selection over one"),
        }
    }

    #[test]
    fn a_deadline_cuts_a_materializing_or_columnar_stage_at_the_block_it_fires_on() {
        // Each block is scanned as soon as it is read; a cut stage
        // must still deliver none of them. A 20-block stage completes,
        // then a 40-block stage is cut after exactly `k` reads.
        let select = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let leaf = Expr::relation("r");
        for (expr, block_layout) in [(&select, BlockLayout::Row), (&leaf, BlockLayout::Columnar)] {
            for k in [0u32, 1, 9, 17, 30] {
                let (disk, cat) = setup(&[("r", rows(2_000))]);
                let cfg = EngineConfig {
                    block_layout,
                    ..EngineConfig::default()
                };
                let mut tree =
                    PhysTree::build(expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(37)).unwrap();
                let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.05);
                assert!(!matches!(
                    tree.advance(&mut e).unwrap().records,
                    Records::Counted(_)
                ));
                let reads = disk.stats().block_reads;
                assert_eq!(reads, 20);
                let quota = disk.profile().block_read * k;
                let deadline = Deadline::new(disk.clock().clone(), quota);
                let mut e = StageEnv::new(disk.clone(), &cfg, Some(&deadline), 0.1);
                assert!(matches!(tree.advance(&mut e), Err(StageError::Deadline)));
                let case = format!("{block_layout:?}, k {k}");
                assert_eq!(disk.stats().block_reads, reads + u64::from(k), "{case}");
                assert_eq!(deadline.spent(), quota, "{case}");
                let leaf = leaf_under(&tree.root);
                assert_eq!(
                    leaf.cum_tuples, 100.0,
                    "{case}: the cut stage delivers nothing"
                );
                assert_eq!(leaf.sampler.drawn(), reads + u64::from(k), "{case}");
                assert_eq!(leaf.sampler.remaining(), 400 - leaf.sampler.drawn());
            }
        }
    }

    /// A measured clock that never moves, counting how often it is
    /// read.
    #[derive(Default)]
    struct FrozenClock(AtomicU64);

    impl Clock for FrozenClock {
        fn elapsed(&self) -> Duration {
            self.0.fetch_add(1, Ordering::Relaxed);
            Duration::ZERO
        }

        fn charge(&self, _d: Duration) {}

        fn is_simulated(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_projection_reads_a_measured_clock_once_a_block_and_once_per_64_tuples_it_merges() {
        // Charges are free on a measured clock, so only the leaf's
        // check before each read and the occupancy merge's check every
        // 64 tuples grow with the stage; the rest is per stage.
        let clock = Arc::new(FrozenClock::default());
        let disk = Disk::new(clock.clone(), DeviceProfile::sun_3_60(), 5);
        let schema =
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
        let tuples = rows(2_000)
            .into_iter()
            .map(|(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]));
        let mut cat = Catalog::new();
        cat.register("r", HeapFile::load(disk.clone(), schema, tuples).unwrap());
        let expr = Expr::relation("r").project(vec![1]);
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, paper(), &mut Rng::seed_from_u64(3)).unwrap();
        let deadline = Deadline::new(clock.clone(), Duration::from_secs(1));
        let mut per_stage = Vec::new();
        for blocks in [1u64, 12, 13, 26, 40] {
            let (reads, before) = (clock.0.load(Ordering::Relaxed), disk.stats().block_reads);
            let mut e = StageEnv::new(
                disk.clone(),
                paper(),
                Some(&deadline),
                blocks as f64 / 400.0,
            );
            tree.advance(&mut e).unwrap();
            assert_eq!(disk.stats().block_reads - before, blocks);
            let reads = clock.0.load(Ordering::Relaxed) - reads;
            per_stage.push(reads - blocks - (5 * blocks).div_ceil(64));
        }
        assert!(
            per_stage.iter().all(|&r| r == per_stage[0]),
            "{per_stage:?}"
        );
    }

    /// A relation of 20 blocks of `(k, tag)` records whose block `bad`,
    /// if any, has a good digest and a `tag` longer than its column.
    /// The pages are written as they are, so the handle's own appends
    /// (which set its tuple count) land past the blocks it reads.
    fn planted(bad: Option<u64>) -> (Arc<Disk>, Catalog) {
        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            5,
        );
        let schema = Schema::new(vec![
            ("k", ColumnType::Int),
            ("tag", ColumnType::Str { width: 6 }),
        ])
        .padded_to(200);
        let tuples =
            || (0..100i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Str("ok".into())]));
        let clean = HeapFile::load(disk.clone(), schema.clone(), tuples()).unwrap();
        let mut file = HeapFile::create(disk.clone(), schema, false);
        for b in 0..clean.num_blocks() {
            let mut page = disk.read_block_uncharged(clean.file_id(), b).unwrap();
            if Some(b) == bad {
                page.bytes_mut()[8..10].copy_from_slice(&60u16.to_le_bytes());
            }
            disk.append_block_uncharged(file.file_id(), page).unwrap();
        }
        file.append_all(tuples()).unwrap();
        file.flush().unwrap();
        assert_eq!(file.num_blocks(), 20);
        let mut cat = Catalog::new();
        cat.register("r", file);
        (disk, cat)
    }

    #[test]
    fn a_failing_scan_returns_its_error_after_fetching_every_drawn_block() {
        // The scan of a page runs as soon as the page is read, but its
        // error waits for the fetch loop: the failing stage charges and
        // counts what a clean twin's does, wherever the bad page falls
        // in the draw.
        for block_layout in [BlockLayout::Row, BlockLayout::Columnar] {
            let cfg = EngineConfig {
                block_layout,
                ..EngineConfig::default()
            };
            let run = |bad: Option<u64>| {
                let (disk, cat) = planted(bad);
                let mut tree = PhysTree::build(
                    &Expr::relation("r"),
                    &cat,
                    &disk,
                    &cfg,
                    &mut Rng::seed_from_u64(43),
                )
                .unwrap();
                let mut e = StageEnv::new(disk.clone(), &cfg, None, 1.0);
                let out = tree.advance(&mut e).map(|d| d.record_count());
                (out, disk.stats(), disk.clock().elapsed())
            };
            let (clean, stats, elapsed) = run(None);
            assert_eq!(clean, Ok(100));
            assert_eq!(stats.block_reads, 20);
            for bad in 0..20 {
                let (out, s, t) = run(Some(bad));
                let case = format!("{block_layout:?}, block {bad}");
                assert!(
                    matches!(out, Err(StageError::Storage(_))),
                    "{case}: {out:?}"
                );
                assert_eq!((s, t), (stats, elapsed), "{case}");
            }
        }
    }

    #[test]
    fn counting_scan_charges_and_counts_exactly_what_the_decoding_scan_does() {
        // A plain COUNT tells the tree nobody reads its rows: the
        // fused scan then builds none — the row layout decodes no
        // record, the columnar one counts its bitmap instead of
        // gathering. Under either layout, scanned, passed, coverage,
        // the simulated clock and every cost observation must be what
        // the materializing row scan produces — only host work differs.
        let run = |block_layout: BlockLayout, count_only: bool| {
            let cfg = EngineConfig {
                block_layout,
                ..EngineConfig::default()
            };
            let (disk, cat) = setup(&[("r", rows(1_000))]);
            let expr = Expr::relation("r").select(
                Predicate::col_cmp(1, CmpOp::Lt, 3).or(Predicate::col_cmp(0, CmpOp::Ge, 990)),
            );
            let mut tree =
                PhysTree::build(&expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(31)).unwrap();
            if count_only {
                tree.count_only();
            }
            let mut stages = Vec::new();
            for _ in 0..3 {
                let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.3);
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
        let oracle = run(BlockLayout::Row, false);
        for (layout, count_only) in [
            (BlockLayout::Row, true),
            (BlockLayout::Columnar, false),
            (BlockLayout::Columnar, true),
        ] {
            assert_eq!(
                run(layout, count_only),
                oracle,
                "{layout:?}, count only {count_only}"
            );
        }
    }

    #[test]
    fn selection_is_fused_only_directly_over_a_leaf() {
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
        assert!(fused(&over_leaf, BlockLayout::Columnar));
        assert!(!fused(&over_join, BlockLayout::Row));
        assert!(!fused(&over_select, BlockLayout::Row));
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

    /// Three stages of a join, each drawing 0.4 of both inputs, with a
    /// recording profiler. Returns the tree, the config it ran under
    /// and the disk its runs live on.
    fn three_join_stages() -> (PhysTree, EngineConfig, Arc<Disk>) {
        let a: Vec<(i64, i64)> = (0..60).map(|i| (i % 6, i)).collect();
        let b: Vec<(i64, i64)> = (0..40).map(|i| (i % 6, -i)).collect();
        let (disk, cat) = setup(&[("a", a), ("b", b)]);
        let expr = Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)]);
        let cfg = EngineConfig {
            profiler: crate::obs::Profiler::recording(disk.clock().clone()),
            ..EngineConfig::default()
        };
        let mut tree =
            PhysTree::build(&expr, &cat, &disk, &cfg, &mut Rng::seed_from_u64(31)).unwrap();
        for _ in 0..3 {
            let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.4);
            tree.advance(&mut e).unwrap();
        }
        (tree, cfg, disk)
    }

    fn join_of(tree: &PhysTree) -> &BinaryNode {
        let Node::Binary(join) = &tree.root else {
            panic!("join root");
        };
        join
    }

    /// Each side's runs with the key spec they are merged on.
    fn sides(join: &BinaryNode) -> [(&[Run], KeySpec); 2] {
        [
            (&join.left_runs, join.kind.left_spec()),
            (&join.right_runs, join.kind.right_spec()),
        ]
    }

    /// The keys of `column` over `tuples`, one owned key per tuple.
    fn keys_of(column: &KeyColumn, tuples: &[Tuple]) -> Vec<Vec<Value>> {
        (0..tuples.len())
            .map(|i| column.key_at(tuples, i).to_vec())
            .collect()
    }

    /// What the join's own operator label spent in `phase`, in calls.
    fn join_calls(cfg: &EngineConfig, phase: Phase) -> u64 {
        let profile = cfg.profiler.snapshot().unwrap();
        profile.per_operator["join"]
            .get(phase.label())
            .map_or(0, |p| p.calls)
    }

    #[test]
    fn run_cache_does_not_change_results_or_charges() {
        // Every run keeps its tuples, and they are exactly what
        // decoding its file yields, keys included. Full fulfillment
        // reads 1 + 3 + 5 run pairs over three stages: each of those
        // reads fetches every block of both runs, yet a clean join
        // never decodes a block under its own label.
        let (tree, cfg, _disk) = three_join_stages();
        let [left, right] = sides(join_of(&tree)).map(|(runs, spec)| {
            assert_eq!(runs.len(), 3);
            let mut blocks = Vec::new();
            for run in runs {
                let file = &run.file;
                let decoded = file.scan_uncharged().unwrap();
                assert_eq!(*run.tuples, *decoded);
                assert_eq!(
                    keys_of(&run.keys, &run.tuples),
                    keys_of(&spec.column_for(&decoded), &decoded)
                );
                blocks.push(file.num_blocks());
            }
            blocks
        });
        let grid: u64 = (0..3)
            .map(|new| {
                let with_right: u64 = (0..=new).map(|r| left[new] + right[r]).sum();
                let with_left: u64 = (0..new).map(|l| left[l] + right[new]).sum();
                with_right + with_left
            })
            .sum();
        assert_eq!(join_calls(&cfg, Phase::Cache), grid);
        assert_eq!(join_calls(&cfg, Phase::BlockDecode), 0);
    }

    #[test]
    fn degraded_run_reads_bypass_the_cache() {
        // Corrupt run blocks drop tuples from the merge; the full copy
        // a run kept must NOT paper over the loss. The oracle is the
        // file decoded over exactly the blocks that survive, keyed by
        // `KeySpec::column_for`; the read itself slices the kept
        // tuples and decodes nothing.
        let (tree, cfg, disk) = three_join_stages();
        disk.set_fault_plan(eram_storage::FaultPlan::new(41).with_corruption(0.3));
        let mut degraded = 0;
        for (runs, spec) in sides(join_of(&tree)) {
            for run in runs {
                let file = &run.file;
                let mut survivors = Vec::new();
                for b in 0..file.num_blocks() {
                    match file.read_block_raw(b) {
                        Ok(block) => survivors.extend(file.decode_block(b, &block).unwrap()),
                        Err(StorageError::Corrupt { .. }) => {}
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
                let mut e = StageEnv::new(disk.clone(), &cfg, None, 0.4);
                let (tuples, keys) = {
                    let _op = cfg.profiler.operator(tree.root.op_label());
                    read_run(&mut e, run, &spec).unwrap()
                };
                assert_eq!(*tuples, *survivors);
                assert_eq!(
                    keys_of(&keys, &tuples),
                    keys_of(&spec.column_for(&survivors), &survivors)
                );
                if e.health.blocks_lost > 0 {
                    degraded += 1;
                    assert!(tuples.len() < run.tuples.len());
                    let mut kept = run.tuples.iter();
                    assert!(
                        tuples.iter().all(|t| kept.any(|k| k == t)),
                        "a degraded read is a subsequence of the kept tuples"
                    );
                }
            }
        }
        assert!(degraded > 0, "no run read was degraded");
        assert_eq!(join_calls(&cfg, Phase::BlockDecode), 0);
    }

    /// A leaf's stage scan over pages already fetched, in order:
    /// `(scanned, passed, rows)`.
    fn scan_pages(
        file: &HeapFile,
        pages: &[(u64, Arc<Block>)],
        filter: Option<&CompiledPredicate>,
        materialize: bool,
    ) -> Result<(usize, usize, Vec<Tuple>), StorageError> {
        let mut tally = Tally::default();
        for (index, block) in pages {
            tally.scan(file, *index, block, filter, materialize)?;
        }
        Ok((tally.scanned, tally.passed, tally.rows))
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
