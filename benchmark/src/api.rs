//! The one file that calls into the `eram-*` crates.
//!
//! A later change to the engine may not edit this benchmark, so the
//! symbols bound here are an API the benchmark freezes; README.md
//! lists them per workload. Everything else in the benchmark sees
//! plain numbers and the opaque handles defined below.

use std::sync::Arc;
use std::time::Duration;

use eram_core::kernel::{merge_keyed, sort_run, KeyColumn, KeySpec, MergeKind};
use eram_core::{
    AggregateFn, BlockLayout, Concurrency, Database, ExecutionReport, GroupedAccumulator,
    OneAtATimeInterval, Profiler, QueryServer, RetryPolicy, ServerJob, StoppingCriterion, Tracer,
};
use eram_relalg::{parse_expr, push_selections, CmpOp, Expr, PieRewrite, Predicate};
use eram_sampling::{CountEstimate, PointSpaceAccumulator};
use eram_storage::{
    Block, ColumnType, ColumnarBlock, Disk, FaultPlan, HeapFile, Schema, Tuple, Value,
};

use crate::gen::Row;

/// The paper's tuple size: five tuples to a 1 KB block.
const TUPLE_BYTES: usize = 200;
const COL_SEL: usize = 1;
const COL_JK: usize = 2;
const COL_G: usize = 3;
const COL_V: usize = 4;

/// Transient 5 %, corruption 1 %, latency spikes 2 % × 200 µs.
const FAULT_TRANSIENT: f64 = 0.05;
const FAULT_CORRUPT: f64 = 0.01;
const FAULT_SPIKE: f64 = 0.02;
const FAULT_SPIKE_LEN: Duration = Duration::from_micros(200);

fn schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int),
        ("sel", ColumnType::Int),
        ("jk", ColumnType::Int),
        ("g", ColumnType::Int),
        ("v", ColumnType::Float),
    ])
    .padded_to(TUPLE_BYTES)
}

fn tuple(r: &Row) -> Tuple {
    Tuple::new(vec![
        Value::Int(r.id),
        Value::Int(r.sel),
        Value::Int(r.jk),
        Value::Int(r.g),
        Value::Float(r.v),
    ])
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_transient(FAULT_TRANSIENT)
        .with_corruption(FAULT_CORRUPT)
        .with_spikes(FAULT_SPIKE, FAULT_SPIKE_LEN)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

// ---------------------------------------------------------------
// Queries
// ---------------------------------------------------------------

/// The expression a query counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum What {
    /// `COUNT(σ_{sel < below}(rel))`.
    Select { rel: &'static str, below: i64 },
    /// `COUNT(r1 ⋈_{jk} r2)`.
    Join,
    /// `AVG(v) GROUP BY g` over `σ_{sel < below}(rel)`.
    GroupAvg { rel: &'static str, below: i64 },
}

/// Which of the engine's observers is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    Off,
    Tracer,
    Profiler,
    Metrics,
}

/// One time-constrained query. Defaults are the engine's own.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub what: What,
    pub quota: Duration,
    pub seed: u64,
    pub columnar: bool,
    /// The paper's protocol: soft deadline, one-at-a-time-interval
    /// strategy with d_β = 12.
    pub paper_protocol: bool,
    pub run_cache: bool,
    pub workers: usize,
    pub observe: Observe,
    /// Retry four times from 10 µs; the engine's 15 ms default
    /// backoff is sized for the 1989 device.
    pub fast_retry: bool,
}

impl Query {
    pub fn new(what: What, quota: Duration, seed: u64) -> Self {
        Query {
            what,
            quota,
            seed,
            columnar: false,
            paper_protocol: false,
            run_cache: true,
            workers: 1,
            observe: Observe::Off,
            fast_retry: false,
        }
    }
}

/// What one query delivered, as plain numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOut {
    pub estimate: f64,
    pub ci_lo: f64,
    pub ci_hi: f64,
    pub rel_half_width: f64,
    /// Blocks and stages banked in stages completed within the quota.
    pub blocks_banked: u64,
    pub stages_banked: u64,
    /// All stages run, the aborted or overrunning one included.
    pub blocks_drawn: u64,
    pub stages_run: u64,
    pub utilization: f64,
    /// A stage ran past the quota (the paper's risk event).
    pub overspent: bool,
    pub quota_ns: u64,
    /// Time on the database's own clock when `run()` returned.
    pub elapsed_ns: u64,
    /// Clock time of the stages completed within the quota.
    pub banked_ns: u64,
    pub faults_seen: u64,
    pub blocks_lost: u64,
}

fn query_out(estimate: &CountEstimate, report: &ExecutionReport) -> QueryOut {
    let (ci_lo, ci_hi) = estimate.ci(0.95);
    QueryOut {
        estimate: estimate.estimate,
        ci_lo,
        ci_hi,
        rel_half_width: estimate.relative_half_width(0.95),
        blocks_banked: report.blocks_evaluated(),
        stages_banked: report.completed_stages() as u64,
        blocks_drawn: report.stages.iter().map(|s| s.blocks_drawn).sum(),
        stages_run: report.stages.len() as u64,
        utilization: report.utilization(),
        overspent: report.overspent(),
        quota_ns: ns(report.quota),
        elapsed_ns: ns(report.total_elapsed),
        banked_ns: ns(report.useful_time()),
        faults_seen: report.health.faults_seen,
        blocks_lost: report.health.blocks_lost,
    }
}

fn select_expr(rel: &str, below: i64) -> Expr {
    Expr::relation(rel).select(Predicate::col_cmp(COL_SEL, CmpOp::Lt, below))
}

fn join_expr() -> Expr {
    Expr::relation("r1").join(Expr::relation("r2"), vec![(COL_JK, COL_JK)])
}

/// The join in the engine's textual syntax, for the planning probe.
pub const JOIN_TEXT: &str = "join[#2=#2](select[#1 < 100000](r1), r2)";

// ---------------------------------------------------------------
// Served batches
// ---------------------------------------------------------------

/// One job offered to the server: `COUNT(σ_{sel < below}(rel))`.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    pub rel: &'static str,
    pub below: i64,
    pub deadline: Duration,
    pub desired_quota: Duration,
    pub min_quota: Duration,
}

/// How one offered job ended.
#[derive(Debug, Clone, Copy)]
pub struct JobOut {
    /// `below` of the tenant it answers (the server reorders jobs).
    pub below: i64,
    /// Answered by its deadline.
    pub met: bool,
    /// The engine's account, when the job ran to completion.
    pub query: Option<QueryOut>,
}

/// What one `QueryServer::run` produced.
#[derive(Debug, Clone, Default)]
pub struct BatchOut {
    pub jobs: Vec<JobOut>,
    pub offered: u64,
    pub refused: u64,
    pub deadlines_missed: u64,
    pub makespan_ns: u64,
    pub charged_blocks: u64,
    pub physical_blocks: u64,
    pub blocks_shared: u64,
}

// ---------------------------------------------------------------
// The database
// ---------------------------------------------------------------

/// Which clock a database runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// `Database::sim_modern`: charges advance a simulated clock.
    Sim,
    /// `Database::wall`: the quota constrains real time.
    Wall,
}

pub struct Db(Database);

impl Db {
    pub fn new(clock: ClockKind, seed: u64) -> Db {
        Db(match clock {
            ClockKind::Sim => Database::sim_modern(seed),
            ClockKind::Wall => Database::wall(seed),
        })
    }

    pub fn load(&mut self, name: &str, rows: &[Row]) {
        self.0
            .load_relation(name, schema(), rows.iter().map(tuple))
            .expect("generated rows match the schema");
    }

    /// Charged block reads so far.
    pub fn block_reads(&self) -> u64 {
        self.0.disk().stats().block_reads
    }

    pub fn arm_faults(&self, seed: u64) {
        self.0.inject_faults(fault_plan(seed));
    }

    pub fn run(&mut self, q: &Query) -> Result<QueryOut, String> {
        let clock = self.0.disk().clock().clone();
        let (agg, expr) = match q.what {
            What::Select { rel, below } => (AggregateFn::Count, select_expr(rel, below)),
            What::Join => (AggregateFn::Count, join_expr()),
            What::GroupAvg { rel, below } => (
                AggregateFn::AvgBy {
                    column: COL_V,
                    group: COL_G,
                },
                select_expr(rel, below),
            ),
        };
        let mut b = self
            .0
            .aggregate(agg, expr)
            .within(q.quota)
            .seed(q.seed)
            .workers(q.workers);
        if q.columnar {
            b = b.block_layout(BlockLayout::Columnar);
        }
        if q.paper_protocol {
            b = b
                .stopping(StoppingCriterion::SoftDeadline)
                .strategy(OneAtATimeInterval::new(12.0));
        }
        if !q.run_cache {
            b = b.run_cache(0);
        }
        if q.fast_retry {
            b = b.retry(RetryPolicy {
                max_attempts: 4,
                backoff: Duration::from_micros(10),
                backoff_factor: 2.0,
            });
        }
        b = match q.observe {
            Observe::Off => b,
            Observe::Tracer => b.tracer(Tracer::recording(clock)),
            Observe::Profiler => b.profiler(Profiler::recording(clock)),
            Observe::Metrics => b.metrics(true),
        };
        let out = b.run().map_err(|e| e.to_string())?;
        Ok(query_out(&out.estimate, &out.report))
    }

    pub fn serve(&mut self, interleaved: bool, tenants: &[Tenant]) -> BatchOut {
        let jobs = tenants
            .iter()
            .map(|t| {
                ServerJob::count(t.below.to_string(), select_expr(t.rel, t.below), t.deadline)
                    .with_desired_quota(t.desired_quota)
                    .with_min_quota(t.min_quota)
            })
            .collect();
        let mode = if interleaved {
            Concurrency::Interleaved
        } else {
            Concurrency::Sequential
        };
        let outcome = QueryServer::new().concurrency(mode).run(&mut self.0, jobs);
        let mut out = BatchOut {
            offered: outcome.stats.offered,
            refused: outcome.stats.refused,
            deadlines_missed: outcome.stats.deadlines_missed,
            ..BatchOut::default()
        };
        if let Some(s) = &outcome.schedule {
            out.makespan_ns = ns(s.makespan);
            out.charged_blocks = s.charged_blocks;
            out.physical_blocks = s.physical_blocks;
            out.blocks_shared = s.blocks_shared;
        }
        out.jobs = outcome
            .jobs
            .iter()
            .map(|j| JobOut {
                below: j.name.parse().expect("job names are thresholds"),
                met: j.met(),
                query: match (&j.estimate, &j.report) {
                    (Some(e), Some(r)) => Some(query_out(e, r)),
                    _ => None,
                },
            })
            .collect();
        out
    }
}

// ---------------------------------------------------------------
// Layers, called directly
// ---------------------------------------------------------------

pub type BlockRef = Arc<Block>;
pub type Tuples = Vec<Tuple>;
pub type Columns = ColumnarBlock;
pub type SortKeys = KeyColumn;

/// What sits between `Disk::read_block` and the bytes.
#[derive(Debug, Clone, Copy)]
pub enum DiskKind<'a> {
    /// Simulated clock, in-memory backend, no block cache.
    Plain,
    /// The same behind an LRU block cache of this many blocks.
    Cached(usize),
    /// Real clock, one file per relation under this directory.
    FileBacked(&'a std::path::Path),
}

/// A relation on a disk of its own, for calling the storage layers
/// without a query around them.
pub struct RawRelation {
    disk: Arc<Disk>,
    heap: HeapFile,
}

impl RawRelation {
    pub fn load(kind: DiskKind<'_>, seed: u64, rows: &[Row]) -> Result<RawRelation, String> {
        let sim = Database::sim_modern(seed);
        let (clock, profile) = (sim.disk().clock().clone(), sim.disk().profile().clone());
        let disk = match kind {
            DiskKind::Plain => Disk::new(clock, profile, seed),
            DiskKind::Cached(blocks) => Disk::new_cached(clock, profile, seed, blocks),
            DiskKind::FileBacked(dir) => {
                let wall = Database::wall(seed).disk().clock().clone();
                Disk::file_backed(wall, profile, seed, dir).map_err(|e| e.to_string())?
            }
        };
        let heap = HeapFile::load(disk.clone(), schema(), rows.iter().map(tuple))
            .map_err(|e| e.to_string())?;
        Ok(RawRelation { disk, heap })
    }

    pub fn blocks(&self) -> u64 {
        self.heap.num_blocks()
    }

    /// `Disk::read_block`: charged, checksummed, through the fault
    /// gate and the cache when there is one.
    pub fn read(&self, index: u64) -> Option<BlockRef> {
        self.disk.read_block(self.heap.file_id(), index).ok()
    }

    pub fn arm_faults(&self, seed: u64) {
        self.disk.set_fault_plan(fault_plan(seed));
    }

    /// `(hits, misses)` of the block cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.disk.cache_stats().unwrap_or((0, 0))
    }

    pub fn decode_rows(&self, index: u64, block: &Block) -> Tuples {
        self.heap
            .decode_block(index, block)
            .expect("a block this file wrote")
    }

    pub fn decode_columns(&self, index: u64, block: &Block) -> Columns {
        self.heap
            .decode_block_columnar(index, block)
            .expect("a block this file wrote")
    }

    /// A charged temporary file on the same disk.
    pub fn temp_file(&self) -> TempFile {
        TempFile(HeapFile::create(self.disk.clone(), schema(), true))
    }

    /// `Disk::append_block` of `block` to `file`, charged.
    pub fn append_block(&self, file: &TempFile, block: &Block) {
        self.disk
            .append_block(file.0.file_id(), block.clone())
            .expect("append to a live file");
    }
}

/// A temporary heap file whose writes are charged, as the join's run
/// files are.
pub struct TempFile(HeapFile);

impl TempFile {
    /// `HeapFile::append` per tuple, then `flush`.
    pub fn write(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.0.append(t.clone()).expect("tuple matches the schema");
        }
        self.0.flush().expect("flush to a live file");
    }

    /// `HeapFile::free`, i.e. `Disk::free_file`.
    pub fn free(self) {
        self.0.free();
    }
}

/// `sel < below` as the engine's predicate type.
pub struct Filter(Predicate);

impl Filter {
    pub fn sel_below(below: i64) -> Filter {
        Filter(Predicate::col_cmp(COL_SEL, CmpOp::Lt, below))
    }

    /// `Predicate::eval` per tuple; the number selected.
    pub fn count(&self, tuples: &[Tuple]) -> usize {
        tuples.iter().filter(|t| self.0.eval(t)).count()
    }

    /// `Predicate::eval_mask` over a columnar block.
    pub fn mask(&self, block: &Columns) -> Vec<bool> {
        self.0.eval_mask(block)
    }
}

/// `ColumnarBlock::gather`.
pub fn gather(block: &Columns, mask: &[bool]) -> Tuples {
    block.gather(mask)
}

/// `sort_run` on the join key.
pub fn sort_by_join_key(tuples: &mut Tuples) -> SortKeys {
    sort_run(tuples, &KeySpec::Columns(vec![COL_JK]))
}

/// `merge_keyed` as a join of two sorted runs.
pub fn merge_join(lt: &[Tuple], lk: &SortKeys, rt: &[Tuple], rk: &SortKeys) -> Tuples {
    merge_keyed(MergeKind::Join, lt, lk, rt, rk)
}

/// The COUNT estimator of one point space.
pub struct Estimator(PointSpaceAccumulator);

impl Estimator {
    pub fn new(total_points: f64, total_blocks: f64) -> Estimator {
        Estimator(PointSpaceAccumulator::new(total_points, total_blocks))
    }

    pub fn record(&mut self, points: f64, ones: f64) {
        self.0.record_space_block(points, ones);
    }

    /// `(estimate, variance)`.
    pub fn estimate(&self) -> (f64, f64) {
        let e = self.0.estimate();
        (e.estimate, e.variance)
    }
}

/// The GROUP BY accumulator, grouping on `g` and averaging `v`.
#[derive(Default)]
pub struct Groups(GroupedAccumulator);

impl Groups {
    pub fn absorb(&mut self, tuples: &[Tuple]) {
        self.0.absorb(tuples, COL_G, Some(COL_V));
    }

    /// `GroupedAccumulator::snapshots`; the number of groups.
    pub fn snapshots(&self, total_points: f64, points_covered: f64) -> usize {
        let agg = AggregateFn::AvgBy {
            column: COL_V,
            group: COL_G,
        };
        self.0.snapshots(agg, total_points, points_covered).len()
    }
}

/// Parse, inclusion–exclusion rewrite and selection push-down of
/// `text`, in the executor's order; the number of COUNT terms.
pub fn plan(text: &str) -> Result<usize, String> {
    let expr = parse_expr(text).map_err(|e| e.to_string())?;
    let pushed = push_selections(expr, &|_| Some(5));
    let rewrite = PieRewrite::rewrite(&pushed).map_err(|e| e.to_string())?;
    Ok(rewrite.terms.len())
}
