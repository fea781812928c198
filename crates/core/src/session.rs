//! The public facade: a database you load relations into and ask
//! time-constrained `COUNT` queries of.
//!
//! A [`Database`] bundles the clock, the device, and the catalog.
//! [`Database::sim_default`] gives the paper's simulated SUN 3/60
//! (deterministic, fast, jittered); [`Database::wall`] measures real
//! time — the mode an embedding real-time application would use.

use std::sync::Arc;
use std::time::Duration;

use eram_relalg::{eval, Catalog, Expr};
use eram_storage::{
    Clock, DeviceProfile, Disk, HeapFile, IngestFormat, Schema, SeedSeq, SimClock, Tuple, WallClock,
};

use crate::aggregate::AggregateFn;
use crate::costs::CostModel;
use crate::executor::{execute_aggregate, EngineError, ExecOutcome, StageRun};
use crate::obs::{Profiler, Tracer};
use crate::ops::{BlockLayout, Fulfillment, MemoryMode, DEFAULT_RUN_CACHE_TUPLES};
use crate::retry::RetryPolicy;
use crate::seltrack::SelectivityDefaults;
use crate::stopping::StoppingCriterion;
use crate::strategy::{OneAtATimeInterval, TimeControlStrategy};

/// The result of a time-constrained count (re-exported outcome type).
pub type TimedCount = ExecOutcome;

/// Tunables for a count query, independent of the quota.
pub struct QueryConfig {
    /// The time-control strategy.
    pub strategy: Box<dyn TimeControlStrategy>,
    /// The stopping criterion.
    pub stopping: StoppingCriterion,
    /// Initial cost-model coefficients.
    pub cost_model: CostModel,
    /// Stage-1 selectivity assumptions.
    pub defaults: SelectivityDefaults,
    /// Binary-operator fulfillment plan.
    pub fulfillment: Fulfillment,
    /// Disk-resident or main-memory evaluation.
    pub memory: MemoryMode,
    /// Safety cap on stages.
    pub max_stages: usize,
    /// Distinct-count estimator for projection roots (Goodman's is
    /// the paper's choice and the default; Chao1/jackknife are stable
    /// alternatives for tiny sampling fractions).
    pub distinct: eram_sampling::DistinctEstimator,
    /// Spend unusable leftovers on a cheaper partial-fulfillment
    /// stage (the paper's suggestion; off by default).
    pub hybrid_leftover: bool,
    /// Selection pushdown before compilation (on by default).
    pub optimize: bool,
    /// How transient storage faults are retried (backoff charged to
    /// the query clock).
    pub retry: RetryPolicy,
    /// Execution tracer. Disabled by default; attach a recording
    /// tracer to capture clock-charged spans and events.
    pub tracer: Tracer,
    /// Collect a [`crate::MetricsSnapshot`] into the report's
    /// `metrics` field (off by default).
    pub collect_metrics: bool,
    /// Phase profiler for the performance flight recorder. Disabled
    /// by default; attach a recording profiler to get a
    /// [`crate::ProfileSnapshot`] in the report's `profile` field.
    pub profiler: Profiler,
    /// Worker threads for the pure-CPU portions of each stage (block
    /// decode, run merges). Results are byte-identical at any worker
    /// count; `1` (the default) runs everything inline.
    pub workers: usize,
    /// Bound (in tuples) on each binary node's decoded-run cache;
    /// `0` disables it. Wall-clock only: cached runs still charge
    /// their block reads, so results are byte-identical either way.
    pub run_cache_tuples: usize,
    /// Decode target for sampled blocks (row tuples or per-column
    /// typed arrays). Wall-clock only: results are byte-identical
    /// under either layout.
    pub block_layout: BlockLayout,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            strategy: Box::new(OneAtATimeInterval::default()),
            stopping: StoppingCriterion::HardDeadline,
            cost_model: CostModel::generic_default(),
            defaults: SelectivityDefaults::default(),
            fulfillment: Fulfillment::Full,
            memory: MemoryMode::DiskResident,
            max_stages: 1_000,
            distinct: eram_sampling::DistinctEstimator::Goodman,
            hybrid_leftover: false,
            optimize: true,
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            collect_metrics: false,
            profiler: Profiler::disabled(),
            workers: 1,
            run_cache_tuples: DEFAULT_RUN_CACHE_TUPLES,
            block_layout: BlockLayout::default(),
        }
    }
}

/// A self-contained ERAM instance: clock + device + catalog.
pub struct Database {
    disk: Arc<Disk>,
    catalog: Catalog,
    seeds: SeedSeq,
    query_counter: u64,
    /// Initial cost model handed to queries (1989-scale for the
    /// simulated SUN 3/60, microsecond-scale for wall clocks).
    default_cost_model: CostModel,
}

impl Database {
    /// A database on a simulated device with the given profile.
    pub fn sim(profile: DeviceProfile, seed: u64) -> Self {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let disk = Disk::new(clock, profile, seeds.derive(0xD15C));
        Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model: CostModel::generic_default(),
        }
    }

    /// A database on the paper-calibrated simulated SUN 3/60.
    pub fn sim_default(seed: u64) -> Self {
        Self::sim(DeviceProfile::sun_3_60(), seed)
    }

    /// A database on a simulated device fronted by an LRU buffer
    /// cache of `cache_blocks` blocks — the middle ground between the
    /// paper's disk-resident design and its main-memory variant
    /// (full-fulfillment re-reads of previous stages' runs become
    /// cheap).
    pub fn sim_cached(profile: DeviceProfile, seed: u64, cache_blocks: usize) -> Self {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let disk = Disk::new_cached(clock, profile, seeds.derive(0xD15C), cache_blocks);
        Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model: CostModel::generic_default(),
        }
    }

    /// A database on the simulated *modern* device
    /// ([`DeviceProfile::modern`]) with matching microsecond-scale
    /// initial cost coefficients.
    pub fn sim_modern(seed: u64) -> Self {
        let mut db = Self::sim(DeviceProfile::modern(), seed);
        db.default_cost_model = CostModel::modern_default();
        db
    }

    /// Replaces the initial cost model handed to new queries. Use
    /// when the device's cost scale differs from the profile preset
    /// (queries can still override per-query via
    /// [`CountQuery::cost_model`]).
    pub fn set_default_cost_model(&mut self, model: CostModel) {
        self.default_cost_model = model;
    }

    /// The initial cost model handed to new queries — the same
    /// coefficients [`crate::server::QueryServer`] uses for
    /// QCOST-predictive admission unless its config overrides them.
    pub fn default_cost_model(&self) -> &CostModel {
        &self.default_cost_model
    }

    /// A simulated database whose blocks live in real files under
    /// `dir` (for data sets larger than RAM). The directory must
    /// exist.
    pub fn sim_file_backed(
        profile: DeviceProfile,
        seed: u64,
        dir: &std::path::Path,
    ) -> Result<Self, eram_storage::StorageError> {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let disk = Disk::file_backed(clock, profile, seeds.derive(0xD15C), dir)?;
        Ok(Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model: CostModel::generic_default(),
        })
    }

    /// A database measuring real wall-clock time (charges are free;
    /// the quota constrains actual execution).
    pub fn wall(seed: u64) -> Self {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let disk = Disk::new(clock, DeviceProfile::sun_3_60(), seeds.derive(0xD15C));
        Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model: CostModel::modern_default(),
        }
    }

    /// Loads (or replaces) a base relation.
    ///
    /// Relations follow the paper's **set semantics** ("a relation
    /// instance I with |r| tuples is modeled as a set"): tuples are
    /// expected to be distinct. Loading duplicates is not rejected
    /// (scanning to check would defeat bulk loading) but makes
    /// estimates count the multiset while [`Database::exact_count`]
    /// deduplicates.
    pub fn load_relation<I>(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        tuples: I,
    ) -> Result<(), eram_storage::StorageError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let hf = HeapFile::load(self.disk.clone(), schema, tuples)?;
        self.catalog.register(name, hf);
        Ok(())
    }

    /// Loads a relation from a CSV file (see
    /// [`eram_storage::read_csv`] for the dialect).
    pub fn load_csv(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        path: &std::path::Path,
        has_header: bool,
    ) -> Result<usize, eram_storage::StorageError> {
        let file = std::fs::File::open(path)?;
        let tuples = eram_storage::read_csv(std::io::BufReader::new(file), &schema, has_header)?;
        let n = tuples.len();
        self.load_relation(name, schema, tuples)?;
        Ok(n)
    }

    /// Loads a relation from a file in any supported ingest format
    /// (CSV, JSON-lines, or the Parquet subset). The parsed tuples
    /// land in the same [`HeapFile`] layout regardless of format, so
    /// queries over the relation are byte-identical across formats.
    pub fn load_ingest(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        path: &std::path::Path,
        format: IngestFormat,
    ) -> Result<usize, eram_storage::StorageError> {
        let file = std::fs::File::open(path)?;
        let mut reader = std::io::BufReader::new(file);
        let tuples = eram_storage::read_tuples(format, &mut reader, &schema)?;
        let n = tuples.len();
        self.load_relation(name, schema, tuples)?;
        Ok(n)
    }

    /// The catalog of loaded relations.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying device.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Arms deterministic fault injection on the device: subsequent
    /// charged reads suffer transient errors, bit-flip corruption, and
    /// latency spikes at the plan's rates. Queries keep returning
    /// estimates — lost blocks degrade precision, not availability.
    pub fn inject_faults(&self, plan: eram_storage::FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Disarms fault injection (previously corrupted sites heal:
    /// corruption is injected on read, not persisted to the backend).
    pub fn clear_faults(&self) {
        self.disk.clear_fault_plan();
    }

    /// Cumulative injected-fault counts since the plan was armed, or
    /// `None` when no plan is active.
    pub fn fault_stats(&self) -> Option<eram_storage::FaultStats> {
        self.disk.fault_stats()
    }

    /// Exact `COUNT(expr)` computed outside the quota mechanism
    /// (ground truth for experiments).
    pub fn exact_count(&self, expr: &Expr) -> Result<u64, EngineError> {
        Ok(eval::exact_count(expr, &self.catalog)?)
    }

    /// Begins a time-constrained count of `expr`.
    pub fn count(&mut self, expr: Expr) -> CountQuery<'_> {
        self.aggregate(AggregateFn::Count, expr)
    }

    /// Begins a time-constrained `SUM(expr.column)`.
    pub fn sum(&mut self, expr: Expr, column: usize) -> CountQuery<'_> {
        self.aggregate(AggregateFn::Sum { column }, expr)
    }

    /// Begins a time-constrained `AVG(expr.column)` (the expression
    /// must be free of union/difference).
    pub fn avg(&mut self, expr: Expr, column: usize) -> CountQuery<'_> {
        self.aggregate(AggregateFn::Avg { column }, expr)
    }

    /// Begins a time-constrained aggregate of `expr`.
    pub fn aggregate(&mut self, agg: AggregateFn, expr: Expr) -> CountQuery<'_> {
        let seed = self.next_query_seed();
        let config = QueryConfig {
            cost_model: self.default_cost_model.clone(),
            ..QueryConfig::default()
        };
        CountQuery {
            db: self,
            expr,
            agg,
            quota: Duration::from_secs(1),
            config,
            seed,
        }
    }

    /// Draws the next per-query sampling seed — the same
    /// counter-backed sequence [`Database::aggregate`] consumes, so
    /// prepared and builder-style queries share one seed stream.
    pub fn next_query_seed(&mut self) -> u64 {
        self.query_counter += 1;
        self.seeds.derive(self.query_counter)
    }

    /// Prepares a time-constrained aggregate without borrowing the
    /// database for its whole lifetime: the per-query seed is drawn
    /// now (in call order), and the returned spec can later be run on
    /// any view of this database's disk via [`PreparedQuery::start_on`].
    /// The query server prepares every admitted job up front in
    /// canonical admission order, then executes each on its own lane.
    pub fn prepare(&mut self, agg: AggregateFn, expr: Expr) -> PreparedQuery {
        let seed = self.next_query_seed();
        PreparedQuery {
            agg,
            expr,
            quota: Duration::from_secs(1),
            seed,
            config: QueryConfig {
                cost_model: self.default_cost_model.clone(),
                ..QueryConfig::default()
            },
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("relations", &self.catalog.names())
            .finish()
    }
}

/// Builder for a time-constrained count query.
pub struct CountQuery<'db> {
    db: &'db Database,
    expr: Expr,
    agg: AggregateFn,
    quota: Duration,
    config: QueryConfig,
    seed: u64,
}

impl CountQuery<'_> {
    /// Sets the time quota `T` (default 1 s).
    pub fn within(mut self, quota: Duration) -> Self {
        self.quota = quota;
        self
    }

    /// Replaces the time-control strategy.
    pub fn strategy(mut self, strategy: impl TimeControlStrategy + 'static) -> Self {
        self.config.strategy = Box::new(strategy);
        self
    }

    /// Replaces the stopping criterion.
    pub fn stopping(mut self, stopping: StoppingCriterion) -> Self {
        self.config.stopping = stopping;
        self
    }

    /// Replaces the initial cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.config.cost_model = model;
        self
    }

    /// Replaces the stage-1 selectivity assumptions.
    pub fn initial_selectivities(mut self, defaults: SelectivityDefaults) -> Self {
        self.config.defaults = defaults;
        self
    }

    /// Chooses the fulfillment plan.
    pub fn fulfillment(mut self, fulfillment: Fulfillment) -> Self {
        self.config.fulfillment = fulfillment;
        self
    }

    /// Spends unusable leftover quota on a partial-fulfillment stage.
    pub fn hybrid_leftover(mut self, on: bool) -> Self {
        self.config.hybrid_leftover = on;
        self
    }

    /// Chooses disk-resident (default) or main-memory evaluation.
    pub fn memory_mode(mut self, memory: MemoryMode) -> Self {
        self.config.memory = memory;
        self
    }

    /// Chooses the distinct-count estimator for projection roots.
    pub fn distinct_estimator(mut self, distinct: eram_sampling::DistinctEstimator) -> Self {
        self.config.distinct = distinct;
        self
    }

    /// Overrides the sampling seed (defaults to a per-query seed
    /// derived from the database seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the retry policy for transient storage faults.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Attaches an execution tracer. Use
    /// [`Tracer::recording`] with the database's clock (e.g.
    /// `db.disk().clock().clone()`) so span durations are stamped in
    /// charged time. Call after [`CountQuery::config`], which replaces
    /// the whole config including the tracer.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Enables metrics collection: the report's `metrics` field gets a
    /// [`crate::MetricsSnapshot`] of storage and stage-loop counters.
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.collect_metrics = on;
        self
    }

    /// Attaches a phase profiler. Use [`Profiler::recording`] with
    /// the database's clock (e.g. `db.disk().clock().clone()`) so the
    /// simulated column reads charged time; the report's `profile`
    /// field then carries a [`crate::ProfileSnapshot`]. Profiling is
    /// pure observation — seeded results are byte-identical with it
    /// on or off.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.config.profiler = profiler;
        self
    }

    /// Sets the worker-thread count for the pure-CPU portions of each
    /// stage. Estimates, reports, and traces are byte-identical at
    /// any worker count; values above 1 only change wall-clock time.
    /// Zero is treated as 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Bounds the decoded-run cache of each binary operator, in
    /// tuples; `0` disables it. The cache only skips re-decoding old
    /// runs — every block read is still charged — so estimates,
    /// reports, and traces are byte-identical at any setting.
    pub fn run_cache(mut self, tuples: usize) -> Self {
        self.config.run_cache_tuples = tuples;
        self
    }

    /// Selects how sampled blocks are decoded and traversed: row
    /// tuples (the default) or per-column typed arrays with bitmap
    /// selection. Estimates, reports, and traces are byte-identical
    /// under either layout; only wall-clock time changes.
    pub fn block_layout(mut self, layout: BlockLayout) -> Self {
        self.config.block_layout = layout;
        self
    }

    /// Replaces the whole config in one call.
    pub fn config(mut self, config: QueryConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the stage loop.
    pub fn run(self) -> Result<TimedCount, EngineError> {
        execute_aggregate(
            &self.db.disk,
            &self.db.catalog,
            &self.expr,
            self.agg,
            self.quota,
            &self.config,
            self.seed,
        )
    }
}

/// A query detached from the [`Database`] borrow: the aggregate, the
/// expression, a quota, a per-query seed already drawn from the
/// database's seed sequence, and a full [`QueryConfig`]. Built by
/// [`Database::prepare`]; executed — possibly on a per-job lane view
/// of the shared disk — via [`PreparedQuery::start_on`].
pub struct PreparedQuery {
    /// The aggregate to estimate.
    pub agg: AggregateFn,
    /// The relational expression.
    pub expr: Expr,
    /// The time quota `T` (default 1 s).
    pub quota: Duration,
    /// The sampling seed (drawn at preparation time).
    pub seed: u64,
    /// Tunables; fields are public for direct adjustment.
    pub config: QueryConfig,
}

impl PreparedQuery {
    /// Opens the stage loop against `disk` and `catalog` as a
    /// [`StageRun`] the caller steps. The catalog's relations are
    /// re-based onto `disk` for sampling (see the leaf handling in the
    /// executor), so passing a lane view of the loading disk charges
    /// this query's own clock while reading the shared backend bytes.
    /// `tracer` replaces the config's tracer.
    pub fn start_on(
        &self,
        disk: &Arc<Disk>,
        catalog: &Catalog,
        tracer: Tracer,
    ) -> Result<StageRun<'_>, EngineError> {
        StageRun::start(
            disk,
            catalog,
            &self.expr,
            self.agg,
            self.quota,
            &self.config,
            self.seed,
            tracer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_relalg::{CmpOp, Predicate};
    use eram_storage::{ColumnType, Json, Value};

    fn populated(seed: u64) -> Database {
        let mut db = Database::sim_default(seed);
        let schema =
            Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            "t",
            schema,
            (0..5_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 4)])),
        )
        .unwrap();
        db
    }

    #[test]
    fn builder_round_trip() {
        let mut db = populated(1);
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        let out = db
            .count(expr)
            .within(Duration::from_secs(8))
            .strategy(OneAtATimeInterval::new(24.0))
            .stopping(StoppingCriterion::SoftDeadline)
            .fulfillment(Fulfillment::Full)
            .seed(5)
            .run()
            .unwrap();
        assert!(out.report.completed_stages() >= 1);
        assert!(out.estimate.estimate > 0.0);
    }

    #[test]
    fn exact_count_available_for_ground_truth() {
        let db = populated(2);
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        assert_eq!(db.exact_count(&expr).unwrap(), 1_250);
    }

    #[test]
    fn successive_queries_use_distinct_seeds() {
        let mut db = populated(3);
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        let a = db
            .count(expr.clone())
            .within(Duration::from_secs(2))
            .run()
            .unwrap();
        let b = db
            .count(expr.clone())
            .within(Duration::from_secs(2))
            .run()
            .unwrap();
        let c = db.count(expr).within(Duration::from_secs(2)).run().unwrap();
        // Different samples → different estimates. A single pair can
        // collide by chance (the estimate lives on the coarse lattice
        // n·ones/m), so require only that the three runs are not all
        // identical.
        let key = |o: &TimedCount| (o.estimate.estimate, o.report.blocks_evaluated());
        assert!(
            key(&a) != key(&b) || key(&b) != key(&c),
            "three distinct-seed queries produced identical samples: {:?}",
            key(&a)
        );
    }

    #[test]
    fn wall_clock_database_works_end_to_end() {
        let mut db = Database::wall(4);
        let schema = Schema::new(vec![("k", ColumnType::Int)]);
        db.load_relation(
            "w",
            schema,
            (0..1_000).map(|i| Tuple::new(vec![Value::Int(i)])),
        )
        .unwrap();
        let out = db
            .count(Expr::relation("w").select(Predicate::col_cmp(0, CmpOp::Lt, 500)))
            .within(Duration::from_millis(500))
            .run()
            .unwrap();
        // On a modern machine the census completes almost instantly.
        assert!(out.report.total_elapsed <= Duration::from_millis(500));
        assert!((out.estimate.estimate - 500.0).abs() < 1e-6);
    }

    #[test]
    fn faulty_database_still_answers_and_reports_health() {
        let mut db = populated(6);
        db.inject_faults(
            eram_storage::FaultPlan::new(99)
                .with_transient(0.10)
                .with_corruption(0.02),
        );
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        let out = db.count(expr).within(Duration::from_secs(6)).run().unwrap();
        assert!(out.estimate.estimate >= 0.0);
        let h = out.report.health;
        assert!(h.faults_seen > 0);
        assert_eq!(h.degraded, h.blocks_lost > 0);
        let stats = db.fault_stats().expect("plan is armed");
        assert!(stats.transient_errors + stats.corrupt_reads > 0);
        // Disarming returns the device to clean operation.
        db.clear_faults();
        assert!(db.fault_stats().is_none());
    }

    #[test]
    fn retry_policy_none_loses_blocks_faster() {
        let mut db = populated(7);
        db.inject_faults(eram_storage::FaultPlan::new(123).with_transient(0.15));
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        let out = db
            .count(expr)
            .within(Duration::from_secs(6))
            .retry(RetryPolicy::none())
            .run()
            .unwrap();
        // With no retries every transient fault costs a block.
        assert_eq!(out.report.health.retries, 0);
        assert_eq!(out.report.health.blocks_lost, out.report.health.faults_seen);
    }

    #[test]
    fn tracer_and_metrics_attach_through_the_builder() {
        let mut db = populated(8);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Eq, 0));
        let out = db
            .count(expr)
            .within(Duration::from_secs(4))
            .tracer(tracer.clone())
            .metrics(true)
            .run()
            .unwrap();
        assert!(tracer.record_count() > 0);
        let metrics = out.report.metrics.expect("metrics were requested");
        assert_eq!(
            metrics.counter("core.stages"),
            out.report.stages.len() as u64
        );
        // The trace is valid JSONL.
        for line in tracer.to_jsonl().lines() {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn unknown_relation_surfaces_as_engine_error() {
        let mut db = populated(5);
        let res = db
            .count(Expr::relation("missing"))
            .within(Duration::from_secs(1))
            .run();
        assert!(res.is_err());
    }
}
