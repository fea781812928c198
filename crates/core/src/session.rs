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
use crate::config::EngineConfig;
use crate::costs::CostModel;
use crate::executor::{EngineError, ExecOutcome, StageRun};
use crate::obs::{Profiler, Tracer};
use crate::ops::{BlockLayout, Fulfillment};
use crate::retry::RetryPolicy;
use crate::stopping::StoppingCriterion;
use crate::strategy::TimeControlStrategy;

/// The result of a time-constrained count (re-exported outcome type).
pub type TimedCount = ExecOutcome;

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
    fn on(disk: Arc<Disk>, seeds: SeedSeq, default_cost_model: CostModel) -> Self {
        Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model,
        }
    }

    /// A database on a simulated device with the given profile.
    pub fn sim(profile: DeviceProfile, seed: u64) -> Self {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let disk = Disk::new(clock, profile, seeds.derive(0xD15C));
        Self::on(disk, seeds, CostModel::generic_default())
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
        Self::on(disk, seeds, CostModel::generic_default())
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
    /// (a query can still carry its own in
    /// [`EngineConfig::cost_model`]).
    pub fn set_default_cost_model(&mut self, model: CostModel) {
        self.default_cost_model = model;
    }

    /// `config` calibrated to this database's device: a config that
    /// names no cost model of its own gets the database's default.
    /// Every run a database starts — the query builder's, the
    /// server's admission pricing and its lanes — passes through
    /// here, so the default is resolved in one place.
    pub fn calibrated(&self, mut config: EngineConfig) -> EngineConfig {
        config
            .cost_model
            .get_or_insert_with(|| self.default_cost_model.clone());
        config
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
        Ok(Self::on(disk, seeds, CostModel::generic_default()))
    }

    /// A database measuring real wall-clock time (charges are free;
    /// the quota constrains actual execution).
    pub fn wall(seed: u64) -> Self {
        let seeds = SeedSeq::new(seed);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let disk = Disk::new(clock, DeviceProfile::sun_3_60(), seeds.derive(0xD15C));
        Self::on(disk, seeds, CostModel::modern_default())
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

    /// Begins a time-constrained aggregate of `expr` under the
    /// engine's default settings.
    pub fn aggregate(&mut self, agg: AggregateFn, expr: Expr) -> CountQuery<'_> {
        let spec = self.prepare(agg, expr, EngineConfig::default());
        CountQuery { db: self, spec }
    }

    /// Prepares a time-constrained aggregate under `config`
    /// ([`Database::calibrated`] to this database) without borrowing
    /// the database for its whole lifetime: the per-query seed is
    /// drawn now (in call order), and the returned spec can later be
    /// run on any view of this database's disk. The query server
    /// prepares every admitted job up front in canonical admission
    /// order, then executes each on its own lane.
    pub fn prepare(&mut self, agg: AggregateFn, expr: Expr, config: EngineConfig) -> PreparedQuery {
        self.query_counter += 1;
        PreparedQuery {
            agg,
            expr,
            quota: Duration::from_secs(1),
            seed: self.seeds.derive(self.query_counter),
            config: self.calibrated(config),
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

/// Builder for a time-constrained count query: the database it runs
/// on and the spec it is building.
pub struct CountQuery<'db> {
    db: &'db Database,
    spec: PreparedQuery,
}

impl CountQuery<'_> {
    /// Sets the time quota `T` (default 1 s).
    pub fn within(mut self, quota: Duration) -> Self {
        self.spec.quota = quota;
        self
    }

    /// Replaces the time-control strategy.
    pub fn strategy(mut self, strategy: impl TimeControlStrategy + 'static) -> Self {
        self.spec.config.strategy = Arc::new(strategy);
        self
    }

    /// Replaces the stopping criterion.
    pub fn stopping(mut self, stopping: StoppingCriterion) -> Self {
        self.spec.config.stopping = stopping;
        self
    }

    /// Chooses the fulfillment plan.
    pub fn fulfillment(mut self, fulfillment: Fulfillment) -> Self {
        self.spec.config.fulfillment = fulfillment;
        self
    }

    /// Overrides the sampling seed (defaults to a per-query seed
    /// derived from the database seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Replaces the retry policy for transient storage faults.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.spec.config.retry = retry;
        self
    }

    /// Attaches an execution tracer. Use
    /// [`Tracer::recording`] with the database's clock (e.g.
    /// `db.disk().clock().clone()`) so span durations are stamped in
    /// charged time. Call after [`CountQuery::config`], which replaces
    /// the whole config including the tracer.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.spec.config.tracer = tracer;
        self
    }

    /// Enables metrics collection: the report's `metrics` field gets a
    /// [`crate::MetricsSnapshot`] of storage and stage-loop counters.
    pub fn metrics(mut self, on: bool) -> Self {
        self.spec.config.collect_metrics = on;
        self
    }

    /// Attaches a phase profiler. Use [`Profiler::recording`] with
    /// the database's clock (e.g. `db.disk().clock().clone()`) so the
    /// simulated column reads charged time; the report's `profile`
    /// field then carries a [`crate::ProfileSnapshot`]. Profiling is
    /// pure observation — seeded results are byte-identical with it
    /// on or off.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.spec.config.profiler = profiler;
        self
    }

    /// Sets the worker-thread count for the pure-CPU portions of each
    /// stage. Estimates, reports, and traces are byte-identical at
    /// any worker count; values above 1 only change wall-clock time.
    /// Zero is treated as 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.spec.config.workers = workers;
        self
    }

    /// Sets each binary operator's budget, in tuples, for sorted
    /// runs that keep their decoded tuples; `0` keeps none. A kept
    /// run only skips its re-decode — every block read is still
    /// charged — so estimates, reports, and traces are byte-identical
    /// at any setting.
    pub fn run_cache(mut self, tuples: usize) -> Self {
        self.spec.config.run_cache_tuples = tuples;
        self
    }

    /// Selects how sampled blocks are decoded and traversed: row
    /// tuples (the default) or per-column typed arrays with bitmap
    /// selection. Estimates, reports, and traces are byte-identical
    /// under either layout; only wall-clock time changes.
    pub fn block_layout(mut self, layout: BlockLayout) -> Self {
        self.spec.config.block_layout = layout;
        self
    }

    /// Replaces the whole config in one call (every setting is a
    /// public field of [`EngineConfig`]).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.spec.config = self.db.calibrated(config);
        self
    }

    /// Runs the stage loop.
    pub fn run(self) -> Result<TimedCount, EngineError> {
        self.spec.run(&self.db.disk, &self.db.catalog)
    }
}

/// The one description of a run: the aggregate, the expression, the
/// quota, the sampling seed and the [`EngineConfig`]. Built by
/// [`Database::prepare`] (seed drawn from the database's sequence,
/// config calibrated to its device) or spelled out field by field;
/// executed by [`PreparedQuery::run`], or a stage at a time through
/// [`StageRun::start`] — possibly on a per-job lane view of the
/// shared disk.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The aggregate to estimate.
    pub agg: AggregateFn,
    /// The relational expression.
    pub expr: Expr,
    /// The time quota `T` (default 1 s).
    pub quota: Duration,
    /// The sampling seed (seeds the block samplers).
    pub seed: u64,
    /// The engine's settings for this run; spans and events go to
    /// its tracer.
    pub config: EngineConfig,
}

impl PreparedQuery {
    /// Runs the stage loop to completion against `catalog` on `disk`.
    pub fn run(&self, disk: &Arc<Disk>, catalog: &Catalog) -> Result<ExecOutcome, EngineError> {
        let mut run = StageRun::start(disk, catalog, self)?;
        while run.step()? {}
        Ok(run.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::OneAtATimeInterval;
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
