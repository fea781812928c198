//! The public facade: a database you load relations into and ask
//! time-constrained `COUNT` queries of.
//!
//! A [`Database`] bundles the clock, the device, and the catalog.
//! [`Database::open`] builds every one from a [`Store`]: the
//! [`Device`] (clock, cost profile, prior coefficients), memory or a
//! directory of files, and the buffer cache. A [`Device::Wall`] store
//! over files is the paper's own setting: a hard deadline on real
//! time over disk-resident relations.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use eram_relalg::{eval, Catalog, Expr};
use eram_storage::{
    Clock, DeviceProfile, Disk, HeapFile, IngestFormat, Schema, SeedSeq, SimClock, StorageError,
    Tuple, WallClock,
};

use crate::aggregate::AggregateFn;
use crate::config::EngineConfig;
use crate::costs::CostModel;
use crate::executor::{EngineError, ExecOutcome, StageRun};
use crate::obs::{Profiler, Tracer};
use crate::ops::BlockLayout;
use crate::retry::RetryPolicy;
use crate::stopping::StoppingCriterion;
use crate::strategy::TimeControlStrategy;

/// The device a database runs on: its clock, its cost profile, and
/// the prior cost coefficients a query starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Device {
    /// The paper's SUN 3/60 on a simulated clock, 1989-scale prior.
    #[default]
    Sun3_60,
    /// NVMe-scale, on a simulated clock; microsecond-scale prior.
    Modern,
    /// Real wall-clock time: charges are free and the quota
    /// constrains actual execution; microsecond-scale prior.
    Wall,
}

/// Everything [`Database::open`] needs to build the disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Store {
    /// Clock, profile and prior coefficients.
    pub device: Device,
    /// Memory, or one file per relation or temporary under this
    /// existing directory (one store per directory).
    pub dir: Option<PathBuf>,
    /// Blocks of LRU buffer cache (0 = none, the paper's setup).
    pub cache_blocks: usize,
}

impl Store {
    /// An in-memory, uncached store on `device`.
    pub fn on(device: Device) -> Self {
        Store {
            device,
            ..Store::default()
        }
    }
}

/// A self-contained ERAM instance: clock + device + catalog.
pub struct Database {
    disk: Arc<Disk>,
    catalog: Catalog,
    seeds: SeedSeq,
    query_counter: u64,
    /// The device's prior, handed to queries that bring none.
    default_cost_model: CostModel,
}

impl Database {
    /// Opens a database on `store`, its disk seeded from `seed`. Fails
    /// only when the store's directory cannot hold files.
    pub fn open(store: Store, seed: u64) -> Result<Self, StorageError> {
        let (clock, profile, prior): (Arc<dyn Clock>, _, _) = match store.device {
            Device::Sun3_60 => (
                Arc::new(SimClock::new()),
                DeviceProfile::sun_3_60(),
                CostModel::generic_default(),
            ),
            Device::Modern => (
                Arc::new(SimClock::new()),
                DeviceProfile::modern(),
                CostModel::modern_default(),
            ),
            Device::Wall => (
                Arc::new(WallClock::new()),
                DeviceProfile::sun_3_60(),
                CostModel::modern_default(),
            ),
        };
        let seeds = SeedSeq::new(seed);
        let (dir, cache) = (store.dir.as_deref(), store.cache_blocks);
        let disk = Disk::open(clock, profile, seeds.derive(0xD15C), dir, cache)?;
        Ok(Database {
            disk,
            catalog: Catalog::new(),
            seeds,
            query_counter: 0,
            default_cost_model: prior,
        })
    }

    /// The paper-calibrated simulated SUN 3/60, in memory.
    pub fn sim_default(seed: u64) -> Self {
        Self::open(Store::on(Device::Sun3_60), seed).expect("an in-memory store always opens")
    }

    /// The simulated NVMe-scale device, in memory.
    pub fn sim_modern(seed: u64) -> Self {
        Self::open(Store::on(Device::Modern), seed).expect("an in-memory store always opens")
    }

    /// Real wall-clock time, in memory.
    pub fn wall(seed: u64) -> Self {
        Self::open(Store::on(Device::Wall), seed).expect("an in-memory store always opens")
    }

    /// `config` calibrated to this database's device: a config that
    /// names no cost model of its own gets the device's prior.
    /// Every run a database starts — the query builder's, the
    /// server's admission pricing and its lanes — passes through
    /// here, so the default is resolved in one place.
    pub fn calibrated(&self, mut config: EngineConfig) -> EngineConfig {
        config
            .cost_model
            .get_or_insert_with(|| self.default_cost_model.clone());
        config
    }

    /// Loads (or replaces) a base relation.
    ///
    /// Relations follow the paper's **set semantics** ("a relation
    /// instance I with |r| tuples is modeled as a set"): tuples are
    /// expected to be distinct. Loading duplicates is not rejected
    /// (scanning to check would defeat bulk loading) but makes
    /// estimates count the multiset while [`Database::exact_count`]
    /// deduplicates.
    pub fn load_relation(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), StorageError> {
        let hf = HeapFile::load(self.disk.clone(), schema, tuples)?;
        self.catalog.register(name, hf);
        Ok(())
    }

    /// Loads a relation from a CSV or JSON-lines file. The parsed tuples
    /// land in the same [`HeapFile`] layout regardless of format, so
    /// queries over the relation are byte-identical across formats.
    pub fn load_ingest(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        path: &std::path::Path,
        format: IngestFormat,
    ) -> Result<usize, StorageError> {
        let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
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

/// Each setting's meaning is documented once, on its [`EngineConfig`]
/// field; [`CountQuery::config`] replaces them all, so call it first.
impl CountQuery<'_> {
    /// Sets the time quota `T` (default 1 s).
    pub fn within(mut self, quota: Duration) -> Self {
        self.spec.quota = quota;
        self
    }

    /// Sets [`EngineConfig::strategy`].
    pub fn strategy(mut self, strategy: impl TimeControlStrategy + 'static) -> Self {
        self.spec.config.strategy = Arc::new(strategy);
        self
    }

    /// Sets [`EngineConfig::stopping`].
    pub fn stopping(mut self, stopping: StoppingCriterion) -> Self {
        self.spec.config.stopping = stopping;
        self
    }

    /// Overrides the sampling seed (defaults to a per-query seed
    /// derived from the database seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets [`EngineConfig::retry`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.spec.config.retry = retry;
        self
    }

    /// Sets [`EngineConfig::tracer`]; a [`Tracer::recording`] on
    /// `db.disk().clock()` stamps spans in charged time.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.spec.config.tracer = tracer;
        self
    }

    /// Sets [`EngineConfig::collect_metrics`].
    pub fn metrics(mut self, on: bool) -> Self {
        self.spec.config.collect_metrics = on;
        self
    }

    /// Sets [`EngineConfig::profiler`]; a [`Profiler::recording`] on
    /// `db.disk().clock()` reads charged time in its simulated column.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.spec.config.profiler = profiler;
        self
    }

    /// Does nothing: every stage runs on the calling thread. Kept
    /// only because the wall-clock benchmark's engine binding calls
    /// it on every query; the benchmark change of ROADMAP item 1
    /// deletes it.
    #[deprecated(note = "stage work always runs on the calling thread; this call does nothing")]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Does nothing: every sorted run keeps its tuples. Kept only
    /// because the wall-clock benchmark's engine binding calls it for
    /// one probe; the `[benchmark]` change of ROADMAP item 1 deletes
    /// it.
    #[deprecated(note = "every sorted run keeps its tuples; this call does nothing")]
    pub fn run_cache(self, _tuples: usize) -> Self {
        self
    }

    /// Sets [`EngineConfig::block_layout`].
    pub fn block_layout(mut self, layout: BlockLayout) -> Self {
        self.spec.config.block_layout = layout;
        self
    }

    /// Replaces the whole config in one call.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.spec.config = self.db.calibrated(config);
        self
    }

    /// Runs the stage loop.
    pub fn run(self) -> Result<ExecOutcome, EngineError> {
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
            .seed(5)
            .run()
            .unwrap();
        assert!(out.report.completed_stages() >= 1);
        assert!(out.estimate.estimate > 0.0);
    }

    #[test]
    fn each_device_names_its_clock_profile_and_prior() {
        let (sun, modern) = (DeviceProfile::sun_3_60(), DeviceProfile::modern());
        let (generic, fast) = (CostModel::generic_default(), CostModel::modern_default());
        for (device, simulated, profile, prior) in [
            (Device::Sun3_60, true, &sun, &generic),
            (Device::Modern, true, &modern, &fast),
            (Device::Wall, false, &sun, &fast),
        ] {
            for cache_blocks in [0, 16] {
                let store = Store {
                    cache_blocks,
                    ..Store::on(device)
                };
                let db = Database::open(store, 1).unwrap();
                assert_eq!(db.disk().clock().is_simulated(), simulated, "{device:?}");
                assert_eq!(db.disk().profile(), profile, "{device:?}");
                let calibrated = db.calibrated(EngineConfig::default());
                assert_eq!(calibrated.cost_model.as_ref(), Some(prior), "{device:?}");
                assert_eq!(db.disk().cache_stats().is_some(), cache_blocks > 0);
            }
        }
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
        let key = |o: &ExecOutcome| (o.estimate.estimate, o.report.blocks_evaluated());
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
        let within = Duration::from_secs(6);
        let out = db.count(expr.clone()).within(within).run().unwrap();
        assert!(out.estimate.estimate >= 0.0);
        let h = out.report.health;
        assert!(h.faults_seen > 0);
        assert_eq!(h.degraded, h.blocks_lost > 0);
        let stats = db.disk().stats();
        assert!(stats.faults_transient + stats.faults_corrupt > 0);
        // Disarming returns the device to clean operation.
        db.disk().clear_fault_plan();
        let clean = db.count(expr).within(within).run().unwrap();
        assert_eq!(clean.report.health.faults_seen, 0);
        assert_eq!(db.disk().stats().faults_transient, stats.faults_transient);
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
        assert!(metrics.counter("storage.block_reads") > 0);
        // The trace is valid JSONL.
        for line in tracer.to_jsonl().lines() {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    #[allow(deprecated)]
    fn the_leftover_workers_setter_changes_no_byte() {
        let run = |setter: Option<fn(CountQuery<'_>) -> CountQuery<'_>>| {
            let mut db = populated(9);
            let tracer = Tracer::recording(db.disk().clock().clone());
            let expr = Expr::relation("t").join(Expr::relation("t"), vec![(1, 1)]);
            let mut query = db
                .count(expr)
                .within(Duration::from_secs(6))
                .tracer(tracer.clone());
            if let Some(set) = setter {
                query = set(query);
            }
            let out = query.run().unwrap();
            (
                eram_storage::json::to_string(&out.report),
                tracer.to_jsonl(),
            )
        };
        let (report, trace) = run(None);
        assert!(!trace.is_empty());
        assert_eq!(run(Some(|q| q.workers(8))), (report.clone(), trace.clone()));
        assert_eq!(run(Some(|q| q.run_cache(0))), (report, trace));
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
