//! # eram-core
//!
//! Time-constrained evaluation of `COUNT(E)` — the primary
//! contribution of Hou, Özsoyoğlu & Taneja, *"Processing Aggregate
//! Relational Queries with Hard Time Constraints"* (SIGMOD 1989).
//!
//! Given a relational-algebra expression `E` and a time quota `T`,
//! the engine answers "evaluate `COUNT(E)` within `T` time units"
//! with a statistical estimate whose precision grows with whatever
//! fraction of `T` the device allows, via the paper's stage loop
//! (Figure 3.1):
//!
//! 1. **Revise-Selectivities** (Figure 3.3) — per-operator sample
//!    selectivities from all previous stages ([`seltrack`]);
//! 2. **Sample-Size-Determine** (Figure 3.4) — bisection on the
//!    stage's sample fraction until the predicted stage cost meets the
//!    remaining quota ([`strategy`], [`predict`]);
//! 3. draw new disk blocks from every operand relation (cluster
//!    sampling, without replacement across stages);
//! 4. evaluate the sample with sort-based operators under *full* or
//!    *partial fulfillment* ([`ops`]), recomputing the running
//!    estimate;
//! 5. adapt the cost-formula coefficients from the measured step
//!    durations ([`costs`], Section 4's "adaptive time cost
//!    formulas");
//! 6. repeat until a stopping criterion fires ([`stopping`]): the
//!    hard deadline (timer interrupt; the in-flight stage is aborted
//!    and wasted), a soft deadline, an error bound, or no-improvement.
//!
//! The crate's public entry point is [`Database`] + [`CountQuery`]:
//!
//! ```
//! use std::time::Duration;
//! use eram_core::Database;
//! use eram_relalg::{CmpOp, Expr, Predicate};
//! use eram_storage::{ColumnType, Schema, Tuple, Value};
//!
//! let mut db = Database::sim_default(42);
//! let schema = Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)])
//!     .padded_to(200);
//! db.load_relation(
//!     "r",
//!     schema,
//!     (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100)])),
//! )
//! .unwrap();
//!
//! let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
//! let result = db
//!     .count(expr)
//!     .within(Duration::from_secs(10))
//!     .run()
//!     .unwrap();
//! // ≈ 5_000 with a confidence interval, inside the quota.
//! assert!(result.report.utilization() <= 1.0);
//! let (lo, hi) = result.estimate.ci(0.95);
//! assert!(lo <= hi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod config;
pub mod costs;
pub mod executor;
pub mod kernel;
pub mod obs;
pub mod ops;
pub mod parallel;
pub mod predict;
pub mod report;
pub mod retry;
pub mod seltrack;
pub mod server;
pub mod session;
pub mod stopping;
pub mod strategy;

pub use aggregate::{AggregateFn, GroupSnapshot, GroupState, GroupedAccumulator, TermValues};
pub use config::EngineConfig;
pub use costs::{CostCoeff, CostModel};
pub use executor::{term_estimate, term_estimate_with, EngineError, ExecOutcome, StageRun};
pub use kernel::{merge_keyed, sort_run, KeyColumn, KeySpec, MergeKind};
pub use obs::{
    Histogram, MetricsSnapshot, OperatorGuard, Phase, PhaseGuard, PhaseStats, PhaseTotals,
    ProfileSnapshot, Profiler, SpanGuard, TraceKind, TraceRecord, Tracer, ENGINE_OPERATOR,
    SCHEMA_VERSION,
};
pub use ops::{
    BlockLayout, Fulfillment, MemoryMode, StageError, StageHealth, DEFAULT_RUN_CACHE_TUPLES,
};
pub use parallel::map_ordered;
pub use report::{ExecutionReport, GroupReport, RefusalReason, ReportHealth, StageReport};
pub use retry::RetryPolicy;
pub use server::{
    Concurrency, DecisionAction, DecisionRecord, JobReport, JobState, LaneWindow, QueryServer,
    ScheduleReport, ServerConfig, ServerJob, ServerOutcome, ServerStats, TenantLedger, TenantSlo,
    DEFAULT_MIN_QUOTA,
};
pub use session::{CountQuery, Database, PreparedQuery, TimedCount};
pub use stopping::{error_bound_satisfied, StoppingCriterion};
pub use strategy::{
    HeuristicStrategy, OneAtATimeInterval, SelectivityDefaults, SingleInterval, StagePlan,
    TimeControlStrategy,
};
