//! Multi-tenant serving: admission control, overload shedding, and
//! per-job fault isolation over one shared storage backend.
//!
//! The paper's closing argument is that fixing query execution times
//! makes transaction deadlines *schedulable*. This module turns that
//! into a serving discipline. A [`QueryServer`] accepts N concurrent
//! deadline-bound jobs and guarantees that every one of them ends in
//! exactly one of three states — **answered by its deadline**,
//! **refused with a structured reason**, or **shed with a structured
//! reason** — never a silent deadline blowout:
//!
//! 1. **Predictive admission** — before anything runs, each job is
//!    checked against the projected schedule: its granted quota must
//!    clear its declared minimum, and the QCOST floor of its
//!    expression (Section 4's cost formulas via
//!    [`crate::predict::predict_stage`] at `f ≈ 0` — one block per
//!    operand relation plus stage overhead) must fit inside that
//!    grant. A job that cannot fit even on an idle server is refused
//!    [`RefusalReason::Infeasible`]; one squeezed out by admitted
//!    load is refused [`RefusalReason::Overloaded`].
//! 2. **Adaptive refit** — the engine guarantees `spent ≈ quota`
//!    under a hard constraint, but fault storms (latency spikes,
//!    retry backoffs) inflate the *overshoot*: the tail of the
//!    in-flight stage that completes after the timer interrupt. The
//!    server tracks an EWMA of `spent / granted` (the Section-4
//!    adaptive-coefficient idea applied one level up) and divides
//!    future grants by it, so a storm makes later answers *coarser*
//!    instead of *later*.
//! 3. **Overload shedding** — before every job start the remaining
//!    queue is replanned against the actual clock and the refit
//!    overrun factor. While some pending job's projected grant falls
//!    below its minimum, the server evicts the candidate with the
//!    least value-per-slack (ties to the later deadline) from the
//!    jobs at or before the infeasibility, marking it
//!    [`RefusalReason::Shed`]. Eviction is triage: better one
//!    explicit casualty than a cascade of silent misses.
//! 4. **Per-job isolation** — each job runs with its own budget-
//!    capped [`RetryPolicy`] under a forced
//!    [`StoppingCriterion::HardDeadline`]; a job that hits corrupt
//!    blocks degrades alone (its own `health.degraded`), a job whose
//!    expression is broken fails alone (at admission when QCOST
//!    screening is on, so it burns no quota), and a watchdog records
//!    any engine overshoot past the configured grace so a stuck
//!    stage is visible in the trace and metrics.
//!
//! **Deterministic replay**: admission order is canonical (stable
//! EDF), all admission math is charge-free, grants and RNG seeds
//! derive from the database seed and the call sequence, and the
//! engine's own stage loop is byte-identical at any worker count. A
//! seeded multi-job run therefore produces byte-identical
//! [`ServerOutcome`] JSON and trace JSONL across `--workers 1/4` and
//! across repeated runs (on a simulated clock).
//!
//! **Concurrency (vector-clock charge accounting)**: every admitted
//! job executes on its own *lane* — a private virtual clock, RNG
//! stream, fault-injector instance, and trace buffer over a
//! [`lane view`](eram_storage::Disk::lane_view) of the shared disk —
//! so the batch's charge state is a vector of per-job clocks rather
//! than one scalar timeline. Quotas are fixed at admission (the
//! phase-1 grant *is* the execution quota): a dispatch-time grant
//! would be a function of preceding jobs' actual spends, which
//! provably forces sequential execution on any schedule that must
//! stay byte-identical. The server then *replays* the canonical EDF
//! control loop (shed sweeps, refit, ledger, trace stamps) over the
//! lane outcomes on a virtual timeline, so
//! [`Concurrency::Sequential`] (each lane drained lazily at its
//! dispatch point) and [`Concurrency::Interleaved`] (all admitted
//! lanes stepped up front on the calling thread, one stage per turn
//! in least-virtual-time order, base-relation draws pooled through a
//! [`SharedDrawBroker`]) produce byte-identical per-job reports,
//! traces, and schedule-stripped outcomes. Only
//! [`ServerOutcome::schedule`] and the tenants' sharing counters —
//! the makespan/IO story — are allowed to differ between modes; see
//! [`ServerOutcome::stripped_of_schedule`].
//!
//! **Deadline forensics**: every serving decision — admission,
//! refusal, grant deflation, refit, shed, watchdog trip, completion —
//! is mirrored as a `server.decision` trace event carrying the inputs
//! it was made from, and (when [`ServerConfig::collect_ledger`] is
//! set) folded into a [`TenantLedger`] of per-tenant SLO counters and
//! an append-only decision audit log riding
//! [`ServerOutcome::ledger`]. See [`ledger`].

use std::time::Duration;

use eram_relalg::{push_selections, Expr, PieRewrite};
use eram_sampling::CountEstimate;
use eram_storage::json::{unknown_variant, FromJson, JsonError, ToJson};
use eram_storage::{json, json_record, json_unit_enum, Json, Rng, SharedDrawBroker};

use crate::aggregate::AggregateFn;
use crate::costs::CostModel;
use crate::executor::EngineError;
use crate::obs::{MetricsRegistry, MetricsSnapshot, Tracer};
use crate::ops::{Fulfillment, PhysTree};
use crate::predict::{predict_stage, SelPolicy};
use crate::report::{ExecutionReport, RefusalReason, ReportHealth};
use crate::retry::RetryPolicy;
use crate::seltrack::SelectivityDefaults;
use crate::session::{Database, PreparedQuery};
use crate::stopping::StoppingCriterion;

mod lanes;
pub mod ledger;

pub use ledger::{DecisionAction, DecisionRecord, RefitSample, TenantLedger, TenantSlo};

use lanes::{run_interleaved, Lane, LaneOutcome};
use ledger::duration_ns;

/// How [`QueryServer`] executes its admitted batch.
///
/// Both modes produce byte-identical per-job reports, traces, and
/// (schedule-stripped) outcomes — per-job charges live on private
/// lanes either way. The modes differ only in device-level totals:
/// interleaving admits cross-job block sharing, which sequential
/// execution cannot exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Drain each admitted job to completion in stable-EDF order.
    #[default]
    Sequential,
    /// Step all admitted jobs a stage at a time (least lane progress
    /// first, stable-EDF tiebreak), with the shared-draw broker
    /// pooling base-relation reads across live jobs.
    Interleaved,
}

json_unit_enum!(Concurrency {
    Sequential = "sequential",
    Interleaved = "interleaved",
});

impl Concurrency {
    /// Stable lowercase token (`seq` / `interleaved`), as accepted by
    /// [`Concurrency::parse`] and the CLI `--concurrency` flag.
    pub fn as_str(self) -> &'static str {
        match self {
            Concurrency::Sequential => "seq",
            Concurrency::Interleaved => "interleaved",
        }
    }

    /// Parses a CLI token; accepts `seq`/`sequential` and
    /// `interleaved`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "seq" | "sequential" => Some(Concurrency::Sequential),
            "interleaved" => Some(Concurrency::Interleaved),
            _ => None,
        }
    }
}

/// Default minimum useful quota for [`ServerJob::new`]: below 100 ms
/// on the paper's SUN 3/60 profile not even one block read fits, so
/// an answer under this quota is worthless and admission control
/// should refuse the job instead. Override per job with
/// [`ServerJob::with_min_quota`] when the device or the application's
/// notion of "worthless" differs (e.g. millisecond-scale minimums on
/// the modern profile).
pub const DEFAULT_MIN_QUOTA: Duration = Duration::from_millis(100);

/// One tenant's deadline-bound aggregate request.
#[derive(Debug, Clone)]
pub struct ServerJob {
    /// Label for reporting (tenant/request id).
    pub name: String,
    /// The aggregate to evaluate.
    pub agg: AggregateFn,
    /// The expression.
    pub expr: Expr,
    /// Absolute deadline, measured from the batch start on the
    /// database's clock.
    pub deadline: Duration,
    /// Quota the job would like if slack allows.
    pub desired_quota: Duration,
    /// Below this granted quota the answer is worthless to the
    /// caller; admission refuses (or shedding evicts) instead.
    pub min_quota: Duration,
    /// Relative worth used by the shedding policy (default 1.0).
    /// Higher-value jobs survive triage longer.
    pub value: f64,
    /// Per-job retry policy for transient storage faults; `None`
    /// inherits [`ServerConfig::retry`].
    pub retry: Option<RetryPolicy>,
}

impl ServerJob {
    /// A job with explicit aggregate, full-slack desired quota, the
    /// [`DEFAULT_MIN_QUOTA`] minimum, and unit value.
    pub fn new(name: impl Into<String>, agg: AggregateFn, expr: Expr, deadline: Duration) -> Self {
        ServerJob {
            name: name.into(),
            agg,
            expr,
            deadline,
            desired_quota: deadline,
            min_quota: DEFAULT_MIN_QUOTA,
            value: 1.0,
            retry: None,
        }
    }

    /// A COUNT job (the common case).
    pub fn count(name: impl Into<String>, expr: Expr, deadline: Duration) -> Self {
        Self::new(name, AggregateFn::Count, expr, deadline)
    }

    /// Replaces the admission threshold: below `min_quota` of granted
    /// time the job is refused or shed rather than run.
    pub fn with_min_quota(mut self, min_quota: Duration) -> Self {
        self.min_quota = min_quota;
        self
    }

    /// Caps the quota the job asks for even when slack is plentiful.
    pub fn with_desired_quota(mut self, desired_quota: Duration) -> Self {
        self.desired_quota = desired_quota;
        self
    }

    /// Sets the shedding value (relative worth under triage).
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = value;
        self
    }

    /// Sets a per-job retry policy for transient storage faults.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }
}

/// Terminal state of one served job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// The engine returned an estimate.
    Done,
    /// Admission control denied the job an answer — at admission
    /// ([`RefusalReason::Infeasible`] / [`RefusalReason::Overloaded`])
    /// or mid-batch ([`RefusalReason::Shed`]).
    Refused {
        /// Why the job got no answer.
        reason: RefusalReason,
    },
    /// The engine (or QCOST admission screening) hit an error; the
    /// failure is isolated to this job.
    Failed {
        /// The rendered [`EngineError`].
        error: String,
    },
}

/// `{"kind": "done"}`, `{"kind": "refused", "reason": …}`,
/// `{"kind": "failed", "error": …}`.
impl ToJson for JobState {
    fn to_json(&self) -> Json {
        match self {
            JobState::Done => json!({"kind": "done"}),
            JobState::Refused { reason } => json!({"kind": "refused", "reason": reason}),
            JobState::Failed { error } => json!({"kind": "failed", "error": error}),
        }
    }
}

impl FromJson for JobState {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.field::<String>("kind")?.as_str() {
            "done" => Ok(JobState::Done),
            "refused" => Ok(JobState::Refused {
                reason: value.field("reason")?,
            }),
            "failed" => Ok(JobState::Failed {
                error: value.field("error")?,
            }),
            other => Err(unknown_variant("JobState", other)),
        }
    }
}

impl JobState {
    /// True if the job produced an estimate.
    pub fn is_done(&self) -> bool {
        matches!(self, JobState::Done)
    }

    /// True if the job was refused or shed (carries a
    /// [`RefusalReason`]).
    pub fn is_refused(&self) -> bool {
        matches!(self, JobState::Refused { .. })
    }

    /// True if the job was admitted and later evicted by overload
    /// shedding.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            JobState::Refused {
                reason: RefusalReason::Shed
            }
        )
    }
}

/// How one served job fared — the per-tenant answer sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job's label.
    pub name: String,
    /// The job's deadline (batch-relative).
    pub deadline: Duration,
    /// The job's shedding value.
    pub value: f64,
    /// When it started, relative to the batch start (for refused and
    /// shed jobs: when the decision was made).
    pub started_at: Duration,
    /// When it finished. Equals `started_at` for a job refused or shed
    /// before it ran; a job shed because its answer landed past the
    /// deadline keeps its real finish time.
    pub finished_at: Duration,
    /// The quota it was granted: zero if refused or shed before it
    /// ran, the executed grant otherwise (the late-shed case
    /// included).
    pub granted_quota: Duration,
    /// Terminal state.
    pub state: JobState,
    /// Fault-tolerance accounting; for refused/shed jobs the
    /// `refusal` field carries the structured reason.
    pub health: ReportHealth,
    /// The estimate, when the job ran to completion.
    pub estimate: Option<CountEstimate>,
    /// The full engine report, when the job ran to completion.
    pub report: Option<ExecutionReport>,
}

json_record!(JobReport {
    name: required,
    deadline: required,
    value: required,
    started_at: required,
    finished_at: required,
    granted_quota: required,
    state: required,
    health: required,
    estimate: omit_empty,
    report: omit_empty,
});

impl JobReport {
    /// True if the job produced an answer by its deadline.
    pub fn met(&self) -> bool {
        self.state.is_done() && self.finished_at <= self.deadline
    }
}

/// Batch-level accounting: every offered job lands in exactly one of
/// admitted/refused buckets, and every admitted job in exactly one of
/// completed/shed/failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs submitted.
    pub offered: u64,
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Jobs refused at admission (infeasible or overloaded).
    pub refused: u64,
    /// Admitted jobs evicted mid-batch by overload shedding.
    pub shed: u64,
    /// Jobs that hit an engine (or admission-screening) error.
    pub failed: u64,
    /// Admitted jobs that ran to completion.
    pub completed: u64,
    /// Completed jobs that finished by their deadline.
    pub deadlines_met: u64,
    /// Completed jobs that finished late — the quantity this whole
    /// module exists to keep at zero. The dispatch loop drops any
    /// result landing past its deadline (it becomes a [`shed`]
    /// casualty instead), so a nonzero count here means the serving
    /// invariant itself is broken.
    ///
    /// [`shed`]: ServerStats::shed
    pub deadlines_missed: u64,
    /// Jobs whose engine run overshot the granted quota beyond
    /// [`ServerConfig::watchdog_grace`].
    pub watchdog_overruns: u64,
}

json_record!(ServerStats {
    offered: required,
    admitted: required,
    refused: required,
    shed: required,
    failed: required,
    completed: required,
    deadlines_met: required,
    deadlines_missed: required,
    watchdog_overruns: required,
});

/// Everything one serving batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOutcome {
    /// Observability schema version (see
    /// [`crate::obs::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One report per offered job, in canonical admission (EDF)
    /// order: stable sort by deadline, submission order on ties.
    pub jobs: Vec<JobReport>,
    /// Batch-level accounting.
    pub stats: ServerStats,
    /// Server-loop counters and histograms, when
    /// [`ServerConfig::collect_metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
    /// Per-tenant SLO counters and the decision audit log, when
    /// [`ServerConfig::collect_ledger`] was set. Pure observation:
    /// with the flag off this field stays off the wire and the
    /// outcome JSON is byte-identical to pre-ledger writers.
    pub ledger: Option<TenantLedger>,
    /// How the batch was scheduled: per-lane windows, makespan, and
    /// shared-draw accounting. The only part of the outcome that is
    /// *allowed* to differ between concurrency modes (deterministic
    /// within each mode); everything else is byte-identical across
    /// `--concurrency seq|interleaved`. Absent in outcomes from
    /// pre-concurrency writers.
    pub schedule: Option<ScheduleReport>,
}

json_record!(ServerOutcome {
    schema_version: required,
    jobs: required,
    stats: required,
    metrics: omit_empty,
    ledger: omit_empty,
    schedule: omit_empty,
});

impl ServerOutcome {
    /// Deterministic pretty JSON (the replay artifact: byte-identical
    /// across worker counts and repeated seeded runs).
    pub fn to_json(&self) -> String {
        eram_storage::json::to_string_pretty(self)
    }

    /// The outcome minus everything mode-dependent: the schedule
    /// report is dropped and the tenants' sharing counters zeroed.
    /// Two serving runs that differ only in [`ServerConfig::concurrency`]
    /// must produce byte-identical stripped outcomes — this is the
    /// equivalence artifact the conformance suites and CI compare.
    /// (jq equivalent: `del(.schedule) | (.ledger.tenants[]? |=
    /// (.blocks_shared = 0 | .charge_saved_ns = 0))`.)
    pub fn stripped_of_schedule(&self) -> ServerOutcome {
        let mut out = self.clone();
        out.schedule = None;
        if let Some(ledger) = out.ledger.as_mut() {
            for slo in ledger.tenants.values_mut() {
                slo.blocks_shared = 0;
                slo.charge_saved_ns = 0;
            }
        }
        out
    }
}

/// One lane's slice of the batch schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneWindow {
    /// The job that ran on this lane.
    pub job: String,
    /// Rank at which the lane received its first turn (`None` for a
    /// lane that never ran — sequential mode sheds before dispatch).
    pub dispatch_order: Option<u64>,
    /// Charged time on the lane's own clock (zero if it never ran).
    pub spent: Duration,
    /// Lane reads served from the batch's shared-draw pool.
    pub blocks_shared: u64,
    /// Device time (ns) those pool hits spared the physical device.
    pub charge_saved_ns: u64,
    /// True if the lane's job was shed: its work (if any) was
    /// speculative and none of it is observable in the job reports.
    pub discarded: bool,
}

json_record!(LaneWindow {
    job: required,
    dispatch_order: omit_empty,
    spent: required,
    blocks_shared: required,
    charge_saved_ns: required,
    discarded: required,
});

/// The batch's scheduling story: what concurrency bought (or cost).
///
/// Per-job correctness lives in [`ServerOutcome::jobs`] and is
/// mode-invariant; this report carries the mode-*dependent* half —
/// simulated makespan, shared physical reads, wasted speculation —
/// in one deterministic structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// The mode that produced this schedule.
    pub concurrency: Concurrency,
    /// Simulated completion time of the whole batch: the consumed
    /// virtual timeline, plus discarded speculative work, minus the
    /// device time shared draws saved. Interleaving with sharing
    /// strictly beats sequential here whenever `blocks_shared > 0`.
    pub makespan: Duration,
    /// The canonical virtual timeline the control replay consumed —
    /// identical across modes (it is what the job reports are
    /// stamped with).
    pub virtual_makespan: Duration,
    /// Charged block reads summed over every lane that ran.
    pub charged_blocks: u64,
    /// Backend block fetches actually performed
    /// (`charged_blocks − blocks_shared`).
    pub physical_blocks: u64,
    /// Charged reads served from the shared-draw pool.
    pub blocks_shared: u64,
    /// Device time (ns) the pool spared the physical device.
    pub charge_saved_ns: u64,
    /// Speculative lane time discarded by mid-batch shedding
    /// (interleaved mode pre-runs every admitted lane).
    pub wasted: Duration,
    /// Per-lane windows, in canonical admission order.
    pub lanes: Vec<LaneWindow>,
}

json_record!(ScheduleReport {
    concurrency: required,
    makespan: required,
    virtual_makespan: required,
    charged_blocks: required,
    physical_blocks: required,
    blocks_shared: required,
    charge_saved_ns: required,
    wasted: required,
    lanes: required,
});

/// Tunables for a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fraction of the slack granted as quota; the rest is scheduling
    /// margin for the engine's block-granularity abort overshoot
    /// and fault-storm overshoot.
    pub slack_margin: f64,
    /// Worker threads per job for the pure-CPU stage work (results
    /// are byte-identical at any count).
    pub workers: usize,
    /// Retry policy for jobs that don't carry their own.
    pub retry: RetryPolicy,
    /// Cost model for QCOST admission screening and per-job
    /// execution; `None` inherits the database's default model.
    pub cost_model: Option<CostModel>,
    /// Refuse jobs whose QCOST floor (one block per operand relation
    /// plus stage overhead) exceeds their projected grant. Also
    /// screens broken expressions at admission, before they can burn
    /// quota.
    pub qcost_admission: bool,
    /// Apply selection pushdown before the admission-time compile
    /// (mirrors the executor's default).
    pub optimize: bool,
    /// EWMA weight for the overrun refit (0 freezes the factor at
    /// 1.0).
    pub overrun_alpha: f64,
    /// `spent > granted × grace` trips the watchdog counter and
    /// trace event.
    pub watchdog_grace: f64,
    /// Tracer shared by the server loop (`server.*` events) and every
    /// job's engine spans; one interleaved clock-stamped stream.
    pub tracer: Tracer,
    /// Collect server-loop counters into [`ServerOutcome::metrics`]
    /// and per-job engine metrics into each job's report.
    pub collect_metrics: bool,
    /// Aggregate the per-tenant SLO ledger and decision audit log
    /// into [`ServerOutcome::ledger`]. Charge-free and RNG-free;
    /// `server.decision` trace events are emitted whenever a
    /// recording tracer is attached, regardless of this flag, so the
    /// trace stream is identical either way.
    pub collect_ledger: bool,
    /// How admitted lanes are scheduled: [`Concurrency::Sequential`]
    /// (one lane at a time, in canonical EDF order) or
    /// [`Concurrency::Interleaved`] (stages from all admitted lanes
    /// interleaved, base-relation draws shared). Per-job reports,
    /// traces, and the schedule-stripped outcome are byte-identical
    /// across modes; only [`ServerOutcome::schedule`] and the
    /// tenants' sharing counters differ. On a wall clock the server
    /// always runs sequentially (there is no virtual time to order
    /// the turns by).
    pub concurrency: Concurrency,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            slack_margin: 0.9,
            workers: 1,
            retry: RetryPolicy::default(),
            cost_model: None,
            qcost_admission: true,
            optimize: true,
            overrun_alpha: 0.3,
            watchdog_grace: 1.25,
            tracer: Tracer::disabled(),
            collect_metrics: false,
            collect_ledger: false,
            concurrency: Concurrency::Sequential,
        }
    }
}

/// Bounds on a single observed `spent / granted` ratio before it
/// enters the EWMA (one pathological job must not poison the refit).
const OVERRUN_CLAMP: (f64, f64) = (0.25, 4.0);

/// Guard against division by ~zero slack in the shedding score.
const MIN_SLACK_SECS: f64 = 1e-9;

/// The admission-controlled, overload-shedding query server.
///
/// See the [module docs](self) for the serving discipline. Typical
/// use:
///
/// ```no_run
/// # use std::time::Duration;
/// # use eram_core::server::{QueryServer, ServerJob};
/// # use eram_core::Database;
/// # use eram_relalg::Expr;
/// # let mut db = Database::sim_default(7);
/// let jobs = vec![
///     ServerJob::count("a", Expr::relation("t"), Duration::from_secs(6)),
///     ServerJob::count("b", Expr::relation("t"), Duration::from_secs(12)).with_value(2.0),
/// ];
/// let outcome = QueryServer::new().run(&mut db, jobs);
/// for job in &outcome.jobs {
///     println!("{}: {:?} met={}", job.name, job.state, job.met());
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryServer {
    /// The serving tunables.
    pub config: ServerConfig,
}

impl QueryServer {
    /// A server with default tunables.
    pub fn new() -> Self {
        Self::default()
    }

    /// A server with explicit tunables.
    pub fn with_config(config: ServerConfig) -> Self {
        QueryServer { config }
    }

    /// Sets the slack margin in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if the margin is out of range.
    pub fn slack_margin(mut self, margin: f64) -> Self {
        assert!(margin > 0.0 && margin <= 1.0);
        self.config.slack_margin = margin;
        self
    }

    /// Sets per-job worker threads (zero is treated as 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Replaces the default retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Overrides the cost model used for admission and execution.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.config.cost_model = Some(model);
        self
    }

    /// Toggles QCOST admission screening.
    pub fn qcost_admission(mut self, on: bool) -> Self {
        self.config.qcost_admission = on;
        self
    }

    /// Attaches a tracer (use [`Tracer::recording`] with the
    /// database's clock for clock-stamped, replayable traces).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Toggles metrics collection.
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.collect_metrics = on;
        self
    }

    /// Toggles the per-tenant SLO ledger and decision audit log
    /// ([`ServerOutcome::ledger`]).
    pub fn ledger(mut self, on: bool) -> Self {
        self.config.collect_ledger = on;
        self
    }

    /// Selects the lane scheduling mode (see
    /// [`ServerConfig::concurrency`]).
    pub fn concurrency(mut self, mode: Concurrency) -> Self {
        self.config.concurrency = mode;
        self
    }

    /// Serves a batch: admission, execution with replan-and-shed,
    /// refit. Consumes the database's clock time; returns one report
    /// per offered job in canonical admission (EDF) order.
    pub fn run(&self, db: &mut Database, mut jobs: Vec<ServerJob>) -> ServerOutcome {
        let cfg = &self.config;
        let tracer = cfg.tracer.clone();
        let mut registry = cfg.collect_metrics.then(MetricsRegistry::new);
        let mut ledger = cfg.collect_ledger.then(TenantLedger::new);
        let clock = db.disk().clock().clone();
        let model = cfg
            .cost_model
            .clone()
            .unwrap_or_else(|| db.default_cost_model().clone());

        // Canonical admission order: stable EDF, so replay is a pure
        // function of the submitted job list.
        jobs.sort_by_key(|j| j.deadline);

        let mut stats = ServerStats {
            offered: jobs.len() as u64,
            ..ServerStats::default()
        };
        let mut slots: Vec<Option<JobReport>> = jobs.iter().map(|_| None).collect();

        // ---- Phase 1: predictive admission (charge-free). ----
        // The phase-1 grant IS the execution quota (see the module
        // docs): fixing it here is what makes each lane a pure
        // function of the admitted set, independent of how the other
        // lanes are scheduled.
        let mut grants: Vec<Duration> = vec![Duration::ZERO; jobs.len()];
        let mut pending: Vec<usize> = Vec::new();
        let mut projected = Duration::ZERO;
        for (idx, job) in jobs.iter().enumerate() {
            if let Some(ledger) = ledger.as_mut() {
                ledger.offer(&job.name);
            }
            // Admission is charge-free, so this stamp is the batch
            // start for every phase-1 decision — same timebase as the
            // trace stream.
            let t_ns = duration_ns(clock.elapsed());
            let slack = job.deadline.saturating_sub(projected);
            let grant = grant_for(job, projected, cfg.slack_margin, 1.0);
            let alone = grant_for(job, Duration::ZERO, cfg.slack_margin, 1.0);
            if grant < job.min_quota {
                let reason = if alone < job.min_quota {
                    RefusalReason::Infeasible
                } else {
                    RefusalReason::Overloaded
                };
                tracer.event("server.refuse", || {
                    vec![
                        ("job", Json::from(job.name.clone())),
                        ("reason", Json::from(reason.as_str())),
                        ("grant_ns", json_ns(grant)),
                        ("min_quota_ns", json_ns(job.min_quota)),
                    ]
                });
                decide(
                    &mut ledger,
                    &tracer,
                    DecisionRecord {
                        reason: Some(reason),
                        slack_ns: Some(duration_ns(slack)),
                        grant_ns: Some(duration_ns(grant)),
                        min_quota_ns: Some(duration_ns(job.min_quota)),
                        projected_start_ns: Some(duration_ns(projected)),
                        margin: Some(cfg.slack_margin),
                        ..DecisionRecord::new(t_ns, DecisionAction::Refuse, job.name.as_str())
                    },
                );
                stats.refused += 1;
                count(&mut registry, "server.refused");
                slots[idx] = Some(denied_report(job, Duration::ZERO, reason));
                continue;
            }
            // Charge-free aggregate validation: a job whose aggregate
            // cannot be evaluated on its expression (bad column, bad
            // group key) is isolated at admission — it burns no quota
            // and poisons no other tenant, exactly like a broken
            // expression below.
            if let Err(e) = job.agg.validate(&job.expr, db.catalog()) {
                let error = EngineError::Expr(e).to_string();
                tracer.event("server.job_failed", || {
                    vec![
                        ("job", Json::from(job.name.clone())),
                        ("error", Json::from(error.clone())),
                    ]
                });
                decide(
                    &mut ledger,
                    &tracer,
                    DecisionRecord {
                        error: Some(error.clone()),
                        ..DecisionRecord::new(t_ns, DecisionAction::Fail, job.name.as_str())
                    },
                );
                stats.failed += 1;
                count(&mut registry, "server.failed");
                slots[idx] = Some(failed_report(job, Duration::ZERO, Duration::ZERO, error));
                continue;
            }
            let mut floor = None;
            if cfg.qcost_admission {
                match qcost_floor(db, &job.expr, cfg.optimize, &model) {
                    Ok(floor_secs) => {
                        floor = Some(floor_secs);
                        if floor_secs > grant.as_secs_f64() {
                            let reason = if floor_secs > alone.as_secs_f64() {
                                RefusalReason::Infeasible
                            } else {
                                RefusalReason::Overloaded
                            };
                            tracer.event("server.refuse", || {
                                vec![
                                    ("job", Json::from(job.name.clone())),
                                    ("reason", Json::from(reason.as_str())),
                                    ("grant_ns", json_ns(grant)),
                                    ("qcost_floor_secs", Json::from(floor_secs)),
                                ]
                            });
                            decide(
                                &mut ledger,
                                &tracer,
                                DecisionRecord {
                                    reason: Some(reason),
                                    slack_ns: Some(duration_ns(slack)),
                                    grant_ns: Some(duration_ns(grant)),
                                    min_quota_ns: Some(duration_ns(job.min_quota)),
                                    projected_start_ns: Some(duration_ns(projected)),
                                    predicted_cost_secs: Some(floor_secs),
                                    margin: Some(cfg.slack_margin),
                                    ..DecisionRecord::new(
                                        t_ns,
                                        DecisionAction::Refuse,
                                        job.name.as_str(),
                                    )
                                },
                            );
                            stats.refused += 1;
                            count(&mut registry, "server.refused");
                            slots[idx] = Some(denied_report(job, Duration::ZERO, reason));
                            continue;
                        }
                    }
                    Err(e) => {
                        // Broken expression: isolated at admission —
                        // the failure burns no quota and poisons no
                        // other tenant.
                        let error = e.to_string();
                        tracer.event("server.job_failed", || {
                            vec![
                                ("job", Json::from(job.name.clone())),
                                ("error", Json::from(error.clone())),
                            ]
                        });
                        decide(
                            &mut ledger,
                            &tracer,
                            DecisionRecord {
                                error: Some(error.clone()),
                                ..DecisionRecord::new(t_ns, DecisionAction::Fail, job.name.as_str())
                            },
                        );
                        stats.failed += 1;
                        count(&mut registry, "server.failed");
                        slots[idx] =
                            Some(failed_report(job, Duration::ZERO, Duration::ZERO, error));
                        continue;
                    }
                }
            }
            tracer.event("server.admit", || {
                vec![
                    ("job", Json::from(job.name.clone())),
                    ("grant_ns", json_ns(grant)),
                    ("projected_start_ns", json_ns(projected)),
                ]
            });
            decide(
                &mut ledger,
                &tracer,
                DecisionRecord {
                    slack_ns: Some(duration_ns(slack)),
                    grant_ns: Some(duration_ns(grant)),
                    min_quota_ns: Some(duration_ns(job.min_quota)),
                    projected_start_ns: Some(duration_ns(projected)),
                    predicted_cost_secs: floor,
                    margin: Some(cfg.slack_margin),
                    overrun: Some(1.0), // factor is 1.0 at admission
                    ..DecisionRecord::new(t_ns, DecisionAction::Admit, job.name.as_str())
                },
            );
            stats.admitted += 1;
            count(&mut registry, "server.admitted");
            grants[idx] = grant;
            projected += grant; // overrun factor is 1.0 at admission
            pending.push(idx);
        }

        // ---- Phase 1.5: one prepared execution lane per admitted
        // job, in canonical order (the per-query seed stream is part
        // of the replay contract). Quotas are the fixed phase-1
        // grants, so every lane is a pure function of the admitted
        // set — independent of how (or whether) the others run. ----
        let admitted: Vec<usize> = pending.clone();
        let mut specs: Vec<PreparedQuery> = Vec::with_capacity(admitted.len());
        for &idx in &admitted {
            let job = &jobs[idx];
            let mut spec = db.prepare(job.agg, job.expr.clone());
            spec.quota = grants[idx];
            spec.config.stopping = StoppingCriterion::HardDeadline;
            spec.config.retry = job.retry.unwrap_or(cfg.retry);
            spec.config.workers = cfg.workers.max(1);
            spec.config.collect_metrics = cfg.collect_metrics;
            if let Some(model) = &cfg.cost_model {
                spec.config.cost_model = model.clone();
            }
            specs.push(spec);
        }
        let db = &*db;

        // Interleaving needs a virtual clock to define the turn
        // order; a wall clock always serves sequentially.
        let mode = if clock.is_simulated() {
            cfg.concurrency
        } else {
            Concurrency::Sequential
        };

        // Interleaved mode runs every admitted lane up front — one
        // stage per turn in least-virtual-time order, co-resident
        // base-relation draws pooled through the broker — and the
        // control replay below consumes the outcomes in canonical
        // order. Sequential mode drains each lane lazily at its
        // dispatch point, so jobs shed before dispatch never execute
        // at all.
        let (mut lane_slots, mut dispatch): (Vec<Option<LaneOutcome>>, Vec<usize>) = match mode {
            Concurrency::Interleaved => {
                let broker = SharedDrawBroker::new(
                    db.catalog()
                        .names()
                        .into_iter()
                        .filter_map(|name| db.catalog().relation(name))
                        .map(|file| file.file_id()),
                );
                let (outs, order) = run_interleaved(db, &specs, &tracer, broker);
                (outs.into_iter().map(Some).collect(), order)
            }
            Concurrency::Sequential => {
                let mut lazy: Vec<Option<LaneOutcome>> = Vec::with_capacity(specs.len());
                lazy.resize_with(specs.len(), || None);
                (lazy, Vec::new())
            }
        };
        let mut windows: Vec<LaneWindow> = admitted
            .iter()
            .map(|&idx| LaneWindow {
                job: jobs[idx].name.clone(),
                dispatch_order: None,
                spent: Duration::ZERO,
                blocks_shared: 0,
                charge_saved_ns: 0,
                discarded: false,
            })
            .collect();

        // ---- Phase 2: canonical control replay (replan-and-shed +
        // refit) over the lane outcomes. `vt` is the batch's virtual
        // timeline: the sum of the consumed lanes' private clocks, in
        // canonical order. Both modes replay the identical control
        // sequence over identical lane outcomes, so every report
        // field, ledger entry, and trace byte below is mode-invariant.
        let start = clock.elapsed();
        let mut vt = Duration::ZERO;
        let mut overrun = 1.0f64;
        let mut charged_blocks = 0u64;
        let mut blocks_shared = 0u64;
        let mut charge_saved_ns = 0u64;
        let mut wasted = Duration::ZERO;

        while !pending.is_empty() {
            let t = vt;
            let factor = overrun.max(1.0);
            // Shed until the projected schedule is feasible again.
            while let Some(pos) =
                first_infeasible(&jobs, &pending, &grants, t, cfg.slack_margin, factor)
            {
                let vpos = pick_victim(&jobs, &pending, t, cfg.slack_margin, factor, pos);
                let vidx = pending.remove(vpos);
                let victim = &jobs[vidx];
                let vlane = admitted
                    .iter()
                    .position(|&i| i == vidx)
                    .expect("victims were admitted");
                windows[vlane].discarded = true;
                tracer.event_at(duration_ns(start + t), "server.shed", || {
                    vec![
                        ("job", Json::from(victim.name.clone())),
                        ("reason", Json::from(RefusalReason::Shed.as_str())),
                        ("now_ns", json_ns(t)),
                        ("value", Json::from(victim.value)),
                    ]
                });
                decide(
                    &mut ledger,
                    &tracer,
                    DecisionRecord {
                        reason: Some(RefusalReason::Shed),
                        slack_ns: Some(duration_ns(victim.deadline.saturating_sub(t))),
                        min_quota_ns: Some(duration_ns(victim.min_quota)),
                        margin: Some(cfg.slack_margin),
                        overrun: Some(factor),
                        value: Some(victim.value),
                        ..DecisionRecord::new(
                            duration_ns(start + t),
                            DecisionAction::Shed,
                            victim.name.as_str(),
                        )
                    },
                );
                stats.shed += 1;
                count(&mut registry, "server.shed");
                slots[vidx] = Some(denied_report(victim, t, RefusalReason::Shed));
            }
            if pending.is_empty() {
                break;
            }
            let idx = pending.remove(0);
            let lane = admitted
                .iter()
                .position(|&i| i == idx)
                .expect("dispatched jobs were admitted");
            let job = &jobs[idx];
            let started_at = vt;
            let mut quota = grants[idx];
            tracer.event_at(duration_ns(start + started_at), "server.job_start", || {
                vec![
                    ("job", Json::from(job.name.clone())),
                    ("quota_ns", json_ns(quota)),
                    ("overrun_x1000", Json::from((factor * 1000.0) as u64)),
                ]
            });
            decide(
                &mut ledger,
                &tracer,
                DecisionRecord {
                    slack_ns: Some(duration_ns(job.deadline.saturating_sub(started_at))),
                    grant_ns: Some(duration_ns(quota)),
                    min_quota_ns: Some(duration_ns(job.min_quota)),
                    margin: Some(cfg.slack_margin),
                    overrun: Some(factor),
                    ..DecisionRecord::new(
                        duration_ns(start + started_at),
                        DecisionAction::Grant,
                        job.name.as_str(),
                    )
                },
            );
            observe(&mut registry, "server.grant_secs", quota.as_secs_f64());
            if mode == Concurrency::Sequential {
                dispatch.push(lane);
            }
            let mut attempt = lane_slots[lane]
                .take()
                .unwrap_or_else(|| Lane::new(db, &specs[lane], lane, &tracer, None).drain());
            // Dispatch-time deflation. Admission fixed this quota
            // against a projected start, but the actual timeline may
            // have slipped (earlier lanes overran under device
            // weather). When the attempt would land past the
            // deadline and a fresh dispatch-time grant is tighter
            // than the admission quota, the attempt is discarded —
            // its work becomes schedule-level waste — and the lane
            // re-runs under the deflated quota. Both modes take this
            // branch from identical replay state and identical lane
            // outcomes, and a re-run replays the same lane seed, so
            // the consumed outcome stays mode-invariant.
            if clock.is_simulated()
                && attempt.result.is_ok()
                && started_at + attempt.spent > job.deadline
            {
                let deflated = grant_for(job, started_at, cfg.slack_margin, factor).min(quota);
                if deflated < quota && deflated >= job.min_quota {
                    tracer.event_at(duration_ns(start + started_at), "server.deflate", || {
                        vec![
                            ("job", Json::from(job.name.clone())),
                            ("quota_ns", json_ns(quota)),
                            ("deflated_ns", json_ns(deflated)),
                            ("discarded_ns", json_ns(attempt.spent)),
                        ]
                    });
                    wasted += attempt.spent;
                    charged_blocks += attempt.reads;
                    blocks_shared += attempt.blocks_shared;
                    charge_saved_ns += attempt.charge_saved_ns;
                    quota = deflated;
                    specs[lane].quota = deflated;
                    attempt = Lane::new(db, &specs[lane], lane, &tracer, None).drain();
                }
            }
            let LaneOutcome {
                result,
                spent,
                records,
                reads,
                blocks_shared: lane_shared,
                charge_saved_ns: lane_saved,
            } = attempt;
            // Splice the lane's trace onto the shared stream at the
            // job's canonical start (wall-clock lanes trace straight
            // into the shared stream; their record list is empty).
            tracer.absorb(records, duration_ns(start + started_at));
            charged_blocks += reads;
            blocks_shared += lane_shared;
            charge_saved_ns += lane_saved;
            windows[lane].spent = spent;
            windows[lane].blocks_shared = lane_shared;
            windows[lane].charge_saved_ns = lane_saved;
            let finished_at = started_at + spent;
            vt = finished_at;
            // A result landing past the deadline is dropped below
            // (late shed): its pool hits stay discarded lane work,
            // never tenant credit.
            let late = result.is_ok() && finished_at > job.deadline;
            if !late {
                if let Some(ledger) = ledger.as_mut() {
                    ledger.credit_sharing(&job.name, lane_shared, lane_saved);
                }
            }

            // Section-4-style refit, one level up: fold the observed
            // overrun into the factor that deflates future grants.
            if !quota.is_zero() && cfg.overrun_alpha > 0.0 {
                let ratio = (spent.as_secs_f64() / quota.as_secs_f64())
                    .clamp(OVERRUN_CLAMP.0, OVERRUN_CLAMP.1);
                overrun += cfg.overrun_alpha * (ratio - overrun);
                let logged = overrun;
                tracer.event_at(duration_ns(start + finished_at), "server.refit", || {
                    vec![
                        ("ratio", Json::from(ratio)),
                        ("overrun", Json::from(logged)),
                    ]
                });
                decide(
                    &mut ledger,
                    &tracer,
                    DecisionRecord {
                        grant_ns: Some(duration_ns(quota)),
                        overrun: Some(logged),
                        ratio: Some(ratio),
                        spent_ns: Some(duration_ns(spent)),
                        ..DecisionRecord::new(
                            duration_ns(start + finished_at),
                            DecisionAction::Refit,
                            job.name.as_str(),
                        )
                    },
                );
                observe(&mut registry, "server.overrun_ratio", ratio);
            }
            if spent > scale(quota, cfg.watchdog_grace) {
                tracer.event_at(duration_ns(start + finished_at), "server.watchdog", || {
                    vec![
                        ("job", Json::from(job.name.clone())),
                        ("quota_ns", json_ns(quota)),
                        ("spent_ns", json_ns(spent)),
                    ]
                });
                decide(
                    &mut ledger,
                    &tracer,
                    DecisionRecord {
                        grant_ns: Some(duration_ns(quota)),
                        spent_ns: Some(duration_ns(spent)),
                        ..DecisionRecord::new(
                            duration_ns(start + finished_at),
                            DecisionAction::Watchdog,
                            job.name.as_str(),
                        )
                    },
                );
                stats.watchdog_overruns += 1;
                count(&mut registry, "server.watchdog_overruns");
            }

            let report = match result {
                Ok(_) if late => {
                    // Hard-deadline serving never delivers a late
                    // answer: the timeline keeps the charge, but the
                    // result is dropped and the job recorded as an
                    // explicit shed casualty instead of a silent
                    // deadline miss reaching a client.
                    stats.shed += 1;
                    count(&mut registry, "server.shed");
                    windows[lane].discarded = true;
                    tracer.event_at(duration_ns(start + finished_at), "server.shed", || {
                        vec![
                            ("job", Json::from(job.name.clone())),
                            ("reason", Json::from(RefusalReason::Shed.as_str())),
                            ("late_ns", json_ns(finished_at.saturating_sub(job.deadline))),
                            ("now_ns", json_ns(finished_at)),
                        ]
                    });
                    decide(
                        &mut ledger,
                        &tracer,
                        DecisionRecord {
                            reason: Some(RefusalReason::Shed),
                            grant_ns: Some(duration_ns(quota)),
                            spent_ns: Some(duration_ns(spent)),
                            value: Some(job.value),
                            ..DecisionRecord::new(
                                duration_ns(start + finished_at),
                                DecisionAction::Shed,
                                job.name.as_str(),
                            )
                        },
                    );
                    if let Some(ledger) = ledger.as_mut() {
                        ledger.spend(&job.name, spent);
                    }
                    let mut r = denied_report(job, started_at, RefusalReason::Shed);
                    r.finished_at = finished_at;
                    r.granted_quota = quota;
                    r
                }
                Ok(out) => {
                    stats.completed += 1;
                    count(&mut registry, "server.completed");
                    let met = finished_at <= job.deadline;
                    if met {
                        stats.deadlines_met += 1;
                        count(&mut registry, "server.deadlines_met");
                    } else {
                        stats.deadlines_missed += 1;
                        count(&mut registry, "server.deadlines_missed");
                    }
                    tracer.event_at(duration_ns(start + finished_at), "server.job_done", || {
                        vec![
                            ("job", Json::from(job.name.clone())),
                            ("elapsed_ns", json_ns(spent)),
                            ("met", Json::from(met)),
                        ]
                    });
                    decide(
                        &mut ledger,
                        &tracer,
                        DecisionRecord {
                            slack_ns: Some(duration_ns(job.deadline.saturating_sub(finished_at))),
                            grant_ns: Some(duration_ns(quota)),
                            spent_ns: Some(duration_ns(spent)),
                            value: Some(job.value),
                            met: Some(met),
                            ..DecisionRecord::new(
                                duration_ns(start + finished_at),
                                DecisionAction::Done,
                                job.name.as_str(),
                            )
                        },
                    );
                    if let Some(ledger) = ledger.as_mut() {
                        ledger.bank_slack(
                            &job.name,
                            job.value,
                            job.deadline.saturating_sub(finished_at),
                        );
                    }
                    JobReport {
                        name: job.name.clone(),
                        deadline: job.deadline,
                        value: job.value,
                        started_at,
                        finished_at,
                        granted_quota: quota,
                        state: JobState::Done,
                        health: out.report.health,
                        estimate: Some(out.estimate),
                        report: Some(out.report),
                    }
                }
                Err(e) => {
                    // The failure burned clock time the schedule had
                    // granted away — the next replan sees that — but
                    // it stays this job's failure alone.
                    let error = e.to_string();
                    stats.failed += 1;
                    count(&mut registry, "server.failed");
                    tracer.event_at(
                        duration_ns(start + finished_at),
                        "server.job_failed",
                        || {
                            vec![
                                ("job", Json::from(job.name.clone())),
                                ("error", Json::from(error.clone())),
                            ]
                        },
                    );
                    decide(
                        &mut ledger,
                        &tracer,
                        DecisionRecord {
                            grant_ns: Some(duration_ns(quota)),
                            spent_ns: Some(duration_ns(spent)),
                            error: Some(error.clone()),
                            ..DecisionRecord::new(
                                duration_ns(start + finished_at),
                                DecisionAction::Fail,
                                job.name.as_str(),
                            )
                        },
                    );
                    if let Some(ledger) = ledger.as_mut() {
                        ledger.spend(&job.name, spent);
                    }
                    let mut r = failed_report(job, started_at, finished_at, error);
                    r.granted_quota = quota;
                    r
                }
            };
            slots[idx] = Some(report);
        }

        // The batch consumed `vt` of lane time; advance the shared
        // clock by exactly that much so the session timeline reads as
        // if the jobs had run on it directly (a wall clock ignores
        // the charge — its time already passed inside the lanes).
        clock.charge(vt);

        // Lanes that pre-ran speculatively (interleaved mode) but
        // were shed before dispatch: wasted work, visible only in the
        // schedule report — never in per-job reports or the ledger.
        for (lane, slot) in lane_slots.iter_mut().enumerate() {
            if let Some(out) = slot.take() {
                wasted += out.spent;
                charged_blocks += out.reads;
                blocks_shared += out.blocks_shared;
                charge_saved_ns += out.charge_saved_ns;
                windows[lane].spent = out.spent;
                windows[lane].blocks_shared = out.blocks_shared;
                windows[lane].charge_saved_ns = out.charge_saved_ns;
                windows[lane].discarded = true;
            }
        }
        for (rank, &lane) in dispatch.iter().enumerate() {
            windows[lane].dispatch_order = Some(rank as u64);
        }
        let schedule = ScheduleReport {
            concurrency: mode,
            makespan: (vt + wasted).saturating_sub(Duration::from_nanos(charge_saved_ns)),
            virtual_makespan: vt,
            charged_blocks,
            physical_blocks: charged_blocks.saturating_sub(blocks_shared),
            blocks_shared,
            charge_saved_ns,
            wasted,
            lanes: windows,
        };

        if let Some(reg) = registry.as_mut() {
            reg.add("server.offered", stats.offered);
        }
        ServerOutcome {
            schema_version: crate::obs::SCHEMA_VERSION,
            jobs: slots
                .into_iter()
                .map(|s| s.expect("every offered job gets a report"))
                .collect(),
            stats,
            metrics: registry.map(|r| r.snapshot()),
            ledger,
            schedule: Some(schedule),
        }
    }
}

/// Mirrors one serving decision into the trace stream (always, when a
/// recording tracer is attached — the field closure is skipped when
/// tracing is off) and into the ledger (only when one is being
/// collected). Keeping the event unconditional is what makes the
/// ledger flag trace-invisible: the JSONL stream is byte-identical
/// with the ledger on or off.
fn decide(ledger: &mut Option<TenantLedger>, tracer: &Tracer, record: DecisionRecord) {
    tracer.event("server.decision", || record.trace_fields());
    if let Some(ledger) = ledger.as_mut() {
        ledger.record(record);
    }
}

/// The quota a job starting at `start` would be granted: its desired
/// quota, capped by `slack × margin / overrun-factor`. Dividing by
/// the refit factor is what turns fault storms into coarser (not
/// later) answers: expected spend `grant × factor` stays within the
/// margined slack.
fn grant_for(job: &ServerJob, start: Duration, margin: f64, factor: f64) -> Duration {
    let slack = job.deadline.saturating_sub(start);
    job.desired_quota
        .min(scale(slack, margin / factor.max(1.0)))
}

/// Walks the pending queue's projected timeline from `now`; returns
/// the position of the first job that no longer fits, or `None` when
/// the whole queue does. Two ways a job falls out:
///
/// 1. the grant a fresh admission at its projected start would earn
///    falls below its declared minimum (the pre-quota criterion), or
/// 2. its *fixed* admission quota, inflated by the refit factor, now
///    projects past its deadline (overcommit: earlier jobs consumed
///    more of the timeline than admission assumed).
///
/// The second check is what keeps the fixed-quota protocol honest:
/// quotas never shrink after admission — a job that can no longer
/// finish in time becomes an explicit shed casualty rather than a
/// silent deadline miss. Occupancy advances by the fixed quota
/// (refit-scaled), matching what dispatch will actually charge.
fn first_infeasible(
    jobs: &[ServerJob],
    pending: &[usize],
    quotas: &[Duration],
    now: Duration,
    margin: f64,
    factor: f64,
) -> Option<usize> {
    let mut t = now;
    for (pos, &idx) in pending.iter().enumerate() {
        let job = &jobs[idx];
        let grant = grant_for(job, t, margin, factor);
        if grant < job.min_quota {
            return Some(pos);
        }
        let occupancy = scale(quotas[idx], factor);
        if t + occupancy > job.deadline {
            return Some(pos);
        }
        t += occupancy;
    }
    None
}

/// Picks the eviction victim among `pending[0..=pos]` (evicting a job
/// scheduled *after* the infeasibility cannot help it): the least
/// value-per-slack, slack measured at each job's projected start.
/// Ties go to the later deadline. Deterministic: pure fold over the
/// projected timeline.
fn pick_victim(
    jobs: &[ServerJob],
    pending: &[usize],
    now: Duration,
    margin: f64,
    factor: f64,
    pos: usize,
) -> usize {
    let mut t = now;
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    for (p, &idx) in pending.iter().enumerate().take(pos + 1) {
        let job = &jobs[idx];
        let slack = job
            .deadline
            .saturating_sub(t)
            .as_secs_f64()
            .max(MIN_SLACK_SECS);
        let score = job.value / slack;
        if score <= best_score {
            best_score = score;
            best = p;
        }
        t += scale(grant_for(job, t, margin, factor), factor);
    }
    best
}

/// The QCOST floor of an expression: the predicted cost of the
/// minimum stage (one block per operand relation plus stage
/// overhead), in seconds. Charge-free and O(plan), not O(relation):
/// compiling a [`PhysTree`] only builds trackers and samplers that
/// have yet to draw their permutation, and the fixed seed cannot
/// influence the population geometry the prediction walk reads.
fn qcost_floor(
    db: &Database,
    expr: &Expr,
    optimize: bool,
    model: &CostModel,
) -> Result<f64, EngineError> {
    let catalog = db.catalog();
    let optimized;
    let expr = if optimize {
        optimized = push_selections(expr.clone(), &|name| {
            catalog.schema_of(name).map(eram_storage::Schema::arity)
        });
        &optimized
    } else {
        expr
    };
    let rewrite = PieRewrite::rewrite(expr)?;
    let mut rng = Rng::seed_from_u64(0xADA1_5510);
    let mut trees: Vec<PhysTree> = Vec::with_capacity(rewrite.terms.len());
    for term in &rewrite.terms {
        trees.push(PhysTree::build(
            &term.expr,
            catalog,
            db.disk(),
            &SelectivityDefaults::default(),
            Fulfillment::Full,
            &mut rng,
        )?);
    }
    Ok(predict_stage(&trees, 0.0, model, &SelPolicy::Mean).cost_secs)
}

fn denied_report(job: &ServerJob, at: Duration, reason: RefusalReason) -> JobReport {
    JobReport {
        name: job.name.clone(),
        deadline: job.deadline,
        value: job.value,
        started_at: at,
        finished_at: at,
        granted_quota: Duration::ZERO,
        state: JobState::Refused { reason },
        health: ReportHealth::refused(reason),
        estimate: None,
        report: None,
    }
}

fn failed_report(
    job: &ServerJob,
    started_at: Duration,
    finished_at: Duration,
    error: String,
) -> JobReport {
    JobReport {
        name: job.name.clone(),
        deadline: job.deadline,
        value: job.value,
        started_at,
        finished_at,
        granted_quota: Duration::ZERO,
        state: JobState::Failed { error },
        health: ReportHealth::default(),
        estimate: None,
        report: None,
    }
}

fn scale(d: Duration, x: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * x)
}

fn json_ns(d: Duration) -> Json {
    Json::from(d.as_nanos() as u64)
}

fn count(registry: &mut Option<MetricsRegistry>, name: &str) {
    if let Some(reg) = registry.as_mut() {
        reg.add(name, 1);
    }
}

fn observe(registry: &mut Option<MetricsRegistry>, name: &str, v: f64) {
    if let Some(reg) = registry.as_mut() {
        reg.observe(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_relalg::{CmpOp, Predicate};
    use eram_storage::{ColumnType, FaultPlan, Schema, Tuple, Value};

    fn db(seed: u64) -> Database {
        let mut db = Database::sim_default(seed);
        let schema =
            Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            "t",
            schema,
            (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
        )
        .unwrap();
        db
    }

    fn sel(k: i64) -> Expr {
        Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, k))
    }

    /// The acceptance invariant: every offered job ends answered by
    /// its deadline, refused with a reason, or shed with a reason.
    fn assert_no_silent_blowouts(outcome: &ServerOutcome) {
        for job in &outcome.jobs {
            match &job.state {
                JobState::Done => assert!(
                    job.met(),
                    "{} finished {:?} past deadline {:?}",
                    job.name,
                    job.finished_at,
                    job.deadline
                ),
                JobState::Refused { .. } => {
                    assert!(job.health.refusal.is_some(), "{} lacks a reason", job.name)
                }
                JobState::Failed { .. } => {}
            }
        }
        assert_eq!(outcome.stats.deadlines_missed, 0);
    }

    #[test]
    fn clean_batch_admits_everything_and_meets_deadlines() {
        let mut db = db(17);
        let jobs = vec![
            ServerJob::count("a", sel(3), Duration::from_secs(5)),
            ServerJob::count("b", sel(5), Duration::from_secs(12)),
            ServerJob::count("c", sel(7), Duration::from_secs(20)),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        assert_eq!(outcome.jobs.len(), 3);
        assert_eq!(outcome.stats.admitted, 3);
        assert_eq!(outcome.stats.completed, 3);
        assert_eq!(outcome.stats.deadlines_met, 3);
        assert_eq!(
            outcome.stats.refused + outcome.stats.shed + outcome.stats.failed,
            0
        );
        assert_no_silent_blowouts(&outcome);
        // Canonical EDF order in the report list.
        assert_eq!(outcome.jobs[0].name, "a");
        assert_eq!(outcome.jobs[2].name, "c");
        for job in &outcome.jobs {
            assert!(job.estimate.unwrap().estimate > 0.0);
            assert!(job.health.refusal.is_none());
        }
    }

    #[test]
    fn overload_refuses_with_overloaded_reason() {
        let mut db = db(18);
        // Five tenants all want the same 6 s window with a 2 s
        // minimum: the first fills it, the rest cannot fit.
        let jobs: Vec<ServerJob> = (0..5)
            .map(|i| {
                ServerJob::count(format!("j{i}"), sel(5), Duration::from_secs(6))
                    .with_min_quota(Duration::from_secs(2))
            })
            .collect();
        let outcome = QueryServer::new().run(&mut db, jobs);
        assert_eq!(outcome.stats.admitted, 1);
        assert_eq!(outcome.stats.refused, 4);
        assert_no_silent_blowouts(&outcome);
        let refused: Vec<&JobReport> = outcome
            .jobs
            .iter()
            .filter(|j| j.state.is_refused())
            .collect();
        assert_eq!(refused.len(), 4);
        for job in refused {
            assert_eq!(
                job.state,
                JobState::Refused {
                    reason: RefusalReason::Overloaded
                }
            );
            assert_eq!(job.health.refusal, Some(RefusalReason::Overloaded));
            assert_eq!(job.granted_quota, Duration::ZERO);
            assert_eq!(job.started_at, job.finished_at, "refusal burns no quota");
        }
    }

    #[test]
    fn impossible_deadline_is_infeasible_not_overloaded() {
        let mut db = db(19);
        // 50 ms of deadline cannot clear the 100 ms default minimum
        // even on an idle server.
        let jobs = vec![
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
            ServerJob::count("fine", sel(5), Duration::from_secs(10)),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        let tiny = outcome.jobs.iter().find(|j| j.name == "tiny").unwrap();
        assert_eq!(
            tiny.state,
            JobState::Refused {
                reason: RefusalReason::Infeasible
            }
        );
        let fine = outcome.jobs.iter().find(|j| j.name == "fine").unwrap();
        assert!(fine.met());
        assert_no_silent_blowouts(&outcome);
    }

    #[test]
    fn qcost_floor_refuses_quota_below_one_block() {
        let mut db = db(20);
        // 300 ms of deadline grants 270 ms — below the QCOST floor
        // (stage overhead + one block read ≈ 345 ms on the generic
        // model) though above the caller's tiny declared minimum.
        let job = ServerJob::count("below-floor", sel(5), Duration::from_millis(300))
            .with_min_quota(Duration::from_millis(1));
        let outcome = QueryServer::new().run(&mut db, vec![job]);
        assert_eq!(
            outcome.jobs[0].state,
            JobState::Refused {
                reason: RefusalReason::Infeasible
            }
        );
        // With screening off the same job is admitted (and burns its
        // quota for a worthless answer — exactly what the floor check
        // exists to prevent).
        let mut db = self::db(20);
        let job = ServerJob::count("below-floor", sel(5), Duration::from_millis(300))
            .with_min_quota(Duration::from_millis(1));
        let outcome = QueryServer::new()
            .qcost_admission(false)
            .run(&mut db, vec![job]);
        assert_eq!(outcome.stats.admitted, 1);
    }

    #[test]
    fn broken_job_fails_alone_at_admission() {
        let mut db = db(21);
        let jobs = vec![
            ServerJob::count("broken", Expr::relation("no_such"), Duration::from_secs(5)),
            ServerJob::count("fine", sel(5), Duration::from_secs(12)),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        let broken = outcome.jobs.iter().find(|j| j.name == "broken").unwrap();
        assert!(matches!(broken.state, JobState::Failed { .. }));
        // QCOST screening catches it before any quota is granted.
        assert_eq!(broken.granted_quota, Duration::ZERO);
        assert_eq!(broken.started_at, broken.finished_at);
        let fine = outcome.jobs.iter().find(|j| j.name == "fine").unwrap();
        assert!(fine.met(), "failure must not poison the batch");
        assert_eq!(outcome.stats.failed, 1);
        assert_no_silent_blowouts(&outcome);
    }

    #[test]
    fn corruption_degrades_jobs_individually_not_collectively() {
        let mut db = db(22);
        db.inject_faults(FaultPlan::new(5).with_transient(0.05).with_corruption(0.04));
        let jobs = vec![
            ServerJob::count("a", sel(3), Duration::from_secs(8)),
            ServerJob::count("b", sel(5), Duration::from_secs(18)),
            ServerJob::count("c", sel(7), Duration::from_secs(28)),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        assert_no_silent_blowouts(&outcome);
        // Every admitted job still answers; degradation is recorded
        // per job, not smeared across the batch.
        let mut total_faults = 0;
        for job in &outcome.jobs {
            assert!(job.state.is_done(), "{}: {:?}", job.name, job.state);
            assert_eq!(job.health.degraded, job.health.blocks_lost > 0);
            total_faults += job.health.faults_seen;
        }
        assert!(total_faults > 0, "the storm must have been observed");
    }

    /// End-to-end shedding: two small-quota jobs whose every stage is
    /// spiked past its quota teach the refit an overrun factor ≈ 2×;
    /// the replan then projects the low-value third job below its
    /// minimum and sheds it, while the survivors meet their
    /// deadlines.
    #[test]
    fn fault_storm_sheds_least_value_per_slack_job() {
        let mut db = db(23);
        db.inject_faults(FaultPlan::new(9).with_spikes(1.0, Duration::from_secs(1)));
        let jobs = vec![
            ServerJob::count("a", sel(5), Duration::from_secs(2))
                .with_desired_quota(Duration::from_millis(500))
                .with_min_quota(Duration::from_millis(100)),
            ServerJob::count("b", sel(5), Duration::from_secs(4))
                .with_desired_quota(Duration::from_millis(500))
                .with_min_quota(Duration::from_millis(100)),
            ServerJob::count("cheap", sel(5), Duration::from_secs_f64(4.4))
                .with_min_quota(Duration::from_millis(1200))
                .with_value(0.1),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        assert_eq!(
            outcome.stats.admitted, 3,
            "the storm is invisible at admission"
        );
        let cheap = outcome.jobs.iter().find(|j| j.name == "cheap").unwrap();
        assert!(
            cheap.state.is_shed(),
            "expected shed, got {:?}",
            cheap.state
        );
        assert_eq!(cheap.health.refusal, Some(RefusalReason::Shed));
        assert_eq!(outcome.stats.shed, 1);
        for name in ["a", "b"] {
            let job = outcome.jobs.iter().find(|j| j.name == name).unwrap();
            assert!(job.met(), "{name} must still meet its deadline");
        }
        // The spiked stages overshot their quotas hard enough to trip
        // the watchdog at least once.
        assert!(outcome.stats.watchdog_overruns > 0);
        assert_no_silent_blowouts(&outcome);
    }

    #[test]
    fn replay_is_byte_identical_across_workers_and_repeats() {
        let run = |workers: usize| {
            let mut db = db(41);
            db.inject_faults(FaultPlan::new(3).with_transient(0.05));
            let tracer = Tracer::recording(db.disk().clock().clone());
            let jobs = vec![
                ServerJob::count("a", sel(3), Duration::from_secs(6)),
                ServerJob::count("b", sel(5), Duration::from_secs(14)),
                ServerJob::count("c", sel(7), Duration::from_secs(15)).with_value(0.5),
            ];
            let outcome = QueryServer::new()
                .workers(workers)
                .metrics(true)
                .tracer(tracer.clone())
                .run(&mut db, jobs);
            (outcome.to_json(), tracer.to_jsonl())
        };
        let (json1, trace1) = run(1);
        let (json4, trace4) = run(4);
        assert_eq!(json1, json4, "reports must not depend on worker count");
        assert_eq!(trace1, trace4, "traces must not depend on worker count");
        let (json1b, trace1b) = run(1);
        assert_eq!(json1, json1b, "repeated runs must be byte-identical");
        assert_eq!(trace1, trace1b);
    }

    #[test]
    fn interleaved_matches_the_sequential_oracle() {
        let run = |mode: Concurrency, workers: usize| {
            let mut db = db(41);
            db.inject_faults(FaultPlan::new(3).with_transient(0.05));
            let tracer = Tracer::recording(db.disk().clock().clone());
            let jobs = vec![
                ServerJob::count("a", sel(3), Duration::from_secs(6)),
                ServerJob::count("b", sel(5), Duration::from_secs(14)),
                ServerJob::count("c", sel(7), Duration::from_secs(15)).with_value(0.5),
            ];
            let outcome = QueryServer::new()
                .workers(workers)
                .metrics(true)
                .ledger(true)
                .concurrency(mode)
                .tracer(tracer.clone())
                .run(&mut db, jobs);
            (outcome, tracer.to_jsonl())
        };
        let (seq, seq_trace) = run(Concurrency::Sequential, 1);
        let (inter, inter_trace) = run(Concurrency::Interleaved, 1);
        // The tentpole invariant: per-job results, the ledger, the
        // metrics, and every trace byte are mode-invariant; only the
        // schedule report (and the sharing counters it feeds) may
        // differ — and those strip away.
        assert_eq!(
            seq_trace, inter_trace,
            "trace bytes must not depend on the scheduling mode"
        );
        assert_eq!(
            seq.stripped_of_schedule().to_json(),
            inter.stripped_of_schedule().to_json(),
            "stripped outcomes must not depend on the scheduling mode"
        );
        // Worker count is lane-internal: even the schedule (sharing
        // counters included) replays across it.
        let (inter4, inter4_trace) = run(Concurrency::Interleaved, 4);
        assert_eq!(inter_trace, inter4_trace);
        assert_eq!(inter.to_json(), inter4.to_json());
        // The mode-dependent surface.
        let s = seq.schedule.as_ref().expect("schedule is always reported");
        let i = inter
            .schedule
            .as_ref()
            .expect("schedule is always reported");
        assert_eq!(s.concurrency, Concurrency::Sequential);
        assert_eq!(i.concurrency, Concurrency::Interleaved);
        assert_eq!(
            s.virtual_makespan, i.virtual_makespan,
            "the virtual timeline is mode-invariant"
        );
        assert_eq!(s.blocks_shared, 0, "the oracle never pools draws");
        assert_eq!(s.charged_blocks, s.physical_blocks);
        assert!(
            i.blocks_shared > 0,
            "co-resident scans of t must share draws"
        );
        assert_eq!(i.physical_blocks, i.charged_blocks - i.blocks_shared);
        assert!(
            i.makespan < s.makespan,
            "sharing must shrink the interleaved makespan ({:?} vs {:?})",
            i.makespan,
            s.makespan
        );
        // Sharing credits land on tenants — and strip away.
        let credited: u64 = inter
            .ledger
            .as_ref()
            .unwrap()
            .tenants
            .values()
            .map(|t| t.blocks_shared)
            .sum();
        let discarded: u64 = i
            .lanes
            .iter()
            .filter(|l| l.discarded)
            .map(|l| l.blocks_shared)
            .sum();
        assert_eq!(credited + discarded, i.blocks_shared);
        let stripped = inter.stripped_of_schedule();
        assert!(stripped
            .ledger
            .as_ref()
            .unwrap()
            .tenants
            .values()
            .all(|t| t.blocks_shared == 0 && t.charge_saved_ns == 0));
        assert!(stripped.schedule.is_none());
    }

    #[test]
    fn outcome_json_round_trips() {
        let mut db = db(29);
        let jobs = vec![
            ServerJob::count("ok", sel(5), Duration::from_secs(6)),
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
        ];
        let outcome = QueryServer::new().metrics(true).run(&mut db, jobs.clone());
        let back: ServerOutcome = json::from_str(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(back.stats.admitted, 1);
        assert_eq!(back.stats.refused, 1);
        let m = back.metrics.expect("metrics were requested");
        assert_eq!(m.counter("server.admitted"), 1);
        assert_eq!(m.counter("server.refused"), 1);
        assert_eq!(m.counter("server.offered"), 2);

        // With the ledger and the interleaved schedule on board too.
        let full = QueryServer::new()
            .ledger(true)
            .concurrency(Concurrency::Interleaved)
            .run(&mut db, jobs);
        assert!(full.ledger.is_some() && full.schedule.is_some());
        let back: ServerOutcome = json::from_str(&full.to_json()).unwrap();
        assert_eq!(back, full);
    }

    /// The wire shape older writers produced — no `metrics`, `ledger`
    /// or `schedule`, a report without `schema_version`, `groups`,
    /// `health`, `metrics` or `profile` — still loads, every absent
    /// field at its default.
    #[test]
    fn a_pre_ledger_outcome_document_still_loads() {
        let old = r#"{
          "schema_version": 1,
          "jobs": [
            {"name": "a", "deadline": {"secs": 6, "nanos": 0}, "value": 1.0,
             "started_at": {"secs": 0, "nanos": 0},
             "finished_at": {"secs": 1, "nanos": 500000000},
             "granted_quota": {"secs": 5, "nanos": 400000000},
             "state": {"kind": "done"},
             "health": {"faults_seen": 2},
             "estimate": {"estimate": 50.0, "variance": 4.0,
                          "points_sampled": 10.0, "total_points": 100.0},
             "report": {"quota": {"secs": 5, "nanos": 400000000}, "stages": [],
                        "total_elapsed": {"secs": 1, "nanos": 500000000},
                        "final_estimate": {"estimate": 50.0, "variance": 4.0,
                                           "points_sampled": 10.0, "total_points": 100.0}}},
            {"name": "b", "deadline": {"secs": 0, "nanos": 50000000}, "value": 1.0,
             "started_at": {"secs": 0, "nanos": 0}, "finished_at": {"secs": 0, "nanos": 0},
             "granted_quota": {"secs": 0, "nanos": 0},
             "state": {"kind": "refused", "reason": "infeasible"},
             "health": {"refusal": "infeasible"}}
          ],
          "stats": {"offered": 2, "admitted": 1, "refused": 1, "shed": 0, "failed": 0,
                    "completed": 1, "deadlines_met": 1, "deadlines_missed": 0,
                    "watchdog_overruns": 0}
        }"#;
        let outcome: ServerOutcome = json::from_str(old).unwrap();
        assert!(outcome.metrics.is_none() && outcome.ledger.is_none());
        assert!(outcome.schedule.is_none());
        let a = &outcome.jobs[0];
        assert!(a.met());
        assert_eq!(a.finished_at, Duration::from_millis(1500));
        assert_eq!(a.health.faults_seen, 2);
        let report = a.report.as_ref().unwrap();
        assert_eq!(report.schema_version, 0);
        assert!(report.groups.is_empty() && report.profile.is_none());
        assert_eq!(report.health, ReportHealth::default());
        assert_eq!(
            outcome.jobs[1].state,
            JobState::Refused {
                reason: RefusalReason::Infeasible
            }
        );
        assert_eq!(
            outcome.jobs[1].health.refusal,
            Some(RefusalReason::Infeasible)
        );
    }

    #[test]
    fn ledger_counters_cross_check_stats() {
        let mut db = db(37);
        let jobs = vec![
            ServerJob::count("ok", sel(5), Duration::from_secs(6)),
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
            ServerJob::count("broken", Expr::relation("no_such"), Duration::from_secs(5)),
        ];
        let outcome = QueryServer::new().ledger(true).run(&mut db, jobs);
        let ledger = outcome.ledger.as_ref().expect("ledger was requested");
        assert_eq!(ledger.schema_version, crate::obs::SCHEMA_VERSION);
        let sum = |f: fn(&TenantSlo) -> u64| ledger.tenants.values().map(f).sum::<u64>();
        assert_eq!(sum(|t| t.offered), outcome.stats.offered);
        assert_eq!(sum(|t| t.admitted), outcome.stats.admitted);
        assert_eq!(sum(|t| t.refused), outcome.stats.refused);
        assert_eq!(sum(|t| t.failed), outcome.stats.failed);
        assert_eq!(sum(|t| t.completed), outcome.stats.completed);
        assert_eq!(sum(|t| t.deadlines_met), outcome.stats.deadlines_met);
        assert_eq!(sum(|t| t.deadlines_missed), outcome.stats.deadlines_missed);
        // The completed tenant banked its spend against its grant and
        // some positive value-weighted slack.
        let ok = ledger.tenants.get("ok").unwrap();
        assert!(ok.granted_ns > 0);
        assert!(ok.spent_ns > 0);
        assert!(ok.value_weighted_slack_secs > 0.0);
        // The audit log narrates the whole batch: every tenant's
        // terminal decision is present.
        let action_of = |name: &str| {
            ledger
                .decisions
                .iter()
                .rev()
                .find(|d| d.job == name)
                .map(|d| d.action)
        };
        assert_eq!(action_of("ok"), Some(DecisionAction::Done));
        assert_eq!(action_of("tiny"), Some(DecisionAction::Refuse));
        assert_eq!(action_of("broken"), Some(DecisionAction::Fail));
        // Refusals carry their inputs.
        let refusal = ledger
            .decisions
            .iter()
            .find(|d| d.action == DecisionAction::Refuse)
            .unwrap();
        assert_eq!(refusal.reason, Some(RefusalReason::Infeasible));
        assert!(refusal.grant_ns.is_some());
        assert!(refusal.min_quota_ns.is_some());
        assert_eq!(refusal.margin, Some(0.9));
    }

    /// The acceptance criterion: the ledger is pure observation. The
    /// trace stream and the rest of the outcome are byte-identical
    /// with the ledger on or off.
    #[test]
    fn ledger_is_trace_invisible_and_strips_to_disabled_bytes() {
        let run = |with_ledger: bool| {
            let mut db = db(43);
            db.inject_faults(FaultPlan::new(3).with_transient(0.05));
            let tracer = Tracer::recording(db.disk().clock().clone());
            let jobs = vec![
                ServerJob::count("a", sel(3), Duration::from_secs(6)),
                ServerJob::count("b", sel(5), Duration::from_secs(14)),
                ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
            ];
            let outcome = QueryServer::new()
                .metrics(true)
                .ledger(with_ledger)
                .tracer(tracer.clone())
                .run(&mut db, jobs);
            (outcome, tracer)
        };
        let (with, trace_with) = run(true);
        let (without, trace_without) = run(false);
        assert!(with.ledger.is_some());
        assert!(without.ledger.is_none());
        // The decision events are in the trace either way.
        assert!(trace_with
            .records()
            .iter()
            .any(|r| r.name == "server.decision"));
        assert_eq!(
            trace_with.to_jsonl(),
            trace_without.to_jsonl(),
            "trace must not depend on the ledger flag"
        );
        let mut stripped = with.clone();
        stripped.ledger = None;
        assert_eq!(
            stripped.to_json(),
            without.to_json(),
            "outside the ledger field the outcome must be byte-identical"
        );
    }

    #[test]
    fn refusal_and_shed_events_land_in_the_trace() {
        let mut db = db(31);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let jobs = vec![
            ServerJob::count("ok", sel(5), Duration::from_secs(6)),
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
        ];
        let _ = QueryServer::new().tracer(tracer.clone()).run(&mut db, jobs);
        let names: Vec<String> = tracer.records().iter().map(|r| r.name.clone()).collect();
        assert!(names.iter().any(|n| n == "server.admit"), "{names:?}");
        assert!(names.iter().any(|n| n == "server.refuse"), "{names:?}");
        assert!(names.iter().any(|n| n == "server.job_start"), "{names:?}");
        assert!(names.iter().any(|n| n == "server.job_done"), "{names:?}");
    }

    // ---- Pure shedding-policy unit tests (no engine time). ----

    fn demand(name: &str, deadline_s: f64, min_s: f64, value: f64) -> ServerJob {
        ServerJob::count(
            name,
            Expr::relation("x"),
            Duration::from_secs_f64(deadline_s),
        )
        .with_min_quota(Duration::from_secs_f64(min_s))
        .with_value(value)
    }

    /// The admission-time quotas for the three-job demand grids
    /// below: a gets slack×0.9 = 9, b (projected start 9, slack 11)
    /// gets 9.9, c (projected start 18.9, slack 1.6) gets 1.44.
    fn demo_quotas() -> Vec<Duration> {
        vec![
            Duration::from_secs_f64(9.0),
            Duration::from_secs_f64(9.9),
            Duration::from_secs_f64(1.44),
        ]
    }

    #[test]
    fn first_infeasible_walks_the_projected_timeline() {
        let jobs = vec![
            demand("a", 10.0, 1.0, 1.0),
            demand("b", 20.0, 1.0, 1.0),
            demand("c", 20.5, 3.0, 1.0),
        ];
        let pending = [0usize, 1, 2];
        let quotas = demo_quotas();
        // a occupies [0, 9], b [9, 18.9]; c's grant ≈ 1.44 < 3.
        assert_eq!(
            first_infeasible(&jobs, &pending, &quotas, Duration::ZERO, 0.9, 1.0),
            Some(2)
        );
        // Without c's steep minimum the queue fits: every grant
        // clears its minimum and every fixed quota lands in time
        // (c finishes at 20.34 ≤ 20.5).
        let jobs2 = vec![
            demand("a", 10.0, 1.0, 1.0),
            demand("b", 20.0, 1.0, 1.0),
            demand("c", 20.5, 1.0, 1.0),
        ];
        assert_eq!(
            first_infeasible(&jobs2, &pending, &quotas, Duration::ZERO, 0.9, 1.0),
            None
        );
        // A higher overrun factor inflates every fixed quota's
        // occupancy: a's own quota 9 now projects 18 seconds of
        // spend against a 10-second deadline, so the head of the
        // queue is the first overcommit.
        assert_eq!(
            first_infeasible(&jobs2, &pending, &quotas, Duration::ZERO, 0.9, 2.0),
            Some(0),
            "factor 2 must find the overcommit at the head"
        );
    }

    #[test]
    fn victim_is_least_value_per_slack_among_jobs_at_or_before_the_gap() {
        // c (pos 2) is infeasible; candidates are a, b, c. b has the
        // lowest value-per-slack (low value, generous deadline), so b
        // is evicted even though c is the one that does not fit.
        let jobs = vec![
            demand("a", 10.0, 1.0, 5.0),
            demand("b", 20.0, 1.0, 0.2),
            demand("c", 20.5, 3.0, 4.0),
        ];
        let pending = [0usize, 1, 2];
        let pos =
            first_infeasible(&jobs, &pending, &demo_quotas(), Duration::ZERO, 0.9, 1.0).unwrap();
        assert_eq!(pos, 2);
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 0.9, 1.0, pos);
        assert_eq!(jobs[pending[victim]].name, "b");
        // If the infeasible job itself is the cheapest, it is its own
        // victim.
        let jobs = vec![
            demand("a", 10.0, 1.0, 5.0),
            demand("b", 20.0, 1.0, 5.0),
            demand("c", 20.5, 3.0, 0.01),
        ];
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 0.9, 1.0, 2);
        assert_eq!(jobs[pending[victim]].name, "c");
        // Jobs after the gap are never candidates: with pos 0, only
        // the head can be evicted.
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 0.9, 1.0, 0);
        assert_eq!(victim, 0);
    }

    #[test]
    fn victim_ties_break_toward_the_later_deadline() {
        // Identical value and (projected-start) slack profiles are
        // impossible to arrange exactly, so use equal scores by
        // construction: same value, and b's slack at its projected
        // start equals a's at time zero.
        let jobs = vec![demand("a", 10.0, 9.5, 1.0), demand("b", 19.0, 9.5, 1.0)];
        let pending = [0usize, 1];
        // a: slack 10 at t=0, grant 9 → b starts at 9, slack 10.
        // Scores tie at 0.1; the later (greater position) wins.
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 0.9, 1.0, 1);
        assert_eq!(jobs[pending[victim]].name, "b");
    }

    #[test]
    fn grant_shrinks_under_the_refit_factor() {
        let job = demand("a", 10.0, 0.1, 1.0);
        let clean = grant_for(&job, Duration::ZERO, 0.9, 1.0);
        let stormy = grant_for(&job, Duration::ZERO, 0.9, 2.0);
        assert_eq!(clean, Duration::from_secs_f64(9.0));
        assert_eq!(stormy, Duration::from_secs_f64(4.5));
        // The factor never inflates a grant past the margined slack.
        assert_eq!(grant_for(&job, Duration::ZERO, 0.9, 0.5), clean);
        // A desired quota caps the grant even when slack is plentiful.
        let modest = job.with_desired_quota(Duration::from_secs(2));
        assert_eq!(
            grant_for(&modest, Duration::ZERO, 0.9, 1.0),
            Duration::from_secs(2)
        );
    }

    #[test]
    #[should_panic]
    fn margin_bounds_enforced() {
        let _ = QueryServer::new().slack_margin(1.5);
    }
}
