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
//!    expression is broken fails alone (at admission, so it burns no
//!    quota), and a watchdog records
//!    any engine overshoot past 1.25 × the grant so a stuck stage is
//!    visible in the trace and the ledger.
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
//! control loop (shed sweeps, refit, decision log, trace stamps) over
//! the lane outcomes on a virtual timeline, so
//! [`Concurrency::Sequential`] (each lane drained lazily at its
//! dispatch point) and [`Concurrency::Interleaved`] (all admitted
//! lanes stepped up front on the calling thread, one stage per turn
//! in least-virtual-time order, base-relation draws pooled through one
//! batch [`BlockCache`](eram_storage::BlockCache)) produce
//! byte-identical per-job reports, traces, and schedule-stripped
//! outcomes. Only [`ServerOutcome::schedule`] — the makespan/IO
//! story, per-lane sharing included — is allowed to differ between
//! modes; see [`ServerOutcome::stripped_of_schedule`].
//!
//! **One serving record (admit → lanes → replay → fold)**:
//! [`QueryServer::run`] is four phases over one batch state. *Admit*
//! (phase 1, charge-free) gives every offered job its verdict and the
//! admitted ones their fixed quota; *lanes* prepares one execution
//! lane per admitted job (and, interleaved, runs them); *replay*
//! (phase 2) walks the canonical EDF control loop over the lane
//! outcomes — shed sweeps, grant, dispatch-time deflation, refit,
//! watchdog, terminal record. Every one of those decisions is written
//! exactly once: a [`DecisionRecord`] appended to the batch's log and
//! emitted as a `server.decision` trace event carrying the inputs it
//! was made from. *Fold* then computes everything the server reports
//! about itself from that log: [`TenantLedger::fold`] yields the
//! per-tenant [`TenantSlo`] rows, [`ServerStats`] is their column
//! sum, and the ledger — rows and log — rides every
//! [`ServerOutcome::ledger`]. Each fact has one home: decisions and
//! tenant rows in the ledger, sharing in the schedule's lanes. A job
//! being *offered* is not a decision (the fold takes the offered
//! names). See [`ledger`].

use std::sync::Arc;
use std::time::Duration;

use eram_relalg::Expr;
use eram_sampling::CountEstimate;
use eram_storage::json::{unknown_variant, FromJson, JsonError, ToJson};
use eram_storage::{json, json_record, json_unit_enum, Clock, Json, Rng};

use crate::aggregate::AggregateFn;
use crate::config::EngineConfig;
use crate::executor::{compile_terms, EngineError};
use crate::obs::{Profiler, Tracer};
use crate::predict::{predict_stage, SelPolicy};
use crate::report::{ExecutionReport, RefusalReason, ReportHealth};
use crate::retry::RetryPolicy;
use crate::session::{Database, PreparedQuery, TimedCount};
use crate::stopping::StoppingCriterion;

mod lanes;
pub mod ledger;

pub use ledger::{DecisionAction, DecisionRecord, TenantLedger, TenantSlo};

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
    /// first, stable-EDF tiebreak), with one shared-draw pool serving
    /// base-relation reads across live jobs.
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
    /// inherits the server's [`EngineConfig::retry`].
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
    /// The engine (or admission's QCOST pricing) hit an error; the
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
    /// Jobs whose engine run overshot the granted quota beyond the
    /// watchdog grace (1.25 ×).
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
    /// Batch-level accounting: the column sums of the ledger's tenant
    /// rows.
    pub stats: ServerStats,
    /// Per-tenant SLO rows and the decision audit log they fold from.
    /// Empty in outcomes from pre-ledger writers.
    pub ledger: TenantLedger,
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
    ledger: default,
    schedule: omit_empty,
});

impl ServerOutcome {
    /// Deterministic pretty JSON (the replay artifact: byte-identical
    /// across worker counts and repeated seeded runs).
    pub fn to_json(&self) -> String {
        eram_storage::json::to_string_pretty(self)
    }

    /// The outcome minus everything mode-dependent, which is the
    /// schedule report alone. Two serving runs that differ only in
    /// [`ServerConfig::concurrency`] must produce byte-identical
    /// stripped outcomes — this is the equivalence artifact the
    /// conformance suites and CI compare (jq: `del(.schedule)`).
    pub fn stripped_of_schedule(&self) -> ServerOutcome {
        ServerOutcome {
            schedule: None,
            ..self.clone()
        }
    }
}

/// One lane's slice of the batch schedule.
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq, Default)]
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

/// Tunables for a [`QueryServer`]: the two settings that exist only
/// when serving, and the [`EngineConfig`] everything else is read
/// from.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// How admitted lanes are scheduled: [`Concurrency::Sequential`]
    /// (one lane at a time, in canonical EDF order) or
    /// [`Concurrency::Interleaved`] (stages from all admitted lanes
    /// interleaved, base-relation draws shared). Per-job reports,
    /// traces, and the schedule-stripped outcome are byte-identical
    /// across modes; only [`ServerOutcome::schedule`] differs. On a
    /// wall clock the server always runs sequentially (there is no
    /// virtual time to order the turns by).
    pub concurrency: Concurrency,
    /// What every lane runs under, [`Database::calibrated`] once per
    /// batch; admission prices each job on the same config. Its
    /// `tracer` is the one shared stream — the server's
    /// `server.decision` events and every job's engine spans, spliced
    /// in canonical order — and its `collect_metrics` attaches each
    /// job's own snapshot to its report. Per
    /// job the server overrides four fields: `stopping` is forced to
    /// [`StoppingCriterion::HardDeadline`], `retry` is the job's own
    /// when it carries one, `tracer` is the lane's private buffer, and
    /// `profiler` is off (a served batch renders no per-job profile).
    pub engine: EngineConfig,
}

/// Fraction of a job's slack granted as quota; the rest is scheduling
/// margin for the engine's block-granularity abort overshoot and
/// fault-storm overshoot.
const SLACK_MARGIN: f64 = 0.9;

/// Bounds on a single observed `spent / granted` ratio before it
/// enters the EWMA (one pathological job must not poison the refit).
const OVERRUN_CLAMP: (f64, f64) = (0.25, 4.0);

/// EWMA weight of one observed ratio in the overrun refit.
const OVERRUN_ALPHA: f64 = 0.3;

/// `spent > granted × grace` trips the watchdog.
const WATCHDOG_GRACE: f64 = 1.25;

/// The terminal state of a shed job.
const SHED: JobState = JobState::Refused {
    reason: RefusalReason::Shed,
};

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

    /// Sets per-job worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.engine.workers = workers;
        self
    }

    /// Replaces the default retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.engine.retry = retry;
        self
    }

    /// Attaches a tracer (use [`Tracer::recording`] with the
    /// database's clock for clock-stamped, replayable traces).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.engine.tracer = tracer;
        self
    }

    /// Toggles each job's metrics snapshot (on its report).
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.engine.collect_metrics = on;
        self
    }

    /// Selects the lane scheduling mode (see
    /// [`ServerConfig::concurrency`]).
    pub fn concurrency(mut self, mode: Concurrency) -> Self {
        self.config.concurrency = mode;
        self
    }

    /// Serves a batch: admission, lanes, replay with replan-and-shed
    /// and refit, fold. Consumes the database's clock time; returns
    /// one report per offered job in canonical admission (EDF) order.
    pub fn run(&self, db: &mut Database, mut jobs: Vec<ServerJob>) -> ServerOutcome {
        // Canonical admission order: stable EDF, so replay is a pure
        // function of the submitted job list.
        jobs.sort_by_key(|j| j.deadline);
        let mut batch = Batch {
            cfg: &self.config,
            engine: db.calibrated(self.config.engine.clone()),
            jobs: &jobs,
            clock: db.disk().clock().clone(),
            decisions: Vec::new(),
            reports: jobs.iter().map(|_| None).collect(),
            admitted: Vec::new(),
            grants: vec![Duration::ZERO; jobs.len()],
            start: Duration::ZERO,
        };
        batch.admit(db);
        let specs = batch.lane_specs(db);
        let schedule = batch.replay(db, specs);
        batch.fold(schedule)
    }
}

/// One batch in flight: what the phases of [`QueryServer::run`] hand
/// each other.
struct Batch<'a> {
    cfg: &'a ServerConfig,
    /// `cfg.engine`, calibrated to the database being served.
    engine: EngineConfig,
    /// The offered jobs, in canonical (stable EDF) order.
    jobs: &'a [ServerJob],
    clock: Arc<dyn Clock>,
    /// The decision log: the only thing the phases observe into.
    decisions: Vec<DecisionRecord>,
    /// One report per offered job, filled at its terminal decision.
    reports: Vec<Option<JobReport>>,
    /// The jobs that passed admission, in canonical order; a job's
    /// position here is its lane.
    admitted: Vec<usize>,
    /// Phase-1 grants by job (zero for a job not admitted).
    grants: Vec<Duration>,
    /// The shared clock's reading when the replay began; the virtual
    /// timeline is stamped relative to it.
    start: Duration,
}

/// What admission concluded about one job.
enum Verdict {
    Admit {
        floor: f64,
    },
    Refuse {
        reason: RefusalReason,
        floor: Option<f64>,
    },
    Fail(String),
}

impl Batch<'_> {
    /// Writes one serving decision: appended to the log and emitted as
    /// the `server.decision` trace event (the field closure is skipped
    /// when tracing is off).
    fn decide(&mut self, record: DecisionRecord) {
        self.engine
            .tracer
            .event("server.decision", || record.trace_fields());
        self.decisions.push(record);
    }

    /// Virtual-timeline offset `t` as a session-clock stamp.
    fn at(&self, t: Duration) -> u64 {
        duration_ns(self.start + t)
    }

    fn lane_of(&self, idx: usize) -> usize {
        self.admitted
            .iter()
            .position(|&i| i == idx)
            .expect("only admitted jobs are dispatched or shed")
    }

    /// Phase 1: predictive admission, charge-free. The grant fixed
    /// here IS the execution quota (see the module docs): that is what
    /// makes each lane a pure function of the admitted set,
    /// independent of how the other lanes are scheduled.
    fn admit(&mut self, db: &Database) {
        let mut projected = Duration::ZERO;
        for (idx, job) in self.jobs.iter().enumerate() {
            // Admission is charge-free, so this stamp is the batch
            // start for every phase-1 decision — same timebase as the
            // trace stream.
            let t_ns = duration_ns(self.clock.elapsed());
            let grant = grant_for(job, projected, 1.0);
            let alone = grant_for(job, Duration::ZERO, 1.0);
            let inputs = |action| DecisionRecord {
                slack_ns: Some(duration_ns(job.deadline.saturating_sub(projected))),
                grant_ns: Some(duration_ns(grant)),
                min_quota_ns: Some(duration_ns(job.min_quota)),
                projected_start_ns: Some(duration_ns(projected)),
                margin: Some(SLACK_MARGIN),
                ..DecisionRecord::new(t_ns, action, job.name.as_str())
            };
            match admission_verdict(db, &self.engine, job, grant, alone) {
                Verdict::Refuse { reason, floor } => {
                    self.decide(DecisionRecord {
                        reason: Some(reason),
                        predicted_cost_secs: floor,
                        ..inputs(DecisionAction::Refuse)
                    });
                    let state = JobState::Refused { reason };
                    self.reports[idx] = Some(unanswered(job, Duration::ZERO, state));
                }
                // Isolated at admission: the failure burns no quota
                // and poisons no other tenant.
                Verdict::Fail(error) => {
                    self.decide(DecisionRecord {
                        error: Some(error.clone()),
                        ..DecisionRecord::new(t_ns, DecisionAction::Fail, job.name.as_str())
                    });
                    let state = JobState::Failed { error };
                    self.reports[idx] = Some(unanswered(job, Duration::ZERO, state));
                }
                Verdict::Admit { floor } => {
                    self.decide(DecisionRecord {
                        predicted_cost_secs: Some(floor),
                        overrun: Some(1.0), // factor is 1.0 at admission
                        ..inputs(DecisionAction::Admit)
                    });
                    self.grants[idx] = grant;
                    projected += grant; // overrun factor is 1.0 at admission
                    self.admitted.push(idx);
                }
            }
        }
    }

    /// One prepared execution lane per admitted job, in canonical
    /// order (the per-query seed stream is part of the replay
    /// contract). Quotas are the fixed phase-1 grants, so every lane
    /// is a pure function of the admitted set — independent of how (or
    /// whether) the others run.
    fn lane_specs(&self, db: &mut Database) -> Vec<PreparedQuery> {
        let mut specs = Vec::with_capacity(self.admitted.len());
        for &idx in &self.admitted {
            let job = &self.jobs[idx];
            let config = EngineConfig {
                stopping: StoppingCriterion::HardDeadline,
                retry: job.retry.unwrap_or(self.engine.retry),
                profiler: Profiler::disabled(),
                ..self.engine.clone()
            };
            specs.push(PreparedQuery {
                quota: self.grants[idx],
                ..db.prepare(job.agg, job.expr.clone(), config)
            });
        }
        specs
    }

    /// Phase 2: the canonical control replay (replan-and-shed, refit)
    /// over the lane outcomes. `vt` is the batch's virtual timeline:
    /// the sum of the consumed lanes' private clocks, in canonical
    /// order. Both modes replay the identical control sequence over
    /// identical lane outcomes, so every report field, decision record
    /// and trace byte written here is mode-invariant.
    fn replay(&mut self, db: &Database, mut specs: Vec<PreparedQuery>) -> ScheduleReport {
        let (cfg, jobs) = (self.cfg, self.jobs);
        // Interleaving needs a virtual clock to define the turn
        // order; a wall clock always serves sequentially.
        let mode = if self.clock.is_simulated() {
            cfg.concurrency
        } else {
            Concurrency::Sequential
        };
        let (mut lanes, mut dispatch) = prerun(db, &specs, mode);
        let names = self.admitted.iter().map(|&idx| jobs[idx].name.clone());
        let mut schedule = ScheduleReport::empty(mode, names);

        self.start = self.clock.elapsed();
        let mut pending = self.admitted.clone();
        let mut vt = Duration::ZERO;
        let mut overrun = 1.0f64;
        loop {
            let factor = overrun.max(1.0);
            for vidx in self.shed_infeasible(&mut pending, vt, factor) {
                schedule.lanes[self.lane_of(vidx)].discarded = true;
            }
            if pending.is_empty() {
                break;
            }
            let idx = pending.remove(0);
            let lane = self.lane_of(idx);
            let job = &jobs[idx];
            if mode == Concurrency::Sequential {
                dispatch.push(lane);
            }
            let (quota, attempt, discarded) =
                self.dispatch(db, &mut specs[lane], lane, lanes[lane].take(), vt, factor);
            if let Some(first) = discarded {
                schedule.waste(lane, &first);
            }
            schedule.consume(lane, &attempt);
            let LaneOutcome {
                result,
                spent,
                records,
                ..
            } = attempt;
            // Splice the lane's trace onto the shared stream at the
            // job's canonical start (wall-clock lanes trace straight
            // into the shared stream; their record list is empty).
            self.engine.tracer.absorb(records, self.at(vt));
            let started_at = vt;
            vt += spent;

            let ran = ran_record(self.at(vt), job, quota, spent);
            // Section-4-style refit, one level up: fold the observed
            // overrun into the factor that deflates future grants.
            if !quota.is_zero() {
                let ratio = (spent.as_secs_f64() / quota.as_secs_f64())
                    .clamp(OVERRUN_CLAMP.0, OVERRUN_CLAMP.1);
                overrun += OVERRUN_ALPHA * (ratio - overrun);
                self.decide(DecisionRecord {
                    action: DecisionAction::Refit,
                    overrun: Some(overrun),
                    ratio: Some(ratio),
                    ..ran.clone()
                });
            }
            if watchdog_trips(spent, quota) {
                self.decide(DecisionRecord {
                    action: DecisionAction::Watchdog,
                    ..ran
                });
            }
            let report = self.settle(job, quota, started_at, spent, result);
            // A result that landed past the deadline was dropped (late
            // shed): its lane, pool hits included, is discarded work.
            schedule.lanes[lane].discarded = report.state.is_shed();
            self.reports[idx] = Some(report);
        }

        // The batch consumed `vt` of lane time; advance the shared
        // clock by exactly that much so the session timeline reads as
        // if the jobs had run on it directly (a wall clock ignores
        // the charge — its time already passed inside the lanes).
        self.clock.charge(vt);

        // Lanes that pre-ran speculatively (interleaved mode) but
        // were shed before dispatch: wasted work, visible only in the
        // schedule report — never in per-job reports or the ledger.
        for (lane, out) in lanes.iter().enumerate() {
            if let Some(out) = out {
                schedule.waste(lane, out);
                schedule.lanes[lane].discarded = true;
            }
        }
        for (rank, &lane) in dispatch.iter().enumerate() {
            schedule.lanes[lane].dispatch_order = Some(rank as u64);
        }
        schedule.virtual_makespan = vt;
        schedule.makespan =
            (vt + schedule.wasted).saturating_sub(Duration::from_nanos(schedule.charge_saved_ns));
        schedule.physical_blocks = schedule
            .charged_blocks
            .saturating_sub(schedule.blocks_shared);
        schedule
    }

    /// Sheds until the projected schedule from `t` is feasible again;
    /// returns the victims.
    fn shed_infeasible(
        &mut self,
        pending: &mut Vec<usize>,
        t: Duration,
        factor: f64,
    ) -> Vec<usize> {
        let jobs = self.jobs;
        let mut victims = Vec::new();
        while let Some(pos) = first_infeasible(jobs, pending, &self.grants, t, factor) {
            let vpos = pick_victim(jobs, pending, t, factor, pos);
            let vidx = pending.remove(vpos);
            let victim = &jobs[vidx];
            self.decide(DecisionRecord {
                reason: Some(RefusalReason::Shed),
                slack_ns: Some(duration_ns(victim.deadline.saturating_sub(t))),
                min_quota_ns: Some(duration_ns(victim.min_quota)),
                margin: Some(SLACK_MARGIN),
                overrun: Some(factor),
                value: Some(victim.value),
                ..DecisionRecord::new(self.at(t), DecisionAction::Shed, victim.name.as_str())
            });
            self.reports[vidx] = Some(unanswered(victim, t, SHED));
            victims.push(vidx);
        }
        victims
    }

    /// Starts the job of `lane` at `started_at`: grants its quota and
    /// obtains its lane outcome (`prerun` when interleaving already
    /// ran it, else drained here), deflating once if it would land
    /// late. Returns the quota the served attempt ran under, that
    /// attempt, and the attempt a deflation discarded.
    fn dispatch(
        &mut self,
        db: &Database,
        spec: &mut PreparedQuery,
        lane: usize,
        prerun: Option<LaneOutcome>,
        started_at: Duration,
        factor: f64,
    ) -> (Duration, LaneOutcome, Option<LaneOutcome>) {
        let job = &self.jobs[self.admitted[lane]];
        let quota = spec.quota;
        self.decide(DecisionRecord {
            slack_ns: Some(duration_ns(job.deadline.saturating_sub(started_at))),
            grant_ns: Some(duration_ns(quota)),
            min_quota_ns: Some(duration_ns(job.min_quota)),
            margin: Some(SLACK_MARGIN),
            overrun: Some(factor),
            ..DecisionRecord::new(
                self.at(started_at),
                DecisionAction::Grant,
                job.name.as_str(),
            )
        });
        let attempt = prerun.unwrap_or_else(|| Lane::new(db, spec, lane, None).drain());
        // Dispatch-time deflation. Admission fixed this quota against
        // a projected start, but the actual timeline may have slipped
        // (earlier lanes overran under device weather). When the
        // attempt would land past the deadline and a fresh
        // dispatch-time grant is tighter than the admission quota, the
        // attempt is discarded — its work becomes schedule-level
        // waste — and the lane re-runs under the deflated quota. Both
        // modes take this branch from identical replay state and
        // identical lane outcomes, and a re-run replays the same lane
        // seed, so the consumed outcome stays mode-invariant.
        if !self.clock.is_simulated()
            || attempt.result.is_err()
            || started_at + attempt.spent <= job.deadline
        {
            return (quota, attempt, None);
        }
        let deflated = grant_for(job, started_at, factor).min(quota);
        if deflated >= quota || deflated < job.min_quota {
            return (quota, attempt, None);
        }
        self.decide(DecisionRecord {
            grant_ns: Some(duration_ns(quota)),
            deflated_ns: Some(duration_ns(deflated)),
            discarded_ns: Some(duration_ns(attempt.spent)),
            ..DecisionRecord::new(
                self.at(started_at),
                DecisionAction::Deflate,
                job.name.as_str(),
            )
        });
        spec.quota = deflated;
        let rerun = Lane::new(db, spec, lane, None).drain();
        (deflated, rerun, Some(attempt))
    }

    /// The terminal decision of a job that ran, and the report it
    /// earns.
    fn settle(
        &mut self,
        job: &ServerJob,
        quota: Duration,
        started_at: Duration,
        spent: Duration,
        result: Result<TimedCount, EngineError>,
    ) -> JobReport {
        let finished_at = started_at + spent;
        let ran = ran_record(self.at(finished_at), job, quota, spent);
        match result {
            // Hard-deadline serving never delivers a late answer: the
            // timeline keeps the charge, but the result is dropped and
            // the job recorded as an explicit shed casualty instead of
            // a silent deadline miss reaching a client.
            Ok(_) if finished_at > job.deadline => {
                self.decide(DecisionRecord {
                    action: DecisionAction::Shed,
                    reason: Some(RefusalReason::Shed),
                    late_ns: Some(duration_ns(finished_at - job.deadline)),
                    value: Some(job.value),
                    ..ran
                });
                JobReport {
                    finished_at,
                    granted_quota: quota,
                    ..unanswered(job, started_at, SHED)
                }
            }
            Ok(out) => {
                self.decide(DecisionRecord {
                    slack_ns: Some(duration_ns(job.deadline.saturating_sub(finished_at))),
                    value: Some(job.value),
                    met: Some(finished_at <= job.deadline),
                    ..ran
                });
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
            // The failure burned clock time the schedule had granted
            // away — the next replan sees that — but it stays this
            // job's failure alone.
            Err(e) => {
                let error = e.to_string();
                self.decide(DecisionRecord {
                    action: DecisionAction::Fail,
                    error: Some(error.clone()),
                    ..ran
                });
                JobReport {
                    finished_at,
                    granted_quota: quota,
                    ..unanswered(job, started_at, JobState::Failed { error })
                }
            }
        }
    }

    /// The fold: tenant rows from the decision log, the stats from the
    /// rows.
    fn fold(self, schedule: ScheduleReport) -> ServerOutcome {
        let offered = self.jobs.iter().map(|j| j.name.as_str());
        let ledger = TenantLedger::fold(offered, self.decisions);
        ServerOutcome {
            schema_version: crate::obs::SCHEMA_VERSION,
            jobs: self
                .reports
                .into_iter()
                .map(|r| r.expect("every offered job gets a report"))
                .collect(),
            stats: ServerStats::sum(ledger.tenants.values()),
            ledger,
            schedule: Some(schedule),
        }
    }
}

impl ScheduleReport {
    /// A schedule with nothing run yet: one idle window per lane.
    fn empty(concurrency: Concurrency, lane_jobs: impl Iterator<Item = String>) -> Self {
        let idle = |job| LaneWindow {
            job,
            ..LaneWindow::default()
        };
        ScheduleReport {
            concurrency,
            lanes: lane_jobs.map(idle).collect(),
            ..ScheduleReport::default()
        }
    }

    /// Books a lane attempt nobody was served from: its time is
    /// waste, its reads still count.
    fn waste(&mut self, lane: usize, out: &LaneOutcome) {
        self.wasted += out.spent;
        self.consume(lane, out);
    }

    /// Adds one lane attempt's device totals and fills the lane's
    /// window with it.
    fn consume(&mut self, lane: usize, out: &LaneOutcome) {
        self.charged_blocks += out.reads;
        self.blocks_shared += out.blocks_shared;
        self.charge_saved_ns += out.charge_saved_ns;
        let window = &mut self.lanes[lane];
        window.spent = out.spent;
        window.blocks_shared = out.blocks_shared;
        window.charge_saved_ns = out.charge_saved_ns;
    }
}

impl ServerStats {
    /// The batch totals: column sums of the tenant rows.
    fn sum<'a>(rows: impl Iterator<Item = &'a TenantSlo>) -> Self {
        let mut s = ServerStats::default();
        for row in rows {
            s.offered += row.offered;
            s.admitted += row.admitted;
            s.refused += row.refused;
            s.shed += row.shed;
            s.failed += row.failed;
            s.completed += row.completed;
            s.deadlines_met += row.deadlines_met;
            s.deadlines_missed += row.deadlines_missed;
            s.watchdog_overruns += row.watchdog_overruns;
        }
        s
    }
}

/// The lane outcomes available before the replay starts, and the
/// dispatch order so far. Interleaved mode runs every admitted lane up
/// front — one stage per turn in least-virtual-time order, co-resident
/// base-relation draws pooled through one batch pool — and the replay
/// consumes the outcomes in canonical order. Sequential mode drains
/// each lane lazily at its dispatch point, so jobs shed before
/// dispatch never execute at all.
fn prerun(
    db: &Database,
    specs: &[PreparedQuery],
    mode: Concurrency,
) -> (Vec<Option<LaneOutcome>>, Vec<usize>) {
    match mode {
        Concurrency::Interleaved => {
            let (outs, order) = run_interleaved(db, specs);
            (outs.into_iter().map(Some).collect(), order)
        }
        Concurrency::Sequential => (specs.iter().map(|_| None).collect(), Vec::new()),
    }
}

/// Admission's three checks, in order: the projected grant against the
/// job's declared minimum; the aggregate against its expression (a bad
/// column or group key fails here, charge-free); and the QCOST floor of
/// the expression — pricing it also catches a broken expression —
/// against the grant. A job that cannot fit even on an idle server is
/// infeasible; one squeezed out by admitted load is overloaded.
fn admission_verdict(
    db: &Database,
    engine: &EngineConfig,
    job: &ServerJob,
    grant: Duration,
    alone: Duration,
) -> Verdict {
    let squeezed = |fits_alone: bool| {
        if fits_alone {
            RefusalReason::Overloaded
        } else {
            RefusalReason::Infeasible
        }
    };
    if grant < job.min_quota {
        let reason = squeezed(alone >= job.min_quota);
        return Verdict::Refuse {
            reason,
            floor: None,
        };
    }
    if let Err(e) = job.agg.validate(&job.expr, db.catalog()) {
        return Verdict::Fail(EngineError::Expr(e).to_string());
    }
    match qcost_floor(db, &job.expr, engine) {
        Err(e) => Verdict::Fail(e.to_string()),
        Ok(floor) if floor > grant.as_secs_f64() => Verdict::Refuse {
            reason: squeezed(floor <= alone.as_secs_f64()),
            floor: Some(floor),
        },
        Ok(floor) => Verdict::Admit { floor },
    }
}

/// The record of a job that ran — its grant and its spend, stamped at
/// its finish — as a completion; refit, watchdog, late-shed and failure
/// records are this with their own action and inputs.
fn ran_record(t_ns: u64, job: &ServerJob, quota: Duration, spent: Duration) -> DecisionRecord {
    DecisionRecord {
        grant_ns: Some(duration_ns(quota)),
        spent_ns: Some(duration_ns(spent)),
        ..DecisionRecord::new(t_ns, DecisionAction::Done, job.name.as_str())
    }
}

/// True when a run overshot its quota past the watchdog grace — a
/// stuck or storm-battered stage, made visible in the decision log.
fn watchdog_trips(spent: Duration, quota: Duration) -> bool {
    spent > scale(quota, WATCHDOG_GRACE)
}

/// The quota a job starting at `start` would be granted: its desired
/// quota, capped by `slack × SLACK_MARGIN / overrun-factor`. Dividing by
/// the refit factor is what turns fault storms into coarser (not
/// later) answers: expected spend `grant × factor` stays within the
/// margined slack.
fn grant_for(job: &ServerJob, start: Duration, factor: f64) -> Duration {
    let slack = job.deadline.saturating_sub(start);
    job.desired_quota
        .min(scale(slack, SLACK_MARGIN / factor.max(1.0)))
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
    factor: f64,
) -> Option<usize> {
    let mut t = now;
    for (pos, &idx) in pending.iter().enumerate() {
        let job = &jobs[idx];
        let grant = grant_for(job, t, factor);
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
        t += scale(grant_for(job, t, factor), factor);
    }
    best
}

/// The QCOST floor of an expression: the predicted cost of the
/// minimum stage (one block per operand relation plus stage
/// overhead), in seconds, priced on the trees the lane will run.
/// Charge-free and O(plan), not O(relation): compiling a
/// [`crate::ops::PhysTree`] only builds trackers and samplers that
/// have yet to draw their permutation, and the fixed seed cannot
/// influence the population geometry the prediction walk reads.
fn qcost_floor(db: &Database, expr: &Expr, engine: &EngineConfig) -> Result<f64, EngineError> {
    let mut rng = Rng::seed_from_u64(0xADA1_5510);
    let (_, trees) = compile_terms(expr, db.catalog(), db.disk(), engine, &mut rng)?;
    let model = engine.initial_cost_model();
    Ok(predict_stage(&trees, 0.0, &model, &SelPolicy::Mean).cost_secs)
}

/// The report of a job that got no answer — refused or shed (the
/// reason rides its health too) or failed — decided at `at` without
/// having run. A job that did run overrides the window and the quota.
fn unanswered(job: &ServerJob, at: Duration, state: JobState) -> JobReport {
    let health = match &state {
        JobState::Refused { reason } => ReportHealth::refused(*reason),
        _ => ReportHealth::default(),
    };
    JobReport {
        name: job.name.clone(),
        deadline: job.deadline,
        value: job.value,
        started_at: at,
        finished_at: at,
        granted_quota: Duration::ZERO,
        state,
        health,
        estimate: None,
        report: None,
    }
}

fn scale(d: Duration, x: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceRecord;
    use crate::ops::MemoryMode;
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
    }

    /// The lanes run under the server's [`EngineConfig`], whatever it
    /// sets: a join served with main-memory evaluation writes no run
    /// files, where the default (disk-resident) one does.
    #[test]
    fn lanes_run_under_the_servers_engine_config() {
        let block_writes = |memory: MemoryMode| {
            let mut db = db(24);
            let join = Expr::relation("t").join(Expr::relation("t"), vec![(0, 0)]);
            let mut server = QueryServer::new().metrics(true);
            server.config.engine.memory = memory;
            let job = ServerJob::count("join", join, Duration::from_secs(30));
            let outcome = server.run(&mut db, vec![job]);
            let report = outcome.jobs[0].report.as_ref().expect("the join ran");
            assert!(report.completed_stages() >= 1);
            let metrics = report.metrics.as_ref().expect("metrics were requested");
            metrics.counter("storage.block_writes")
        };
        assert!(block_writes(MemoryMode::DiskResident) > 0);
        assert_eq!(block_writes(MemoryMode::MainMemory), 0);
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
                .concurrency(mode)
                .tracer(tracer.clone())
                .run(&mut db, jobs);
            (outcome, tracer.to_jsonl())
        };
        let (seq, seq_trace) = run(Concurrency::Sequential, 1);
        let (inter, inter_trace) = run(Concurrency::Interleaved, 1);
        // The tentpole invariant: per-job results, the ledger, and
        // every trace byte are mode-invariant; only the schedule report
        // may differ — and it strips away.
        assert_eq!(
            seq_trace, inter_trace,
            "trace bytes must not depend on the scheduling mode"
        );
        assert_eq!(
            seq.stripped_of_schedule().to_json(),
            inter.stripped_of_schedule().to_json(),
            "stripped outcomes must not depend on the scheduling mode"
        );
        // Worker count is lane-internal: even the schedule (its
        // sharing counters included) replays across it.
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
        // Sharing lives in the schedule alone: the lanes' pool hits
        // sum to the batch's.
        let per_lane: u64 = i.lanes.iter().map(|l| l.blocks_shared).sum();
        assert_eq!(per_lane, i.blocks_shared);
        assert!(inter.stripped_of_schedule().schedule.is_none());
    }

    /// On a real clock the lanes run on the shared clock and tracer,
    /// the batch is served sequentially whatever was asked for, and no
    /// lane is deflated and re-run — yet no admitted job ends late.
    #[test]
    fn a_wall_clock_batch_serves_sequentially_and_never_late() {
        let mut db = Database::wall(31);
        let schema =
            Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
        db.load_relation(
            "t",
            schema,
            (0..20_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
        )
        .unwrap();
        let tracer = Tracer::recording(db.disk().clock().clone());
        let min = Duration::from_millis(5);
        let jobs = vec![
            ServerJob::count("a", sel(3), Duration::from_millis(400)).with_min_quota(min),
            ServerJob::count("b", sel(7), Duration::from_millis(800)).with_min_quota(min),
            ServerJob::count("instant", sel(5), Duration::from_micros(10)).with_min_quota(min),
        ];
        let outcome = QueryServer::new()
            .concurrency(Concurrency::Interleaved)
            .tracer(tracer.clone())
            .run(&mut db, jobs);
        let schedule = outcome
            .schedule
            .as_ref()
            .expect("schedule is always reported");
        assert_eq!(schedule.concurrency, Concurrency::Sequential);
        assert_eq!(outcome.stats.offered, 3);
        assert_no_silent_blowouts(&outcome);
        let instant = outcome.jobs.iter().find(|j| j.name == "instant").unwrap();
        assert!(instant.state.is_refused(), "{:?}", instant.state);
        let decisions = tracer
            .records()
            .iter()
            .filter(|r| r.name == "server.decision")
            .count();
        assert_eq!(decisions, outcome.ledger.decisions.len());
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
        assert_eq!(back.ledger.tenants.len(), 2);
        let ok = back.jobs.iter().find(|j| j.name == "ok").unwrap();
        let report = ok.report.as_ref().expect("ok ran");
        assert!(
            report.metrics.is_some(),
            "each job carries its own snapshot"
        );

        // With the interleaved schedule on board too.
        let full = QueryServer::new()
            .concurrency(Concurrency::Interleaved)
            .run(&mut db, jobs);
        assert!(full.schedule.is_some());
        let back: ServerOutcome = json::from_str(&full.to_json()).unwrap();
        assert_eq!(back, full);
    }

    /// The wire shape older writers produced — no `ledger` or
    /// `schedule`, a report without `schema_version`, `groups`,
    /// `health`, `metrics` or `profile` — still loads, every absent
    /// field at its default (the ledger empty).
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
        assert_eq!(outcome.ledger, TenantLedger::default());
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

    /// The audit log narrates the batch: every tenant's terminal
    /// decision is present and a refusal carries the inputs it was
    /// made from. (That the counters of the rows, the stats and the
    /// trace agree is checked by search in
    /// `tests/admission_chaos.rs`.)
    #[test]
    fn ledger_counters_cross_check_stats() {
        let mut db = db(37);
        let jobs = vec![
            ServerJob::count("ok", sel(5), Duration::from_secs(6)),
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
            ServerJob::count("broken", Expr::relation("no_such"), Duration::from_secs(5)),
        ];
        let outcome = QueryServer::new().run(&mut db, jobs);
        let ledger = &outcome.ledger;
        assert_eq!(ledger.schema_version, crate::obs::SCHEMA_VERSION);
        // The completed tenant banked its spend against its grant and
        // some positive value-weighted slack.
        let ok = ledger.tenants.get("ok").unwrap();
        assert!(ok.granted_ns > 0);
        assert!(ok.spent_ns > 0);
        assert!(ok.value_weighted_slack_secs > 0.0);
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
        let refusal = ledger
            .decisions
            .iter()
            .find(|d| d.action == DecisionAction::Refuse)
            .unwrap();
        assert_eq!(refusal.reason, Some(RefusalReason::Infeasible));
        assert!(refusal.grant_ns.is_some());
        assert!(refusal.min_quota_ns.is_some());
        assert_eq!(refusal.margin, Some(SLACK_MARGIN));
    }

    /// The server's whole trace vocabulary is the one
    /// `server.decision` event; a refusal, a late shed and a
    /// deflation are actions of it, each with the fields that used to
    /// ride an event of its own.
    #[test]
    fn refusal_and_shed_events_land_in_the_trace() {
        let mut db = db(31);
        let tracer = Tracer::recording(db.disk().clock().clone());
        let jobs = vec![
            ServerJob::count("ok", sel(5), Duration::from_secs(6)),
            ServerJob::count("tiny", sel(5), Duration::from_millis(50)),
        ];
        let _ = QueryServer::new().tracer(tracer.clone()).run(&mut db, jobs);
        let records = tracer.records();
        let server: Vec<&TraceRecord> = records
            .iter()
            .filter(|r| r.name.starts_with("server."))
            .collect();
        assert!(server.iter().all(|r| r.name == "server.decision"));
        let actions: Vec<(&str, &str)> = server
            .iter()
            .map(|r| {
                let field = |k: &str| r.fields.get(k).and_then(Json::as_str).unwrap();
                (field("job"), field("action"))
            })
            .collect();
        assert_eq!(
            actions,
            [
                ("tiny", "refuse"),
                ("ok", "admit"),
                ("ok", "grant"),
                ("ok", "refit"),
                ("ok", "done"),
            ]
        );

        // A storm cell of `tests/admission_chaos.rs` in which a slipped
        // timeline deflates one dispatch and a spiked stage lands
        // another answer late.
        let mut db = self::db(4);
        db.inject_faults(
            FaultPlan::new(4 ^ 0xC4A0)
                .with_transient(0.15)
                .with_spikes(0.4, Duration::from_millis(400)),
        );
        let tracer = Tracer::recording(db.disk().clock().clone());
        let jobs = vec![
            ServerJob::count("fast", sel(3), Duration::from_secs(4)),
            ServerJob::count("mid", sel(5), Duration::from_secs(10)).with_value(2.0),
            ServerJob::count("slow", sel(7), Duration::from_secs(18)).with_value(0.5),
            ServerJob::count("tail", sel(9), Duration::from_secs(26))
                .with_desired_quota(Duration::from_secs(4)),
        ];
        let _ = QueryServer::new().tracer(tracer.clone()).run(&mut db, jobs);
        let decisions: Vec<DecisionRecord> = tracer
            .records()
            .iter()
            .filter(|r| r.name == "server.decision")
            .map(|r| DecisionRecord::from_trace_fields(r.t_ns, &r.fields).unwrap())
            .collect();
        let find = |pred: fn(&DecisionRecord) -> bool| decisions.iter().find(|d| pred(d));
        let deflate = find(|d| d.action == DecisionAction::Deflate).expect("a deflation");
        let late = find(|d| d.late_ns.is_some()).expect("a late shed");
        assert!(deflate.deflated_ns.unwrap() < deflate.grant_ns.unwrap());
        assert!(deflate.discarded_ns.unwrap() > 0);
        assert_eq!(late.action, DecisionAction::Shed);
        assert_eq!(late.reason, Some(RefusalReason::Shed));
        assert!(late.late_ns.unwrap() > 0 && late.spent_ns.unwrap() > 0);
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
            first_infeasible(&jobs, &pending, &quotas, Duration::ZERO, 1.0),
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
            first_infeasible(&jobs2, &pending, &quotas, Duration::ZERO, 1.0),
            None
        );
        // A higher overrun factor inflates every fixed quota's
        // occupancy: a's own quota 9 now projects 18 seconds of
        // spend against a 10-second deadline, so the head of the
        // queue is the first overcommit.
        assert_eq!(
            first_infeasible(&jobs2, &pending, &quotas, Duration::ZERO, 2.0),
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
        let pos = first_infeasible(&jobs, &pending, &demo_quotas(), Duration::ZERO, 1.0).unwrap();
        assert_eq!(pos, 2);
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 1.0, pos);
        assert_eq!(jobs[pending[victim]].name, "b");
        // If the infeasible job itself is the cheapest, it is its own
        // victim.
        let jobs = vec![
            demand("a", 10.0, 1.0, 5.0),
            demand("b", 20.0, 1.0, 5.0),
            demand("c", 20.5, 3.0, 0.01),
        ];
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 1.0, 2);
        assert_eq!(jobs[pending[victim]].name, "c");
        // Jobs after the gap are never candidates: with pos 0, only
        // the head can be evicted.
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 1.0, 0);
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
        let victim = pick_victim(&jobs, &pending, Duration::ZERO, 1.0, 1);
        assert_eq!(jobs[pending[victim]].name, "b");
    }

    #[test]
    fn grant_shrinks_under_the_refit_factor() {
        let job = demand("a", 10.0, 0.1, 1.0);
        let clean = grant_for(&job, Duration::ZERO, 1.0);
        let stormy = grant_for(&job, Duration::ZERO, 2.0);
        assert_eq!(clean, Duration::from_secs_f64(9.0));
        assert_eq!(stormy, Duration::from_secs_f64(4.5));
        // The factor never inflates a grant past the margined slack.
        assert_eq!(grant_for(&job, Duration::ZERO, 0.5), clean);
        // A desired quota caps the grant even when slack is plentiful.
        let modest = job.with_desired_quota(Duration::from_secs(2));
        assert_eq!(
            grant_for(&modest, Duration::ZERO, 1.0),
            Duration::from_secs(2)
        );
    }
}
