//! Deadline forensics: turn the engine's observability artifacts into
//! postmortems.
//!
//! The engine emits three kinds of evidence — clock-stamped trace
//! JSONL ([`TraceRecord`]), execution reports
//! ([`ExecutionReport`]), and serving outcomes ([`ServerOutcome`]
//! with the per-tenant [`TenantLedger`]). This crate closes the loop
//! from "a deadline was missed / a job was shed / a CI went wide"
//! back to a cause:
//!
//! * **Quota-spend waterfall** ([`waterfall`]) — per stage: the
//!   fraction and cost the strategy predicted, the cost actually
//!   charged, and the running cumulative spend against the quota.
//! * **Convergence timeline** ([`convergence_timeline`],
//!   [`group_freezes`]) — the CI half-width after every draw batch,
//!   and the stage at which each GROUP BY group froze.
//! * **Deadline-miss attribution** ([`attribute`]) — which stage
//!   overran and which consumer (block draws, retry backoff, lost
//!   blocks) ate the slack inside it.
//! * **Per-tenant SLO tables** ([`run_ledger`]) — admitted vs
//!   refused vs shed, deadlines met vs missed, granted-vs-spent
//!   quota, value-weighted slack: the engine's own fold
//!   ([`TenantLedger::fold`]) over the run's decision records,
//!   whichever artifact they survive in.
//!
//! Everything here is a pure function over already-recorded data: no
//! clock, no RNG, no storage. Parsing validates `schema_version` on
//! every ingested artifact and fails with a structured
//! [`ExplainError::UnknownSchemaVersion`] naming the offending
//! version rather than a parse panic. The rendered postmortem
//! ([`Postmortem::render`]) is deterministic: byte-identical for
//! byte-identical inputs, in both `--format text` and `--format
//! json`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eram_core::obs::{TraceKind, TraceRecord, SCHEMA_VERSION};
use eram_core::server::{DecisionAction, DecisionRecord, TenantLedger, TenantSlo};
use eram_core::{ExecutionReport, JobReport, JobState, ServerOutcome};
use eram_storage::json::{FromJson, JsonError, ToJson};
use eram_storage::{json, json_record, Json};

/// The newest observability schema this build understands.
pub const SUPPORTED_SCHEMA_VERSION: u32 = SCHEMA_VERSION;

/// Why an artifact could not be ingested or explained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// The artifact names a schema version newer than this build
    /// understands. Re-run with a newer `eram-explain` (versions at
    /// or below `supported` are accepted; this is strictly a
    /// forward-compatibility refusal, not a parse failure).
    UnknownSchemaVersion {
        /// Which artifact ("trace", "report", "outcome").
        what: &'static str,
        /// The version the artifact declared.
        found: u32,
        /// The newest version this build accepts.
        supported: u32,
    },
    /// The artifact did not parse.
    Parse {
        /// Which artifact.
        what: &'static str,
        /// 1-based line (JSONL) or 0 for whole-document parses.
        line: usize,
        /// The underlying parser message.
        message: String,
    },
    /// Bad command-line usage (binary only).
    Usage(String),
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::UnknownSchemaVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what}: unknown schema_version {found} (this build supports <= {supported})"
            ),
            ExplainError::Parse {
                what,
                line,
                message,
            } => {
                if *line == 0 {
                    write!(f, "{what}: parse error: {message}")
                } else {
                    write!(f, "{what}: parse error at line {line}: {message}")
                }
            }
            ExplainError::Usage(msg) => write!(f, "usage: {msg}"),
        }
    }
}

impl std::error::Error for ExplainError {}

fn check_version(what: &'static str, found: u32) -> Result<(), ExplainError> {
    if found > SUPPORTED_SCHEMA_VERSION {
        return Err(ExplainError::UnknownSchemaVersion {
            what,
            found,
            supported: SUPPORTED_SCHEMA_VERSION,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------

/// Parses trace JSONL (a `{"schema_version":N}` header line followed
/// by one [`TraceRecord`] per line), validating the version.
pub fn parse_trace(input: &str) -> Result<Vec<TraceRecord>, ExplainError> {
    let mut lines = input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, header)) = lines.next() else {
        return Err(ExplainError::Parse {
            what: "trace",
            line: 1,
            message: "empty trace (missing schema_version header)".into(),
        });
    };
    let version = Json::parse(header)
        .and_then(|h| h.field("schema_version"))
        .map_err(|e| ExplainError::Parse {
            what: "trace",
            line: 1,
            message: format!("bad schema_version header: {e}"),
        })?;
    check_version("trace", version)?;
    let mut records = Vec::new();
    for (i, line) in lines {
        records.push(
            json::from_str::<TraceRecord>(line).map_err(|e| ExplainError::Parse {
                what: "trace",
                line: i + 1,
                message: e.to_string(),
            })?,
        );
    }
    Ok(records)
}

/// Parses a [`ServerOutcome`] JSON document, validating the version.
pub fn parse_outcome(input: &str) -> Result<ServerOutcome, ExplainError> {
    let outcome: ServerOutcome = json::from_str(input).map_err(|e| ExplainError::Parse {
        what: "outcome",
        line: 0,
        message: e.to_string(),
    })?;
    check_version("outcome", outcome.schema_version)?;
    if let Some(ledger) = &outcome.ledger {
        check_version("outcome.ledger", ledger.schema_version)?;
    }
    Ok(outcome)
}

/// Parses an [`ExecutionReport`] JSON document, validating the
/// version.
pub fn parse_report(input: &str) -> Result<ExecutionReport, ExplainError> {
    let report: ExecutionReport = json::from_str(input).map_err(|e| ExplainError::Parse {
        what: "report",
        line: 0,
        message: e.to_string(),
    })?;
    check_version("report", report.schema_version)?;
    Ok(report)
}

// ---------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------

fn f_u64(r: &TraceRecord, key: &str) -> Option<u64> {
    r.fields.get(key).and_then(Json::as_u64)
}

fn f_f64(r: &TraceRecord, key: &str) -> Option<f64> {
    r.fields.get(key).and_then(Json::as_f64)
}

fn f_bool(r: &TraceRecord, key: &str) -> Option<bool> {
    r.fields.get(key).and_then(Json::as_bool)
}

fn f_str<'a>(r: &'a TraceRecord, key: &str) -> Option<&'a str> {
    r.fields.get(key).and_then(Json::as_str)
}

// ---------------------------------------------------------------
// Quota-spend waterfall
// ---------------------------------------------------------------

/// One stage of the quota-spend waterfall: predicted vs charged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WaterfallRow {
    /// 1-based stage number (as recorded in the trace).
    pub stage: usize,
    /// Sample fraction the strategy planned.
    pub fraction: Option<f64>,
    /// Stage cost the strategy predicted.
    pub predicted_ns: Option<u64>,
    /// Blocks the strategy predicted.
    pub predicted_blocks: Option<u64>,
    /// Charged duration of the stage span.
    pub actual_ns: Option<u64>,
    /// New blocks actually drawn this stage.
    pub blocks: Option<u64>,
    /// Whether the stage finished within the quota.
    pub within_quota: Option<bool>,
    /// Running total of charged stage time through this stage.
    pub cumulative_ns: u64,
}

json_record!(WaterfallRow {
    stage: required,
    fraction: omit_empty,
    predicted_ns: omit_empty,
    predicted_blocks: omit_empty,
    actual_ns: omit_empty,
    blocks: omit_empty,
    within_quota: omit_empty,
    cumulative_ns: default,
});

/// Builds the per-stage quota-spend waterfall from a trace.
pub fn waterfall(records: &[TraceRecord]) -> Vec<WaterfallRow> {
    let mut rows: BTreeMap<usize, WaterfallRow> = BTreeMap::new();
    for r in records {
        match (r.kind, r.name.as_str()) {
            (TraceKind::Event, "plan_stage") => {
                let row = rows.entry(r.stage).or_insert_with(|| WaterfallRow {
                    stage: r.stage,
                    ..WaterfallRow::default()
                });
                row.fraction = f_f64(r, "fraction");
                row.predicted_ns = f_u64(r, "predicted_ns");
                row.predicted_blocks = f_u64(r, "predicted_blocks");
            }
            (TraceKind::End, "stage") => {
                let row = rows.entry(r.stage).or_insert_with(|| WaterfallRow {
                    stage: r.stage,
                    ..WaterfallRow::default()
                });
                row.actual_ns = r.dur_ns;
            }
            (TraceKind::Stage, "convergence") => {
                let row = rows.entry(r.stage).or_insert_with(|| WaterfallRow {
                    stage: r.stage,
                    ..WaterfallRow::default()
                });
                row.blocks = f_u64(r, "blocks_stage");
                row.within_quota = f_bool(r, "within_quota");
            }
            _ => {}
        }
    }
    let mut cumulative = 0u64;
    rows.into_values()
        .map(|mut row| {
            cumulative += row.actual_ns.unwrap_or(0);
            row.cumulative_ns = cumulative;
            row
        })
        .collect()
}

/// Builds the waterfall from a report's stage table instead of a
/// trace (the fallback when only `--report` is given).
pub fn waterfall_from_report(report: &ExecutionReport) -> Vec<WaterfallRow> {
    let mut cumulative = 0u64;
    report
        .stages
        .iter()
        .map(|s| {
            let actual = s.actual_cost.as_nanos() as u64;
            cumulative += actual;
            WaterfallRow {
                stage: s.stage,
                fraction: Some(s.fraction),
                predicted_ns: Some(s.predicted_cost.as_nanos() as u64),
                predicted_blocks: None,
                actual_ns: Some(actual),
                blocks: Some(s.blocks_drawn),
                within_quota: Some(s.within_quota),
                cumulative_ns: cumulative,
            }
        })
        .collect()
}

// ---------------------------------------------------------------
// Convergence timeline
// ---------------------------------------------------------------

/// One point of the estimator-convergence timeline (one per stage's
/// `convergence` record — i.e. per draw batch).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergencePoint {
    /// Stage number.
    pub stage: usize,
    /// Clock-charged timestamp of the record.
    pub t_ns: u64,
    /// The running estimate.
    pub estimate: Option<f64>,
    /// 95% CI relative half-width (the quantity precision targets
    /// bound).
    pub rel_half_width: Option<f64>,
    /// Sample points banked so far.
    pub points_sampled: Option<f64>,
    /// Whether the stage landed within the quota.
    pub within_quota: Option<bool>,
}

json_record!(ConvergencePoint {
    stage: required,
    t_ns: required,
    estimate: omit_empty,
    rel_half_width: omit_empty,
    points_sampled: omit_empty,
    within_quota: omit_empty,
});

/// Extracts the convergence timeline (CI width per draw batch).
pub fn convergence_timeline(records: &[TraceRecord]) -> Vec<ConvergencePoint> {
    records
        .iter()
        .filter(|r| r.kind == TraceKind::Stage && r.name == "convergence")
        .map(|r| ConvergencePoint {
            stage: r.stage,
            t_ns: r.t_ns,
            estimate: f_f64(r, "estimate"),
            rel_half_width: f_f64(r, "rel_half_width"),
            points_sampled: f_f64(r, "points_sampled"),
            within_quota: f_bool(r, "within_quota"),
        })
        .collect()
}

/// A group-freeze event: at `stage`, `newly_frozen` groups' CIs
/// converged and they stopped drawing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupFreeze {
    /// Stage at which the freeze was recorded.
    pub stage: usize,
    /// Clock-charged timestamp.
    pub t_ns: u64,
    /// Group keys that froze at this stage.
    pub newly_frozen: Vec<i64>,
    /// Total frozen groups after this stage.
    pub frozen: u64,
    /// Total groups.
    pub groups: u64,
}

json_record!(GroupFreeze {
    stage: required,
    t_ns: required,
    newly_frozen: required,
    frozen: required,
    groups: required,
});

/// Extracts group-freeze events from `group_convergence` records: one
/// event per stage where the frozen set grew.
pub fn group_freezes(records: &[TraceRecord]) -> Vec<GroupFreeze> {
    let mut already: BTreeMap<i64, bool> = BTreeMap::new();
    let mut freezes = Vec::new();
    for r in records {
        if r.kind != TraceKind::Stage || r.name != "group_convergence" {
            continue;
        }
        let keys: Vec<i64> = r
            .fields
            .get("keys")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_i64).collect())
            .unwrap_or_default();
        let flags: Vec<bool> = r
            .fields
            .get("frozen_flags")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_bool).collect())
            .unwrap_or_default();
        let mut newly = Vec::new();
        for (key, frozen) in keys.iter().zip(flags.iter()) {
            if *frozen && !already.get(key).copied().unwrap_or(false) {
                newly.push(*key);
            }
            already.insert(*key, *frozen);
        }
        if !newly.is_empty() {
            freezes.push(GroupFreeze {
                stage: r.stage,
                t_ns: r.t_ns,
                newly_frozen: newly,
                frozen: f_u64(r, "frozen").unwrap_or(0),
                groups: f_u64(r, "groups").unwrap_or(0),
            });
        }
    }
    freezes
}

// ---------------------------------------------------------------
// Deadline-miss attribution
// ---------------------------------------------------------------

/// One consumer of slack inside the overrunning scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlackConsumer {
    /// What consumed the time: a span name (`block_draw`), a fault
    /// cost (`retry_backoff`), or a loss marker
    /// (`block_lost:<reason>`).
    pub name: String,
    /// Charged nanoseconds attributed to this consumer.
    pub spent_ns: u64,
    /// Occurrences.
    pub count: u64,
}

json_record!(SlackConsumer {
    name: required,
    spent_ns: required,
    count: required,
});

/// Where the slack went: the overrunning stage and the ranked
/// consumers inside it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MissAttribution {
    /// The quota the attribution is judged against.
    pub quota_ns: Option<u64>,
    /// Total charged time of the scope.
    pub spent_ns: u64,
    /// The stage whose stopping check fired on abort/expiry, when the
    /// run overran at all.
    pub overrun_stage: Option<usize>,
    /// True when the overrunning stage was aborted mid-draw by the
    /// hard deadline.
    pub aborted: bool,
    /// The top slack consumer — the phase/operator/fault the
    /// postmortem names.
    pub culprit: Option<String>,
    /// All consumers in the attributed scope, heaviest first.
    pub consumers: Vec<SlackConsumer>,
}

json_record!(MissAttribution {
    quota_ns: omit_empty,
    spent_ns: required,
    overrun_stage: omit_empty,
    aborted: default,
    culprit: omit_empty,
    consumers: required,
});

/// Attributes the slack of a trace (or a per-job slice of one): finds
/// the overrunning stage — the one whose `stopping_check` fired on
/// `aborted` or `deadline_expired` — and ranks the charged time
/// consumers inside it. When nothing overran, the whole trace is the
/// scope (the ranking then describes where the quota went, which is
/// the same question without the blame).
pub fn attribute(records: &[TraceRecord], quota_ns: Option<u64>) -> MissAttribution {
    let spent_ns = records
        .iter()
        .rev()
        .find(|r| r.kind == TraceKind::End && r.name == "execute")
        .and_then(|r| r.dur_ns)
        .or_else(|| match (records.first(), records.last()) {
            (Some(first), Some(last)) => Some(last.t_ns.saturating_sub(first.t_ns)),
            _ => None,
        })
        .unwrap_or(0);
    let deciding = records
        .iter()
        .find(|r| r.name == "stopping_check" && f_bool(r, "stop") == Some(true));
    let aborted = deciding.and_then(|r| f_bool(r, "aborted")).unwrap_or(false);
    let expired = deciding
        .and_then(|r| f_bool(r, "deadline_expired"))
        .unwrap_or(false);
    let overrun_stage = if aborted || expired {
        deciding.map(|r| r.stage)
    } else {
        None
    };
    let mut consumers: BTreeMap<String, SlackConsumer> = BTreeMap::new();
    let mut add = |name: String, spent: u64| {
        let c = consumers.entry(name.clone()).or_insert(SlackConsumer {
            name,
            spent_ns: 0,
            count: 0,
        });
        c.spent_ns += spent;
        c.count += 1;
    };
    for r in records {
        if let Some(stage) = overrun_stage {
            if r.stage != stage {
                continue;
            }
        }
        match (r.kind, r.name.as_str()) {
            // Inner spans: block draws and anything the executor
            // nests inside a stage. The stage/execute spans are the
            // scope itself, not consumers of it.
            (TraceKind::End, name) if name != "stage" && name != "execute" => {
                add(name.to_string(), r.dur_ns.unwrap_or(0));
            }
            (TraceKind::Event, "retry") => {
                add(
                    "retry_backoff".to_string(),
                    f_u64(r, "backoff_ns").unwrap_or(0),
                );
            }
            (TraceKind::Event, "block_lost") => {
                let reason = f_str(r, "reason").unwrap_or("unknown");
                add(format!("block_lost:{reason}"), 0);
            }
            _ => {}
        }
    }
    let mut consumers: Vec<SlackConsumer> = consumers.into_values().collect();
    consumers.sort_by(|a, b| b.spent_ns.cmp(&a.spent_ns).then(a.name.cmp(&b.name)));
    let culprit = consumers.first().map(|c| c.name.clone());
    MissAttribution {
        quota_ns,
        spent_ns,
        overrun_stage,
        aborted,
        culprit,
        consumers,
    }
}

// ---------------------------------------------------------------
// Server-trace carving and tenant tables
// ---------------------------------------------------------------

/// One job's slice of a serving trace, carved at its grant and
/// terminal `server.decision` records. Jobs execute one at a time, so
/// the records between the two belong to this job's engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobWindow {
    /// The job (tenant) name.
    pub job: String,
    /// Index of the grant record in the trace.
    pub start: usize,
    /// Index one past the terminal (done/fail) record.
    pub end: usize,
    /// The granted quota.
    pub grant_ns: Option<u64>,
    /// Time the job consumed.
    pub spent_ns: Option<u64>,
    /// Whether it answered by its deadline (done records only).
    pub met: Option<bool>,
}

/// Carves a serving trace into per-job windows using the
/// `server.decision` audit events.
pub fn job_windows(records: &[TraceRecord]) -> Vec<JobWindow> {
    let mut windows: Vec<JobWindow> = Vec::new();
    let mut open: Option<JobWindow> = None;
    for (i, r) in records.iter().enumerate() {
        if r.name != "server.decision" {
            continue;
        }
        let (Some(action), Some(job)) = (f_str(r, "action"), f_str(r, "job")) else {
            continue;
        };
        match action {
            "grant" => {
                open = Some(JobWindow {
                    job: job.to_string(),
                    start: i,
                    end: i + 1,
                    grant_ns: f_u64(r, "grant_ns"),
                    spent_ns: None,
                    met: None,
                });
            }
            "done" | "fail" => {
                if let Some(mut w) = open.take() {
                    if w.job == job {
                        w.end = i + 1;
                        w.spent_ns = f_u64(r, "spent_ns");
                        w.met = f_bool(r, "met");
                        windows.push(w);
                    }
                }
            }
            _ => {}
        }
    }
    windows
}

/// One tenant's SLO row as rendered in the postmortem: the ledger's
/// [`TenantSlo`] counters under the tenant's name. On the wire the
/// counters sit beside `tenant`, with the derived `spend_ratio`
/// (`spent / granted`, 0 when nothing was granted) after `spent_ns`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantRow {
    /// Tenant (job) name.
    pub tenant: String,
    /// The tenant's counters.
    pub slo: TenantSlo,
}

impl ToJson for TenantRow {
    fn to_json(&self) -> Json {
        let mut members = vec![("tenant".to_owned(), self.tenant.to_json())];
        let Json::Obj(counters) = self.slo.to_json() else {
            unreachable!("a record serializes as an object");
        };
        for (name, value) in counters {
            let ratio_next = name == "spent_ns";
            members.push((name, value));
            if ratio_next {
                members.push(("spend_ratio".to_owned(), self.slo.spend_ratio().to_json()));
            }
        }
        Json::Obj(members)
    }
}

impl FromJson for TenantRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(TenantRow {
            tenant: value.field("tenant")?,
            slo: TenantSlo::from_json(value)?,
        })
    }
}

/// The decision records a trace carries: its `server.decision`
/// events, read back through the inverse of the writer. A line that
/// does not hold a decision this build knows is skipped.
fn trace_decisions(records: &[TraceRecord]) -> Vec<DecisionRecord> {
    records
        .iter()
        .filter(|r| r.name == "server.decision")
        .filter_map(|r| DecisionRecord::from_trace_fields(r.t_ns, &r.fields).ok())
        .collect()
}

/// The ledger of a served run, from the best evidence at hand: the
/// one the outcome carries (`--ledger`); else the engine's fold over
/// the trace's decision records; else — only when neither exists —
/// over the records the job reports imply. All three are the same
/// fold, so the tenant table does not depend on which artifact
/// survived (the sharing credits aside: only a carried ledger has
/// them). `None` when the artifacts hold no serving decision.
pub fn run_ledger(
    trace: Option<&[TraceRecord]>,
    outcome: Option<&ServerOutcome>,
) -> Option<TenantLedger> {
    if let Some(ledger) = outcome.and_then(|o| o.ledger.as_ref()) {
        return Some(ledger.clone());
    }
    let mut decisions = trace.map(trace_decisions).unwrap_or_default();
    if decisions.is_empty() {
        let jobs = outcome.map_or(&[][..], |o| &o.jobs);
        decisions = jobs.iter().flat_map(JobReport::implied_decisions).collect();
    }
    // Every offered job draws exactly one admission verdict.
    let offered: Vec<String> = decisions
        .iter()
        .filter(|d| d.is_admission_verdict())
        .map(|d| d.job.clone())
        .collect();
    (!decisions.is_empty())
        .then(|| TenantLedger::fold(offered.iter().map(String::as_str), decisions))
}

// ---------------------------------------------------------------
// Postmortem assembly
// ---------------------------------------------------------------

/// One served job's summary line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSummary {
    /// Job name.
    pub job: String,
    /// Terminal state label: `done`, `refused:<reason>`, `failed`.
    pub state: String,
    /// Whether it answered by its deadline.
    pub met: bool,
    /// Granted quota.
    pub granted_ns: u64,
    /// Engine time consumed.
    pub spent_ns: u64,
    /// Shedding value.
    pub value: f64,
}

json_record!(JobSummary {
    job: required,
    state: required,
    met: required,
    granted_ns: required,
    spent_ns: required,
    value: required,
});

/// A per-job slack attribution inside a serving trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobAttribution {
    /// The job the window belongs to.
    pub job: String,
    /// Whether it answered by its deadline (absent for failed jobs).
    pub met: Option<bool>,
    /// The attribution over the job's engine records.
    pub attribution: MissAttribution,
}

json_record!(JobAttribution {
    job: required,
    met: omit_empty,
    attribution: required,
});

/// The assembled postmortem — everything the forensics plane can say
/// about one run, deterministic and serializable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Postmortem {
    /// The schema version this postmortem was built against.
    pub schema_version: u32,
    /// The quota (from the report, when one was given).
    pub quota_ns: Option<u64>,
    /// The engine's final stop reason (from the trace).
    pub stop_reason: Option<String>,
    /// Per-stage quota-spend waterfall.
    pub waterfall: Vec<WaterfallRow>,
    /// Estimator-convergence timeline.
    pub convergence: Vec<ConvergencePoint>,
    /// GROUP BY freeze events.
    pub group_freezes: Vec<GroupFreeze>,
    /// Whole-trace slack attribution.
    pub miss_attribution: Option<MissAttribution>,
    /// Per-job summaries (serving outcomes).
    pub jobs: Vec<JobSummary>,
    /// Per-job slack attributions for jobs that missed their deadline
    /// or overshot their grant (serving traces).
    pub job_attributions: Vec<JobAttribution>,
    /// Per-tenant SLO table (serving outcomes).
    pub tenants: Vec<TenantRow>,
}

json_record!(Postmortem {
    schema_version: required,
    quota_ns: omit_empty,
    stop_reason: omit_empty,
    waterfall: required,
    convergence: required,
    group_freezes: required,
    miss_attribution: omit_empty,
    jobs: required,
    job_attributions: required,
    tenants: required,
});

/// Builds a postmortem from whichever artifacts are at hand. All
/// inputs are optional, but at least one should be present for the
/// result to say anything.
pub fn postmortem(
    trace: Option<&[TraceRecord]>,
    outcome: Option<&ServerOutcome>,
    report: Option<&ExecutionReport>,
) -> Postmortem {
    let mut pm = Postmortem {
        schema_version: SUPPORTED_SCHEMA_VERSION,
        ..Postmortem::default()
    };
    if let Some(report) = report {
        pm.quota_ns = Some(report.quota.as_nanos() as u64);
        pm.waterfall = waterfall_from_report(report);
    }
    if let Some(records) = trace {
        if pm.waterfall.is_empty() {
            pm.waterfall = waterfall(records);
        }
        pm.convergence = convergence_timeline(records);
        pm.group_freezes = group_freezes(records);
        pm.stop_reason = records
            .iter()
            .rev()
            .find(|r| r.kind == TraceKind::Event && r.name == "stop")
            .and_then(|r| f_str(r, "reason").map(str::to_string));
        pm.miss_attribution = Some(attribute(records, pm.quota_ns));
        for w in job_windows(records) {
            let overshot = match (w.spent_ns, w.grant_ns) {
                (Some(spent), Some(grant)) => spent > grant,
                _ => false,
            };
            if w.met == Some(false) || overshot {
                pm.job_attributions.push(JobAttribution {
                    job: w.job.clone(),
                    met: w.met,
                    attribution: attribute(&records[w.start..w.end], w.grant_ns),
                });
            }
        }
    }
    if let Some(outcome) = outcome {
        pm.jobs = outcome
            .jobs
            .iter()
            .map(|j| JobSummary {
                job: j.name.clone(),
                state: match &j.state {
                    JobState::Done => "done".to_string(),
                    JobState::Refused { reason } => format!("refused:{}", reason.as_str()),
                    JobState::Failed { .. } => "failed".to_string(),
                },
                met: j.met(),
                granted_ns: j.granted_quota.as_nanos() as u64,
                spent_ns: j.finished_at.saturating_sub(j.started_at).as_nanos() as u64,
                value: j.value,
            })
            .collect();
    }
    if let Some(ledger) = run_ledger(trace, outcome) {
        pm.tenants = ledger
            .tenants
            .iter()
            .map(|(tenant, slo)| TenantRow {
                tenant: tenant.clone(),
                slo: *slo,
            })
            .collect();
        // Without a trace to carve, the decision log still names
        // watchdog overruns per job; surface them as attributions so
        // `--outcome`-only postmortems can answer "who overshot".
        if pm.job_attributions.is_empty() {
            for d in &ledger.decisions {
                if d.action == DecisionAction::Watchdog {
                    pm.job_attributions.push(JobAttribution {
                        job: d.job.clone(),
                        met: None,
                        attribution: MissAttribution {
                            quota_ns: d.grant_ns,
                            spent_ns: d.spent_ns.unwrap_or(0),
                            culprit: Some("watchdog_overrun".to_string()),
                            ..MissAttribution::default()
                        },
                    });
                }
            }
        }
    }
    pm
}

// ---------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------

/// Output format for [`Postmortem::render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Fixed-width human tables.
    Text,
    /// Deterministic pretty JSON (for CI and `jq`).
    Json,
}

impl std::str::FromStr for Format {
    type Err = ExplainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(ExplainError::Usage(format!(
                "--format must be text|json, got {other:?}"
            ))),
        }
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

impl Postmortem {
    /// Renders the postmortem. Deterministic: byte-identical output
    /// for byte-identical inputs.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Json => json::to_string_pretty(self) + "\n",
            Format::Text => self.render_text(),
        }
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "postmortem (schema v{})", self.schema_version);
        if let Some(q) = self.quota_ns {
            let _ = writeln!(out, "quota: {} ms", ms(q));
        }
        if let Some(reason) = &self.stop_reason {
            let _ = writeln!(out, "stop reason: {reason}");
        }
        if !self.waterfall.is_empty() {
            let _ = writeln!(out, "\n== quota-spend waterfall ==");
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>12} {:>12} {:>12} {:>8} {:>6}",
                "stage", "fraction", "predict(ms)", "actual(ms)", "cumul(ms)", "blocks", "in-q"
            );
            for row in &self.waterfall {
                let _ = writeln!(
                    out,
                    "{:>5} {:>10} {:>12} {:>12} {:>12} {:>8} {:>6}",
                    row.stage,
                    row.fraction.map_or("-".into(), |f| format!("{f:.4}")),
                    row.predicted_ns.map_or("-".into(), ms),
                    row.actual_ns.map_or("-".into(), ms),
                    ms(row.cumulative_ns),
                    row.blocks.map_or("-".into(), |b| b.to_string()),
                    row.within_quota
                        .map_or("-", |w| if w { "yes" } else { "NO" }),
                );
            }
        }
        if !self.convergence.is_empty() {
            let _ = writeln!(out, "\n== estimator convergence ==");
            let _ = writeln!(
                out,
                "{:>5} {:>14} {:>14} {:>12}",
                "stage", "estimate", "rel-half-width", "points"
            );
            for p in &self.convergence {
                let _ = writeln!(
                    out,
                    "{:>5} {:>14} {:>14} {:>12}",
                    p.stage,
                    p.estimate.map_or("-".into(), |e| format!("{e:.3}")),
                    p.rel_half_width.map_or("-".into(), |w| format!("{w:.5}")),
                    p.points_sampled.map_or("-".into(), |n| format!("{n:.0}")),
                );
            }
        }
        if !self.group_freezes.is_empty() {
            let _ = writeln!(out, "\n== group freezes ==");
            for f in &self.group_freezes {
                let _ = writeln!(
                    out,
                    "stage {:>3}: {}/{} frozen (new: {:?})",
                    f.stage, f.frozen, f.groups, f.newly_frozen
                );
            }
        }
        if let Some(attr) = &self.miss_attribution {
            let _ = writeln!(out, "\n== slack attribution ==");
            render_attribution(&mut out, attr);
        }
        if !self.jobs.is_empty() {
            let _ = writeln!(out, "\n== jobs ==");
            let _ = writeln!(
                out,
                "{:<16} {:<18} {:>4} {:>12} {:>12} {:>7}",
                "job", "state", "met", "granted(ms)", "spent(ms)", "value"
            );
            for j in &self.jobs {
                let _ = writeln!(
                    out,
                    "{:<16} {:<18} {:>4} {:>12} {:>12} {:>7}",
                    j.job,
                    j.state,
                    if j.met { "yes" } else { "NO" },
                    ms(j.granted_ns),
                    ms(j.spent_ns),
                    format!("{:.2}", j.value),
                );
            }
        }
        for ja in &self.job_attributions {
            let _ = writeln!(
                out,
                "\n== slack attribution: job {} (met: {}) ==",
                ja.job,
                ja.met.map_or("-", |m| if m { "yes" } else { "NO" }),
            );
            render_attribution(&mut out, &ja.attribution);
        }
        if !self.tenants.is_empty() {
            let _ = writeln!(out, "\n== tenant SLO table ==");
            let _ = writeln!(
                out,
                "{:<16} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>10} {:>10} {:>7}",
                "tenant",
                "off",
                "adm",
                "ref",
                "shed",
                "fail",
                "done",
                "met",
                "miss",
                "wdog",
                "grant(ms)",
                "spent(ms)",
                "ratio"
            );
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "{:<16} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>10} {:>10} {:>7}",
                    t.tenant,
                    t.slo.offered,
                    t.slo.admitted,
                    t.slo.refused,
                    t.slo.shed,
                    t.slo.failed,
                    t.slo.completed,
                    t.slo.deadlines_met,
                    t.slo.deadlines_missed,
                    t.slo.watchdog_overruns,
                    ms(t.slo.granted_ns),
                    ms(t.slo.spent_ns),
                    format!("{:.3}", t.slo.spend_ratio()),
                );
            }
            // Sharing savings: only rendered when the batch actually
            // pooled draws (interleaved serving), so postmortems of
            // sequential or pre-sharing artifacts are byte-unchanged.
            let shared: u64 = self.tenants.iter().map(|t| t.slo.blocks_shared).sum();
            if shared > 0 {
                let saved: u64 = self.tenants.iter().map(|t| t.slo.charge_saved_ns).sum();
                let _ = writeln!(
                    out,
                    "sharing savings: {shared} block draw(s) fed from co-resident reads, \
                     {} ms of device time spared",
                    ms(saved)
                );
                for t in self.tenants.iter().filter(|t| t.slo.blocks_shared > 0) {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>6} shared  {:>10} ms spared",
                        t.tenant,
                        t.slo.blocks_shared,
                        ms(t.slo.charge_saved_ns)
                    );
                }
            }
        }
        out
    }
}

fn render_attribution(out: &mut String, attr: &MissAttribution) {
    match attr.overrun_stage {
        Some(stage) => {
            let _ = writeln!(
                out,
                "overrun at stage {stage}{}; spent {} ms{}",
                if attr.aborted {
                    " (aborted mid-draw)"
                } else {
                    ""
                },
                ms(attr.spent_ns),
                attr.quota_ns
                    .map_or(String::new(), |q| format!(" of {} ms quota", ms(q))),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "no overrun; spent {} ms{}",
                ms(attr.spent_ns),
                attr.quota_ns
                    .map_or(String::new(), |q| format!(" of {} ms quota", ms(q))),
            );
        }
    }
    if let Some(culprit) = &attr.culprit {
        let _ = writeln!(out, "top consumer: {culprit}");
    }
    for c in &attr.consumers {
        let _ = writeln!(
            out,
            "  {:<24} {:>12} ms  x{}",
            c.name,
            ms(c.spent_ns),
            c.count
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        t_ns: u64,
        kind: TraceKind,
        name: &str,
        stage: usize,
        dur_ns: Option<u64>,
        fields: &[(&str, Json)],
    ) -> TraceRecord {
        TraceRecord {
            t_ns,
            kind,
            name: name.to_string(),
            stage,
            dur_ns,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn overrun_trace() -> Vec<TraceRecord> {
        vec![
            rec(0, TraceKind::Begin, "execute", 0, None, &[]),
            rec(
                0,
                TraceKind::Event,
                "plan_stage",
                1,
                None,
                &[
                    ("fraction", Json::from(0.01)),
                    ("predicted_ns", Json::from(40u64)),
                    ("predicted_blocks", Json::from(4u64)),
                ],
            ),
            rec(0, TraceKind::Begin, "stage", 1, None, &[]),
            rec(10, TraceKind::End, "block_draw", 1, Some(10), &[]),
            rec(50, TraceKind::End, "stage", 1, Some(50), &[]),
            rec(
                50,
                TraceKind::Stage,
                "convergence",
                1,
                None,
                &[
                    ("estimate", Json::from(100.0)),
                    ("rel_half_width", Json::from(0.2)),
                    ("points_sampled", Json::from(10.0)),
                    ("blocks_stage", Json::from(4u64)),
                    ("within_quota", Json::from(true)),
                ],
            ),
            rec(
                50,
                TraceKind::Event,
                "stopping_check",
                1,
                None,
                &[
                    ("aborted", Json::from(false)),
                    ("deadline_expired", Json::from(false)),
                    ("precision_satisfied", Json::from(false)),
                    ("stop", Json::from(false)),
                ],
            ),
            rec(50, TraceKind::Begin, "stage", 2, None, &[]),
            rec(90, TraceKind::End, "block_draw", 2, Some(40), &[]),
            rec(
                95,
                TraceKind::Event,
                "retry",
                2,
                None,
                &[
                    ("attempt", Json::from(1u64)),
                    ("backoff_ns", Json::from(5u64)),
                ],
            ),
            rec(
                95,
                TraceKind::Event,
                "block_lost",
                2,
                None,
                &[
                    ("block", Json::from(7u64)),
                    ("reason", Json::from("retry_exhausted")),
                ],
            ),
            rec(120, TraceKind::End, "stage", 2, Some(70), &[]),
            rec(
                120,
                TraceKind::Event,
                "stopping_check",
                2,
                None,
                &[
                    ("aborted", Json::from(true)),
                    ("deadline_expired", Json::from(true)),
                    ("precision_satisfied", Json::from(false)),
                    ("stop", Json::from(true)),
                ],
            ),
            rec(
                120,
                TraceKind::Event,
                "stop",
                2,
                None,
                &[("reason", Json::from("aborted"))],
            ),
            rec(120, TraceKind::End, "execute", 2, Some(120), &[]),
        ]
    }

    #[test]
    fn waterfall_merges_plan_span_and_convergence() {
        let rows = waterfall(&overrun_trace());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, 1);
        assert_eq!(rows[0].fraction, Some(0.01));
        assert_eq!(rows[0].predicted_ns, Some(40));
        assert_eq!(rows[0].actual_ns, Some(50));
        assert_eq!(rows[0].blocks, Some(4));
        assert_eq!(rows[0].within_quota, Some(true));
        assert_eq!(rows[0].cumulative_ns, 50);
        assert_eq!(rows[1].cumulative_ns, 120);
    }

    #[test]
    fn attribution_names_the_overrunning_stage_and_culprit() {
        let attr = attribute(&overrun_trace(), Some(100));
        assert_eq!(attr.overrun_stage, Some(2));
        assert!(attr.aborted);
        assert_eq!(attr.spent_ns, 120);
        assert_eq!(attr.culprit.as_deref(), Some("block_draw"));
        // Only stage-2 consumers are in scope: the 40 ns draw, the
        // retry backoff, and the lost block.
        assert_eq!(attr.consumers.len(), 3);
        assert_eq!(attr.consumers[0].name, "block_draw");
        assert_eq!(attr.consumers[0].spent_ns, 40);
        assert_eq!(attr.consumers[1].name, "retry_backoff");
        assert_eq!(attr.consumers[1].spent_ns, 5);
        assert_eq!(attr.consumers[2].name, "block_lost:retry_exhausted");
        assert_eq!(attr.consumers[2].count, 1);
    }

    #[test]
    fn attribution_without_overrun_scopes_the_whole_trace() {
        let mut records = overrun_trace();
        // Rewrite the deciding stopping_check as a clean stop.
        for r in &mut records {
            if r.name == "stopping_check" {
                r.fields.insert("aborted".into(), Json::from(false));
                r.fields
                    .insert("deadline_expired".into(), Json::from(false));
            }
        }
        let attr = attribute(&records, None);
        assert_eq!(attr.overrun_stage, None);
        assert!(!attr.aborted);
        // Both stages' draws are in scope now.
        let draw = attr
            .consumers
            .iter()
            .find(|c| c.name == "block_draw")
            .unwrap();
        assert_eq!(draw.spent_ns, 50);
        assert_eq!(draw.count, 2);
    }

    #[test]
    fn convergence_timeline_reads_stage_records() {
        let points = convergence_timeline(&overrun_trace());
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].stage, 1);
        assert_eq!(points[0].estimate, Some(100.0));
        assert_eq!(points[0].rel_half_width, Some(0.2));
    }

    #[test]
    fn group_freezes_emit_only_when_the_frozen_set_grows() {
        let gc = |stage: usize, flags: [bool; 3], frozen: u64| {
            rec(
                0,
                TraceKind::Stage,
                "group_convergence",
                stage,
                None,
                &[
                    ("groups", Json::from(3u64)),
                    ("frozen", Json::from(frozen)),
                    (
                        "keys",
                        Json::Arr(vec![Json::from(1i64), Json::from(2i64), Json::from(3i64)]),
                    ),
                    (
                        "frozen_flags",
                        Json::Arr(flags.iter().map(|f| Json::from(*f)).collect()),
                    ),
                ],
            )
        };
        let records = vec![
            gc(1, [false, false, false], 0),
            gc(2, [true, false, false], 1),
            gc(3, [true, false, true], 2),
            gc(4, [true, false, true], 2),
        ];
        let freezes = group_freezes(&records);
        assert_eq!(freezes.len(), 2);
        assert_eq!(freezes[0].stage, 2);
        assert_eq!(freezes[0].newly_frozen, vec![1]);
        assert_eq!(freezes[1].stage, 3);
        assert_eq!(freezes[1].newly_frozen, vec![3]);
        assert_eq!(freezes[1].frozen, 2);
    }

    fn decision(t_ns: u64, action: &str, job: &str, extra: &[(&str, Json)]) -> TraceRecord {
        let mut fields = vec![("action", Json::from(action)), ("job", Json::from(job))];
        fields.extend(extra.iter().cloned());
        rec(t_ns, TraceKind::Event, "server.decision", 0, None, &fields)
    }

    #[test]
    fn job_windows_carve_grant_to_terminal() {
        let records = vec![
            decision(0, "admit", "a", &[]),
            decision(0, "admit", "b", &[]),
            decision(0, "grant", "a", &[("grant_ns", Json::from(100u64))]),
            rec(10, TraceKind::End, "block_draw", 1, Some(10), &[]),
            decision(
                120,
                "done",
                "a",
                &[("spent_ns", Json::from(120u64)), ("met", Json::from(true))],
            ),
            decision(120, "grant", "b", &[("grant_ns", Json::from(50u64))]),
            decision(200, "fail", "b", &[("spent_ns", Json::from(80u64))]),
        ];
        let windows = job_windows(&records);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].job, "a");
        assert_eq!(windows[0].grant_ns, Some(100));
        assert_eq!(windows[0].spent_ns, Some(120));
        assert_eq!(windows[0].met, Some(true));
        // The engine record between grant and done is inside a's window.
        assert!(records[windows[0].start..windows[0].end]
            .iter()
            .any(|r| r.name == "block_draw"));
        assert_eq!(windows[1].job, "b");
        assert_eq!(windows[1].met, None);
    }

    #[test]
    fn postmortem_flags_overshot_jobs() {
        let records = vec![
            decision(0, "grant", "a", &[("grant_ns", Json::from(100u64))]),
            rec(10, TraceKind::End, "block_draw", 1, Some(150), &[]),
            decision(
                150,
                "done",
                "a",
                &[("spent_ns", Json::from(150u64)), ("met", Json::from(true))],
            ),
        ];
        let pm = postmortem(Some(&records), None, None);
        assert_eq!(pm.job_attributions.len(), 1, "spent 150 > grant 100");
        assert_eq!(pm.job_attributions[0].job, "a");
        assert!(pm.miss_attribution.is_some());
    }

    #[test]
    fn unknown_schema_version_is_a_structured_error() {
        let newer = SUPPORTED_SCHEMA_VERSION + 5;
        let input = format!("{{\"schema_version\":{newer}}}\n");
        match parse_trace(&input) {
            Err(ExplainError::UnknownSchemaVersion {
                what,
                found,
                supported,
            }) => {
                assert_eq!(what, "trace");
                assert_eq!(found, newer);
                assert_eq!(supported, SUPPORTED_SCHEMA_VERSION);
            }
            other => panic!("expected UnknownSchemaVersion, got {other:?}"),
        }
        // The error names the version in its rendering.
        let err = parse_trace(&input).unwrap_err();
        assert!(err.to_string().contains(&newer.to_string()), "{err}");
    }

    #[test]
    fn empty_trace_is_a_parse_error_not_a_panic() {
        match parse_trace("") {
            Err(ExplainError::Parse { what, .. }) => assert_eq!(what, "trace"),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn sharing_savings_render_only_when_draws_were_pooled() {
        let mut pm = Postmortem {
            schema_version: SUPPORTED_SCHEMA_VERSION,
            ..Postmortem::default()
        };
        let solo = TenantSlo {
            offered: 1,
            admitted: 1,
            completed: 1,
            deadlines_met: 1,
            granted_ns: 2_000_000,
            spent_ns: 1_000_000,
            ..TenantSlo::default()
        };
        pm.tenants.push(TenantRow {
            tenant: "solo".into(),
            slo: solo,
        });
        let without = pm.render(Format::Text);
        assert!(
            !without.contains("sharing savings"),
            "sequential artifacts must render unchanged:\n{without}"
        );
        pm.tenants.push(TenantRow {
            tenant: "pooled".into(),
            slo: TenantSlo {
                spent_ns: 1_500_000,
                blocks_shared: 12,
                charge_saved_ns: 36_000_000,
                ..solo
            },
        });
        // The wire form is the flat row it always was, ratio derived.
        let back: Postmortem = json::from_str(&pm.render(Format::Json)).unwrap();
        assert_eq!(back, pm);
        let row = pm.tenants[1].to_json();
        assert_eq!(row.get("spend_ratio").and_then(Json::as_f64), Some(0.75));
        assert_eq!(row.get("blocks_shared").and_then(Json::as_u64), Some(12));
        let with = pm.render(Format::Text);
        assert!(with.contains("sharing savings: 12 block draw(s)"), "{with}");
        assert!(with.contains("pooled"), "{with}");
        assert!(
            !with.contains("solo             ") || !with.contains("solo   0 shared"),
            "tenants with no sharing stay out of the savings list"
        );
    }

    #[test]
    fn render_text_is_deterministic() {
        let pm = postmortem(Some(&overrun_trace()), None, None);
        let a = pm.render(Format::Text);
        let b = pm.render(Format::Text);
        assert_eq!(a, b);
        assert!(a.contains("quota-spend waterfall"));
        assert!(a.contains("slack attribution"));
        assert!(a.contains("block_draw"));
    }

    #[test]
    fn render_json_round_trips() {
        let pm = postmortem(Some(&overrun_trace()), None, None);
        let json = pm.render(Format::Json);
        let back: Postmortem = json::from_str(&json).unwrap();
        assert_eq!(back, pm);
        assert_eq!(back.render(Format::Json), json);
    }
}
