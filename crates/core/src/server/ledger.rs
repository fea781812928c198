//! The deadline-forensics ledger: per-tenant SLO accounting and an
//! append-only audit log of every serving decision.
//!
//! The paper's contract is a *hard time constraint*; this module is
//! the paper trail. Every answer the server hands out (or declines to
//! hand out) leaves two artifacts behind:
//!
//! * a [`TenantSlo`] row — the per-tenant service-level counters:
//!   offered/admitted/refused/shed/failed, deadlines met vs missed,
//!   watchdog overruns, granted-vs-spent quota, and the value-weighted
//!   slack banked at completion; and
//! * one [`DecisionRecord`] per serving decision — admission, refusal,
//!   grant, dispatch-time deflation, overrun refit, shedding, and
//!   watchdog trips — each carrying the *inputs* the decision was made
//!   from (predicted cost, slack, margin, overrun factor), so a
//!   postmortem can replay the reasoning, not just the verdict.
//!
//! The decision log is the server's only observation sink: the
//! serving loop appends one [`DecisionRecord`] per decision (and emits
//! it as the one `server.decision` trace event), and everything else —
//! the [`TenantSlo`] rows, the refit trajectory, and through the rows
//! [`ServerStats`](super::ServerStats) and the `server.*` metrics — is
//! [`TenantLedger::fold`] over that log. `eram-explain` runs the same
//! fold over the `server.decision` lines of a trace
//! ([`DecisionRecord::from_trace_fields`]), so exactly one function
//! knows what a refusal, a shed or a late answer counts as.
//!
//! The ledger is **pure observation**: building it draws no blocks,
//! charges no clock time, and consumes no RNG. It rides
//! [`ServerOutcome`](super::ServerOutcome) behind an `Option` that
//! may be absent, so outcome JSON from before the ledger existed
//! loads unchanged and a ledger-free outcome serializes
//! byte-identically to the pre-ledger wire form (schema v1 is
//! preserved — see [`crate::obs::SCHEMA_VERSION`]).

use std::collections::BTreeMap;
use std::time::Duration;

use eram_storage::json::{FromJson, JsonError, ToJson};
use eram_storage::{json_record, json_unit_enum, Json};

use crate::report::RefusalReason;

/// What kind of serving decision a [`DecisionRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionAction {
    /// The job passed predictive admission.
    #[default]
    Admit,
    /// The job was refused at admission (`reason` says why).
    Refuse,
    /// The job (or its QCOST screening) failed with an error.
    Fail,
    /// The job was dispatched under its execution quota (`overrun` is
    /// the refit factor in force).
    Grant,
    /// The dispatched attempt would have landed late, so it was
    /// discarded (`discarded_ns` of lane time) and the job re-run
    /// under a tighter quota: `grant_ns` before, `deflated_ns` after.
    Deflate,
    /// The EWMA overrun factor was refit from an observed
    /// `spent / granted` ratio.
    Refit,
    /// The job was evicted mid-batch by overload shedding.
    Shed,
    /// The job's engine run overshot its grant past the watchdog
    /// grace.
    Watchdog,
    /// The job ran to completion (`met` says whether in time).
    Done,
}

json_unit_enum!(DecisionAction {
    Admit = "admit",
    Refuse = "refuse",
    Fail = "fail",
    Grant = "grant",
    Deflate = "deflate",
    Refit = "refit",
    Shed = "shed",
    Watchdog = "watchdog",
    Done = "done",
});

/// One entry of the append-only decision audit log.
///
/// Only the fields that fed the decision are populated; the rest stay
/// `None` and off the wire (`skip_serializing_if`), so records
/// round-trip byte-identically through JSON. Timestamps are charged
/// session-clock nanoseconds, the same timebase as
/// [`TraceRecord::t_ns`](crate::obs::TraceRecord::t_ns).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionRecord {
    /// Clock-charged timestamp of the decision.
    pub t_ns: u64,
    /// What was decided.
    pub action: DecisionAction,
    /// The job (tenant) the decision is about. The refit decision
    /// names the job whose observed ratio drove it.
    pub job: String,
    /// Structured refusal reason (refuse/shed records).
    pub reason: Option<RefusalReason>,
    /// Slack to the job's deadline at decision time.
    pub slack_ns: Option<u64>,
    /// The (projected or actual) grant.
    pub grant_ns: Option<u64>,
    /// The job's declared minimum quota.
    pub min_quota_ns: Option<u64>,
    /// Projected start offset used by admission.
    pub projected_start_ns: Option<u64>,
    /// QCOST floor of the job's expression, when screening computed
    /// one (seconds, the cost model's native unit).
    pub predicted_cost_secs: Option<f64>,
    /// The slack margin in force.
    pub margin: Option<f64>,
    /// The overrun refit factor in force (grant/refit records).
    pub overrun: Option<f64>,
    /// The observed `spent / granted` ratio (refit records).
    pub ratio: Option<f64>,
    /// Time the job actually consumed (refit/watchdog records and the
    /// terminal record of every job that ran).
    pub spent_ns: Option<u64>,
    /// How far past its deadline the answer landed (late-shed
    /// records).
    pub late_ns: Option<u64>,
    /// The tighter quota the job re-ran under (deflate records).
    pub deflated_ns: Option<u64>,
    /// Lane time of the discarded attempt (deflate records).
    pub discarded_ns: Option<u64>,
    /// The job's shedding value (shed records).
    pub value: Option<f64>,
    /// Whether the job finished by its deadline (done records).
    pub met: Option<bool>,
    /// The rendered engine error (fail records).
    pub error: Option<String>,
}

json_record!(DecisionRecord {
    t_ns: default,
    action: required,
    job: required,
    reason: omit_empty,
    slack_ns: omit_empty,
    grant_ns: omit_empty,
    min_quota_ns: omit_empty,
    projected_start_ns: omit_empty,
    predicted_cost_secs: omit_empty,
    margin: omit_empty,
    overrun: omit_empty,
    ratio: omit_empty,
    spent_ns: omit_empty,
    late_ns: omit_empty,
    deflated_ns: omit_empty,
    discarded_ns: omit_empty,
    value: omit_empty,
    met: omit_empty,
    error: omit_empty,
});

impl DecisionRecord {
    /// A record of `action` about `job` at charged time `t_ns`, all
    /// inputs unset.
    pub fn new(t_ns: u64, action: DecisionAction, job: impl Into<String>) -> Self {
        DecisionRecord {
            t_ns,
            action,
            job: job.into(),
            ..DecisionRecord::default()
        }
    }

    /// The payload of the record's `server.decision` trace event: its
    /// own wire form — populated fields only, in the struct's order —
    /// minus the timestamp, which the event carries itself.
    pub fn trace_fields(&self) -> Vec<(String, Json)> {
        let Json::Obj(mut members) = self.to_json() else {
            unreachable!("a record serializes as an object");
        };
        members.retain(|(name, _)| name != "t_ns");
        members
    }

    /// The inverse of [`trace_fields`](Self::trace_fields): the record
    /// a `server.decision` trace event stamped `t_ns` carries (the
    /// event payload is the record's own wire form minus the
    /// timestamp).
    pub fn from_trace_fields(
        t_ns: u64,
        fields: &BTreeMap<String, Json>,
    ) -> Result<Self, JsonError> {
        let members = fields.iter().map(|(k, v)| (k.clone(), v.clone()));
        let record = DecisionRecord::from_json(&Json::Obj(members.collect()))?;
        Ok(DecisionRecord { t_ns, ..record })
    }

    /// True for the three verdicts of admission — admit, refuse, or a
    /// failure that never held a grant. Every offered job draws
    /// exactly one.
    pub fn is_admission_verdict(&self) -> bool {
        self.action == DecisionAction::Admit
            || self.action == DecisionAction::Refuse
            || (self.action == DecisionAction::Fail && self.grant_ns.is_none())
    }
}

/// One observed overrun-refit step: the raw material of the EWMA that
/// deflates future grants (Section 4's adaptive-coefficient idea, one
/// level up).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefitSample {
    /// Clock-charged timestamp of the refit.
    pub t_ns: u64,
    /// The job whose observed ratio drove this step.
    pub job: String,
    /// The clamped `spent / granted` ratio folded in.
    pub ratio: f64,
    /// The EWMA overrun factor *after* folding the ratio in.
    pub overrun: f64,
}

json_record!(RefitSample {
    t_ns: default,
    job: required,
    ratio: required,
    overrun: required,
});

/// Per-tenant service-level counters: one row of
/// [`TenantLedger::fold`].
///
/// Invariants (checked by search in `tests/admission_chaos.rs`):
/// `offered = admitted + refused + failed-at-admission`, `admitted =
/// completed + shed + failed-mid-run`, `completed = deadlines_met +
/// deadlines_missed`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantSlo {
    /// Jobs this tenant submitted.
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
    /// Completed jobs that answered by their deadline.
    pub deadlines_met: u64,
    /// Completed jobs that answered late.
    pub deadlines_missed: u64,
    /// Engine runs that overshot their grant past the watchdog grace.
    pub watchdog_overruns: u64,
    /// Total quota this tenant's dispatched jobs ran under — a
    /// deflated job counts its deflated quota, so this equals
    /// Σ [`JobReport::granted_quota`](super::JobReport::granted_quota).
    pub granted_ns: u64,
    /// Total engine time this tenant's jobs consumed, whatever their
    /// terminal state (late sheds and mid-run failures included; a
    /// discarded pre-deflation attempt is schedule-level waste, not
    /// tenant spend).
    pub spent_ns: u64,
    /// Σ `value × (deadline − finished_at)` in seconds over completed
    /// jobs: how much *worth-weighted* headroom the tenant's answers
    /// banked. High value-weighted slack means the tenant's important
    /// answers landed early; ~0 means they landed at the wire.
    pub value_weighted_slack_secs: f64,
    /// Block draws this tenant's jobs satisfied from a co-resident
    /// job's charged read (interleaved serving only; always 0 under
    /// the sequential oracle). Stripped by
    /// `ServerOutcome::stripped_of_schedule` for cross-mode diffs.
    pub blocks_shared: u64,
    /// Simulated I/O time those shared draws would have cost had the
    /// disk profile been charged again (the broker still charges the
    /// subscriber's own lane, so this is savings *attributable*, not
    /// savings already deducted from per-job clocks).
    pub charge_saved_ns: u64,
}

json_record!(TenantSlo {
    offered: default,
    admitted: default,
    refused: default,
    shed: default,
    failed: default,
    completed: default,
    deadlines_met: default,
    deadlines_missed: default,
    watchdog_overruns: default,
    granted_ns: default,
    spent_ns: default,
    value_weighted_slack_secs: default,
    blocks_shared: default,
    charge_saved_ns: default,
});

impl TenantSlo {
    /// Fraction of granted quota actually consumed (0 when nothing
    /// was granted). Over 1.0 means the tenant's jobs overshot their
    /// grants on aggregate.
    pub fn spend_ratio(&self) -> f64 {
        if self.granted_ns == 0 {
            return 0.0;
        }
        self.spent_ns as f64 / self.granted_ns as f64
    }
}

/// The deadline-forensics plane of one serving batch: per-tenant SLO
/// rows plus the append-only decision audit log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantLedger {
    /// Observability schema version (see
    /// [`SCHEMA_VERSION`](crate::obs::SCHEMA_VERSION)); 0 when the
    /// ledger was serialized before versioning.
    pub schema_version: u32,
    /// Per-tenant SLO counters, keyed by job name (sorted map —
    /// serialization is deterministic).
    pub tenants: BTreeMap<String, TenantSlo>,
    /// Every serving decision, in decision order.
    pub decisions: Vec<DecisionRecord>,
    /// The overrun-refit trajectory, in observation order.
    pub refits: Vec<RefitSample>,
}

json_record!(TenantLedger {
    schema_version: default,
    tenants: default,
    decisions: default,
    refits: default,
});

impl TenantLedger {
    /// The one fold. Every counter of every [`TenantSlo`] row (the
    /// sharing credits aside) and the refit trajectory are computed
    /// here, from the names of the offered jobs and the decision log —
    /// the server's own log, the `server.decision` lines of a trace,
    /// or the records a bare outcome's job reports imply.
    pub fn fold<'a>(
        offered: impl IntoIterator<Item = &'a str>,
        decisions: Vec<DecisionRecord>,
    ) -> Self {
        let mut tenants: BTreeMap<String, TenantSlo> = BTreeMap::new();
        for name in offered {
            tenants.entry(name.to_string()).or_default().offered += 1;
        }
        let mut refits = Vec::new();
        for d in &decisions {
            let slo = tenants.entry(d.job.clone()).or_default();
            let spent_ns = d.spent_ns.unwrap_or(0);
            match d.action {
                DecisionAction::Admit => slo.admitted += 1,
                DecisionAction::Refuse => slo.refused += 1,
                DecisionAction::Grant => slo.granted_ns += d.grant_ns.unwrap_or(0),
                // The take-back: the job runs (and reports) under the
                // deflated quota, not the one its grant announced.
                DecisionAction::Deflate => {
                    let before = d.grant_ns.unwrap_or(0);
                    let taken = before.saturating_sub(d.deflated_ns.unwrap_or(before));
                    slo.granted_ns = slo.granted_ns.saturating_sub(taken);
                }
                // Server-wide state: no tenant counter moves.
                DecisionAction::Refit => refits.push(RefitSample {
                    t_ns: d.t_ns,
                    job: d.job.clone(),
                    ratio: d.ratio.unwrap_or(0.0),
                    overrun: d.overrun.unwrap_or(1.0),
                }),
                DecisionAction::Watchdog => slo.watchdog_overruns += 1,
                // A shed before dispatch and a failure at admission
                // carry no `spent_ns`; a late shed and a mid-run
                // failure burned what they carry.
                DecisionAction::Shed => {
                    slo.shed += 1;
                    slo.spent_ns += spent_ns;
                }
                DecisionAction::Fail => {
                    slo.failed += 1;
                    slo.spent_ns += spent_ns;
                }
                DecisionAction::Done => {
                    slo.completed += 1;
                    slo.spent_ns += spent_ns;
                    match d.met {
                        Some(true) => slo.deadlines_met += 1,
                        _ => slo.deadlines_missed += 1,
                    }
                    let slack = Duration::from_nanos(d.slack_ns.unwrap_or(0));
                    slo.value_weighted_slack_secs += d.value.unwrap_or(0.0) * slack.as_secs_f64();
                }
            }
        }
        TenantLedger {
            schema_version: crate::obs::SCHEMA_VERSION,
            tenants,
            decisions,
            refits,
        }
    }

    /// Credits shared block draws to `tenant`: `blocks` satisfied
    /// from the broker pool, worth `saved_ns` of simulated disk time.
    /// The one counter pair that is not a fold of the decision log:
    /// sharing is mode-variant by design and must stay off the trace.
    /// No-op for the sequential oracle (both arguments 0 there).
    pub fn credit_sharing(&mut self, tenant: &str, blocks: u64, saved_ns: u64) {
        if blocks == 0 && saved_ns == 0 {
            return;
        }
        let slo = self.tenants.entry(tenant.to_string()).or_default();
        slo.blocks_shared += blocks;
        slo.charge_saved_ns += saved_ns;
    }
}

pub(super) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json;

    #[test]
    fn record_folds_into_the_tenant_row() {
        let ledger = TenantLedger::fold(
            ["a"],
            vec![
                DecisionRecord {
                    grant_ns: Some(1_000),
                    ..DecisionRecord::new(5, DecisionAction::Admit, "a")
                },
                DecisionRecord {
                    grant_ns: Some(1_000),
                    overrun: Some(1.0),
                    ..DecisionRecord::new(6, DecisionAction::Grant, "a")
                },
                DecisionRecord {
                    spent_ns: Some(900),
                    met: Some(true),
                    value: Some(2.0),
                    slack_ns: Some(3_000_000_000),
                    ..DecisionRecord::new(7, DecisionAction::Done, "a")
                },
            ],
        );
        let slo = ledger.tenants.get("a").unwrap();
        assert_eq!(slo.offered, 1);
        assert_eq!(slo.admitted, 1);
        assert_eq!(slo.completed, 1);
        assert_eq!(slo.deadlines_met, 1);
        assert_eq!(slo.deadlines_missed, 0);
        assert_eq!(slo.granted_ns, 1_000);
        assert_eq!(slo.spent_ns, 900);
        assert!((slo.spend_ratio() - 0.9).abs() < 1e-12);
        assert!((slo.value_weighted_slack_secs - 6.0).abs() < 1e-12);
        assert_eq!(ledger.decisions.len(), 3);
        assert!(ledger.refits.is_empty());
        assert_eq!(ledger.schema_version, crate::obs::SCHEMA_VERSION);
    }

    /// A deflation takes back the difference between the announced
    /// grant and the quota the job re-ran under; a late shed and a
    /// mid-run failure bank the time they burned.
    #[test]
    fn deflation_and_burned_time_reach_the_row() {
        let ledger = TenantLedger::fold(
            ["a", "b"],
            vec![
                DecisionRecord {
                    grant_ns: Some(1_000),
                    ..DecisionRecord::new(1, DecisionAction::Grant, "a")
                },
                DecisionRecord {
                    grant_ns: Some(1_000),
                    deflated_ns: Some(600),
                    discarded_ns: Some(1_400),
                    ..DecisionRecord::new(1, DecisionAction::Deflate, "a")
                },
                DecisionRecord {
                    grant_ns: Some(600),
                    spent_ns: Some(700),
                    late_ns: Some(50),
                    ..DecisionRecord::new(2, DecisionAction::Shed, "a")
                },
                DecisionRecord::new(2, DecisionAction::Shed, "b"),
                DecisionRecord {
                    grant_ns: Some(300),
                    spent_ns: Some(40),
                    ..DecisionRecord::new(3, DecisionAction::Fail, "b")
                },
            ],
        );
        let a = ledger.tenants.get("a").unwrap();
        assert_eq!((a.granted_ns, a.spent_ns, a.shed), (600, 700, 1));
        let b = ledger.tenants.get("b").unwrap();
        assert_eq!((b.spent_ns, b.shed, b.failed), (40, 1, 1));
    }

    #[test]
    fn refits_build_the_trajectory() {
        let ledger = TenantLedger::fold(
            [],
            vec![DecisionRecord {
                ratio: Some(2.0),
                overrun: Some(1.3),
                spent_ns: Some(2_000),
                grant_ns: Some(1_000),
                ..DecisionRecord::new(9, DecisionAction::Refit, "a")
            }],
        );
        assert_eq!(ledger.refits.len(), 1);
        assert_eq!(ledger.refits[0].job, "a");
        assert_eq!(ledger.refits[0].ratio, 2.0);
        assert_eq!(ledger.refits[0].overrun, 1.3);
        // Refits touch no per-tenant counter (server-wide state).
        assert_eq!(*ledger.tenants.get("a").unwrap(), TenantSlo::default());
    }

    #[test]
    fn empty_spend_ratio_is_zero_not_nan() {
        assert_eq!(TenantSlo::default().spend_ratio(), 0.0);
    }

    #[test]
    fn trace_fields_mirror_only_populated_inputs() {
        let rec = DecisionRecord {
            reason: Some(RefusalReason::Overloaded),
            slack_ns: Some(10),
            margin: Some(0.9),
            ..DecisionRecord::new(1, DecisionAction::Refuse, "j")
        };
        let fields = rec.trace_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["action", "job", "reason", "slack_ns", "margin"]);
    }

    /// `from_trace_fields` inverts `trace_fields` for a record with
    /// every field set, through the JSONL text a trace file holds.
    #[test]
    fn trace_fields_round_trip_through_a_trace_line() {
        let rec = DecisionRecord {
            t_ns: 42,
            action: DecisionAction::Deflate,
            job: "j".into(),
            reason: Some(RefusalReason::Shed),
            slack_ns: Some(1),
            grant_ns: Some(2),
            min_quota_ns: Some(3),
            projected_start_ns: Some(4),
            predicted_cost_secs: Some(0.345),
            margin: Some(0.9),
            overrun: Some(1.0),
            ratio: Some(2.5),
            spent_ns: Some(5),
            late_ns: Some(6),
            deflated_ns: Some(7),
            discarded_ns: Some(8),
            value: Some(0.5),
            met: Some(false),
            error: Some("boom".into()),
        };
        let line = json::to_string(&Json::Obj(rec.trace_fields()));
        let fields: BTreeMap<String, Json> = json::from_str(&line).unwrap();
        assert_eq!(DecisionRecord::from_trace_fields(42, &fields), Ok(rec));
        // A payload without an action is refused, not defaulted.
        let mut broken = fields;
        broken.remove("action");
        assert!(DecisionRecord::from_trace_fields(0, &broken).is_err());
    }

    #[test]
    fn ledger_json_round_trips_byte_identically() {
        let ledger = TenantLedger::fold(
            ["t1"],
            vec![
                DecisionRecord {
                    grant_ns: Some(77),
                    slack_ns: Some(100),
                    min_quota_ns: Some(5),
                    margin: Some(0.9),
                    overrun: Some(1.0),
                    predicted_cost_secs: Some(0.345),
                    projected_start_ns: Some(0),
                    ..DecisionRecord::new(3, DecisionAction::Admit, "t1")
                },
                DecisionRecord {
                    ratio: Some(1.5),
                    overrun: Some(1.15),
                    ..DecisionRecord::new(4, DecisionAction::Refit, "t1")
                },
            ],
        );
        let json = json::to_string(&ledger);
        let back: TenantLedger = json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(json::to_string(&back), json);
        // Unset inputs stay off the wire entirely.
        assert!(!json.contains("\"error\""));
        assert!(!json.contains("\"met\""));
        assert!(!json.contains("\"late_ns\""));
    }

    #[test]
    fn pre_ledger_outcome_fields_default() {
        // A ledger serialized by an older writer that knew fewer
        // fields still deserializes.
        let old = r#"{"tenants":{"a":{"offered":2}}}"#;
        let ledger: TenantLedger = json::from_str(old).unwrap();
        assert_eq!(ledger.schema_version, 0);
        assert_eq!(ledger.tenants.get("a").unwrap().offered, 2);
        assert!(ledger.decisions.is_empty());
    }
}
