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
//!   grant (with its deflation factor), overrun refit, shedding, and
//!   watchdog trips — each carrying the *inputs* the decision was made
//!   from (predicted cost, slack, margin, overrun factor), so a
//!   postmortem can replay the reasoning, not just the verdict.
//!
//! The ledger is **pure observation**: building it draws no blocks,
//! charges no clock time, and consumes no RNG. It rides
//! [`ServerOutcome`](super::ServerOutcome) behind an `Option` that
//! may be absent, so outcome JSON from before the ledger existed
//! loads unchanged and a ledger-free outcome serializes
//! byte-identically to the pre-ledger wire form (schema v1 is
//! preserved — see [`crate::obs::SCHEMA_VERSION`]). Each decision is
//! also mirrored as a `server.decision` trace event when a recording
//! [`Tracer`](crate::obs::Tracer) is attached, interleaved with the
//! engine spans on the shared clock.

use std::collections::BTreeMap;
use std::time::Duration;

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
    /// The job was granted its execution quota. When `overrun > 1`
    /// the grant was *deflated* by the refit factor — the record is
    /// the audit trail of exactly how much was taken back and why.
    Grant,
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
    Refit = "refit",
    Shed = "shed",
    Watchdog = "watchdog",
    Done = "done",
});

impl DecisionAction {
    /// Stable lowercase label (the JSON wire form).
    pub fn as_str(&self) -> &'static str {
        match self {
            DecisionAction::Admit => "admit",
            DecisionAction::Refuse => "refuse",
            DecisionAction::Fail => "fail",
            DecisionAction::Grant => "grant",
            DecisionAction::Refit => "refit",
            DecisionAction::Shed => "shed",
            DecisionAction::Watchdog => "watchdog",
            DecisionAction::Done => "done",
        }
    }
}

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
    /// Time the job actually consumed (refit/watchdog/done records).
    pub spent_ns: Option<u64>,
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

    /// The record's populated fields as trace-event payload, in the
    /// struct's (fixed) field order — the `server.decision` event
    /// mirrors the audit-log entry exactly.
    pub fn trace_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("action", Json::from(self.action.as_str())),
            ("job", Json::from(self.job.clone())),
        ];
        if let Some(reason) = self.reason {
            fields.push(("reason", Json::from(reason.as_str())));
        }
        let u64s: [(&'static str, Option<u64>); 5] = [
            ("slack_ns", self.slack_ns),
            ("grant_ns", self.grant_ns),
            ("min_quota_ns", self.min_quota_ns),
            ("projected_start_ns", self.projected_start_ns),
            ("spent_ns", self.spent_ns),
        ];
        for (name, v) in u64s {
            if let Some(v) = v {
                fields.push((name, Json::from(v)));
            }
        }
        let f64s: [(&'static str, Option<f64>); 5] = [
            ("predicted_cost_secs", self.predicted_cost_secs),
            ("margin", self.margin),
            ("overrun", self.overrun),
            ("ratio", self.ratio),
            ("value", self.value),
        ];
        for (name, v) in f64s {
            if let Some(v) = v {
                fields.push((name, Json::from(v)));
            }
        }
        if let Some(met) = self.met {
            fields.push(("met", Json::from(met)));
        }
        if let Some(error) = &self.error {
            fields.push(("error", Json::from(error.clone())));
        }
        fields
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

/// Per-tenant service-level counters, aggregated from the session
/// clock as the batch runs.
///
/// Invariants (locked by unit tests): `offered = admitted + refused +
/// failed-at-admission`, `admitted = completed + shed +
/// failed-mid-run`, `completed = deadlines_met + deadlines_missed`.
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
    /// Total quota granted across this tenant's jobs.
    pub granted_ns: u64,
    /// Total engine time this tenant's jobs actually consumed.
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
    /// An empty ledger at the current schema version.
    pub fn new() -> Self {
        TenantLedger {
            schema_version: crate::obs::SCHEMA_VERSION,
            ..TenantLedger::default()
        }
    }

    /// The named tenant's SLO row, creating it zeroed.
    pub fn tenant(&mut self, name: &str) -> &mut TenantSlo {
        self.tenants.entry(name.to_string()).or_default()
    }

    /// Appends a decision to the audit log and folds it into the
    /// tenant's SLO counters.
    pub fn record(&mut self, decision: DecisionRecord) {
        {
            let slo = self.tenant(&decision.job.clone());
            match decision.action {
                DecisionAction::Admit => slo.admitted += 1,
                DecisionAction::Refuse => slo.refused += 1,
                DecisionAction::Fail => slo.failed += 1,
                DecisionAction::Grant => slo.granted_ns += decision.grant_ns.unwrap_or(0),
                DecisionAction::Refit => {}
                DecisionAction::Shed => slo.shed += 1,
                DecisionAction::Watchdog => slo.watchdog_overruns += 1,
                DecisionAction::Done => {
                    slo.completed += 1;
                    slo.spent_ns += decision.spent_ns.unwrap_or(0);
                    match decision.met {
                        Some(true) => slo.deadlines_met += 1,
                        _ => slo.deadlines_missed += 1,
                    }
                }
            }
        }
        if decision.action == DecisionAction::Refit {
            self.refits.push(RefitSample {
                t_ns: decision.t_ns,
                job: decision.job.clone(),
                ratio: decision.ratio.unwrap_or(0.0),
                overrun: decision.overrun.unwrap_or(1.0),
            });
        }
        self.decisions.push(decision);
    }

    /// Marks one offered job for `tenant` (admission outcome recorded
    /// separately via [`record`](Self::record)).
    pub fn offer(&mut self, tenant: &str) {
        self.tenant(tenant).offered += 1;
    }

    /// Adds engine time consumed by a failed (mid-run) job so
    /// granted-vs-spent stays honest for tenants that error out.
    pub fn spend(&mut self, tenant: &str, spent: Duration) {
        self.tenant(tenant).spent_ns += duration_ns(spent);
    }

    /// Banks completed-job slack, weighted by the job's shedding
    /// value.
    pub fn bank_slack(&mut self, tenant: &str, value: f64, slack: Duration) {
        self.tenant(tenant).value_weighted_slack_secs += value * slack.as_secs_f64();
    }

    /// Credits shared block draws to `tenant`: `blocks` satisfied
    /// from the broker pool, worth `saved_ns` of simulated disk time.
    /// No-op for the sequential oracle (both arguments 0 there).
    pub fn credit_sharing(&mut self, tenant: &str, blocks: u64, saved_ns: u64) {
        if blocks == 0 && saved_ns == 0 {
            return;
        }
        let slo = self.tenant(tenant);
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
        let mut ledger = TenantLedger::new();
        ledger.offer("a");
        ledger.record(DecisionRecord {
            grant_ns: Some(1_000),
            ..DecisionRecord::new(5, DecisionAction::Admit, "a")
        });
        ledger.record(DecisionRecord {
            grant_ns: Some(1_000),
            overrun: Some(1.0),
            ..DecisionRecord::new(6, DecisionAction::Grant, "a")
        });
        ledger.record(DecisionRecord {
            spent_ns: Some(900),
            met: Some(true),
            ..DecisionRecord::new(7, DecisionAction::Done, "a")
        });
        ledger.bank_slack("a", 2.0, Duration::from_secs(3));
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
    }

    #[test]
    fn refits_build_the_trajectory() {
        let mut ledger = TenantLedger::new();
        ledger.record(DecisionRecord {
            ratio: Some(2.0),
            overrun: Some(1.3),
            spent_ns: Some(2_000),
            grant_ns: Some(1_000),
            ..DecisionRecord::new(9, DecisionAction::Refit, "a")
        });
        assert_eq!(ledger.refits.len(), 1);
        assert_eq!(ledger.refits[0].job, "a");
        assert_eq!(ledger.refits[0].ratio, 2.0);
        assert_eq!(ledger.refits[0].overrun, 1.3);
        // Refits touch no per-tenant counter (server-wide state).
        assert_eq!(*ledger.tenants.get("a").unwrap(), { TenantSlo::default() });
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
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["action", "job", "reason", "slack_ns", "margin"]);
    }

    #[test]
    fn ledger_json_round_trips_byte_identically() {
        let mut ledger = TenantLedger::new();
        ledger.offer("t1");
        ledger.record(DecisionRecord {
            grant_ns: Some(77),
            slack_ns: Some(100),
            min_quota_ns: Some(5),
            margin: Some(0.9),
            overrun: Some(1.0),
            predicted_cost_secs: Some(0.345),
            projected_start_ns: Some(0),
            ..DecisionRecord::new(3, DecisionAction::Admit, "t1")
        });
        ledger.record(DecisionRecord {
            ratio: Some(1.5),
            overrun: Some(1.15),
            ..DecisionRecord::new(4, DecisionAction::Refit, "t1")
        });
        let json = json::to_string(&ledger);
        let back: TenantLedger = json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(json::to_string(&back), json);
        // Unset inputs stay off the wire entirely.
        assert!(!json.contains("\"error\""));
        assert!(!json.contains("\"met\""));
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
