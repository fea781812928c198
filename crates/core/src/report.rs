//! Execution reports: what the stage loop did with the quota.
//!
//! These are the quantities Section 5 of the paper tabulates per
//! experiment: number of stages completed, risk of overspending,
//! overspent time ("ovsp"), quota utilization, and disk blocks
//! evaluated.

use std::time::Duration;

use eram_sampling::CountEstimate;
use eram_storage::{json_record, json_unit_enum};

use crate::obs::{MetricsSnapshot, ProfileSnapshot};

/// What one stage of the loop did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// 1-based stage number.
    pub stage: usize,
    /// Sample fraction `fᵢ` the strategy chose.
    pub fraction: f64,
    /// Stage cost the strategy predicted.
    pub predicted_cost: Duration,
    /// Stage cost actually charged.
    pub actual_cost: Duration,
    /// New disk blocks drawn this stage (summed over operand
    /// relations and terms).
    pub blocks_drawn: u64,
    /// True if the stage finished before the quota expired. An
    /// unfinished stage is *aborted* under a hard constraint and its
    /// time is wasted.
    pub within_quota: bool,
    /// The running estimate after this stage.
    pub estimate: CountEstimate,
}

json_record!(StageReport {
    stage: required,
    fraction: required,
    predicted_cost: required,
    actual_cost: required,
    blocks_drawn: required,
    within_quota: required,
    estimate: required,
});

/// Why an admission-controlled job was denied an answer.
///
/// The server (see [`crate::server`]) never lets a job silently blow
/// its deadline: a job that gets no estimate carries exactly one of
/// these so the caller can tell "your request was impossible" from
/// "the system was busy" from "a fault storm forced triage".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The job could not meet its minimum quota even on an idle
    /// server: its own deadline (times the scheduling margin) or the
    /// QCOST floor of its expression is already past the minimum.
    /// Resubmitting under load changes nothing.
    Infeasible,
    /// The job is feasible in isolation but the admitted load leaves
    /// it less than its minimum quota. Resubmitting later may
    /// succeed.
    Overloaded,
    /// The job was admitted but evicted mid-batch when observed costs
    /// inflated past the admission-time predictions (fault storms,
    /// overruns) and keeping it would have cascaded deadline misses.
    Shed,
}

json_unit_enum!(RefusalReason {
    Infeasible = "infeasible",
    Overloaded = "overloaded",
    Shed = "shed",
});

impl RefusalReason {
    /// Stable lowercase label (the JSON wire form).
    pub fn as_str(&self) -> &'static str {
        match self {
            RefusalReason::Infeasible => "infeasible",
            RefusalReason::Overloaded => "overloaded",
            RefusalReason::Shed => "shed",
        }
    }
}

impl std::fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fault-tolerance accounting for one execution: what went wrong at
/// the storage layer and how the engine absorbed it.
///
/// Under cluster sampling a lost block is a dropped cluster: the
/// estimator renormalizes over the clusters actually read, so the
/// answer stays unbiased but its variance grows. `degraded` flags
/// exactly that situation so callers can tell a clean estimate from
/// one delivered despite data loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportHealth {
    /// Storage faults observed (transient errors and checksum
    /// mismatches), counted per failed read attempt.
    pub faults_seen: u64,
    /// Retries issued by the retry policy; each one charged its
    /// backoff to the query clock.
    pub retries: u64,
    /// Blocks abandoned after corruption or retry exhaustion. Each is
    /// a cluster dropped from the sample.
    pub blocks_lost: u64,
    /// True iff `blocks_lost > 0`: the estimate was delivered over a
    /// reduced sample.
    pub degraded: bool,
    /// Set when admission control denied the job an answer (refused
    /// at admission or shed mid-batch); `None` for every executed
    /// query, and then left off the wire, so report JSON for executed
    /// queries is byte-identical to pre-refusal writers'.
    pub refusal: Option<RefusalReason>,
}

json_record!(ReportHealth {
    faults_seen: default,
    retries: default,
    blocks_lost: default,
    degraded: default,
    refusal: omit_empty,
});

impl ReportHealth {
    /// The health object of a job that was never run: clean counters
    /// plus the structured reason it got no answer.
    pub fn refused(reason: RefusalReason) -> Self {
        ReportHealth {
            refusal: Some(reason),
            ..ReportHealth::default()
        }
    }
}

/// One group's answer in a GROUP BY execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupReport {
    /// The group key (the Int value of the grouping column).
    pub key: i64,
    /// The group's aggregate estimate with its CI support.
    pub estimate: CountEstimate,
    /// Qualifying tuples of this group inspected by the sample.
    pub tuples_seen: u64,
    /// Stage at which the group's CI converged and it stopped
    /// drawing (freeing quota for looser groups), if it did.
    pub converged_at_stage: Option<usize>,
    /// True when the estimate is exact: the run completed its census
    /// with this group still live, so every qualifying tuple was
    /// seen (the small-group fallback).
    pub exact: bool,
}

json_record!(GroupReport {
    key: required,
    estimate: required,
    tuples_seen: required,
    converged_at_stage: omit_empty,
    exact: default,
});

/// A complete account of one time-constrained query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Observability schema version (see
    /// [`SCHEMA_VERSION`](crate::obs::SCHEMA_VERSION)); 0 when the
    /// report was serialized before versioning.
    pub schema_version: u32,
    /// The time quota `T`.
    pub quota: Duration,
    /// Per-stage details, in execution order (including an
    /// overrunning final stage, if any).
    pub stages: Vec<StageReport>,
    /// Total time consumed by the loop (may exceed `quota` under a
    /// soft constraint).
    pub total_elapsed: Duration,
    /// The estimate a *hard*-deadline caller receives: the one from
    /// the last stage that finished within the quota.
    pub final_estimate: CountEstimate,
    /// Per-group answers for GROUP BY aggregates, in key order (taken
    /// at the same completed stage as `final_estimate` under a hard
    /// deadline). Empty for scalar aggregates, and then left off the
    /// wire, which keeps non-grouped report JSON byte-identical.
    pub groups: Vec<GroupReport>,
    /// Fault-tolerance accounting; absent in reports serialized
    /// before this field existed, which load with the default.
    pub health: ReportHealth,
    /// Counters/histograms collected during the run, when metrics
    /// collection was requested. `None` serializes to nothing, so
    /// metrics-free reports keep their pre-existing JSON shape.
    pub metrics: Option<MetricsSnapshot>,
    /// Per-phase timing breakdown, when a recording
    /// [`Profiler`](crate::obs::Profiler) was attached. The `sim_ns`
    /// columns are seed-deterministic; the `wall_*` columns are host
    /// measurements. `None` serializes to nothing.
    pub profile: Option<ProfileSnapshot>,
}

json_record!(ExecutionReport {
    schema_version: default,
    quota: required,
    stages: required,
    total_elapsed: required,
    final_estimate: required,
    groups: omit_empty,
    health: default,
    metrics: omit_empty,
    profile: omit_empty,
});

impl ExecutionReport {
    /// Stages completed within the quota — the paper's "stages"
    /// column.
    pub fn completed_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.within_quota).count()
    }

    /// True if any stage ran past the quota — the per-run event whose
    /// frequency across runs is the paper's "risk" column.
    pub fn overspent(&self) -> bool {
        self.stages.iter().any(|s| !s.within_quota)
    }

    /// Time needed beyond the quota to complete the overrunning stage
    /// — the paper's "ovsp" (zero if no stage overran).
    pub fn overspend(&self) -> Duration {
        self.total_elapsed.saturating_sub(self.quota)
    }

    /// Time spent in stages that finished within the quota.
    pub fn useful_time(&self) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.within_quota)
            .map(|s| s.actual_cost)
            .sum()
    }

    /// Fraction of the quota spent "successfully" (in completed
    /// stages) — the paper's "utilization" column. The rest of the
    /// quota is wasted: either an aborted final stage or a leftover
    /// too small to start another stage.
    pub fn utilization(&self) -> f64 {
        if self.quota.is_zero() {
            return 0.0;
        }
        (self.useful_time().as_secs_f64() / self.quota.as_secs_f64()).min(1.0)
    }

    /// Quota time that produced nothing: aborted-stage time plus the
    /// unusable leftover.
    pub fn wasted(&self) -> Duration {
        let useful = self.useful_time();
        self.quota.saturating_sub(useful)
    }

    /// Disk blocks evaluated in completed stages — the paper's
    /// "blocks" column (the overall sample size actually banked).
    pub fn blocks_evaluated(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.within_quota)
            .map(|s| s.blocks_drawn)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::json::{self, FromJson, ToJson};

    fn est(v: f64) -> CountEstimate {
        CountEstimate {
            estimate: v,
            variance: 1.0,
            points_sampled: 10.0,
            total_points: 100.0,
        }
    }

    fn stage(n: usize, secs: f64, blocks: u64, ok: bool) -> StageReport {
        StageReport {
            stage: n,
            fraction: 0.01,
            predicted_cost: Duration::from_secs_f64(secs),
            actual_cost: Duration::from_secs_f64(secs),
            blocks_drawn: blocks,
            within_quota: ok,
            estimate: est(42.0),
        }
    }

    #[test]
    fn clean_run_accounting() {
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(10),
            stages: vec![stage(1, 4.0, 30, true), stage(2, 5.0, 40, true)],
            total_elapsed: Duration::from_secs_f64(9.0),
            final_estimate: est(42.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.completed_stages(), 2);
        assert!(!r.overspent());
        assert_eq!(r.overspend(), Duration::ZERO);
        assert!((r.utilization() - 0.9).abs() < 1e-12);
        assert_eq!(r.wasted(), Duration::from_secs(1));
        assert_eq!(r.blocks_evaluated(), 70);
    }

    #[test]
    fn overspent_run_accounting() {
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(10),
            stages: vec![stage(1, 6.0, 30, true), stage(2, 5.0, 40, false)],
            total_elapsed: Duration::from_secs(11),
            final_estimate: est(42.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.completed_stages(), 1);
        assert!(r.overspent());
        assert_eq!(r.overspend(), Duration::from_secs(1));
        // Only stage 1 counts as useful; stage 2 would be aborted.
        assert!((r.utilization() - 0.6).abs() < 1e-12);
        assert_eq!(r.wasted(), Duration::from_secs(4));
        assert_eq!(r.blocks_evaluated(), 30);
    }

    #[test]
    fn zero_quota_is_degenerate() {
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::ZERO,
            stages: vec![],
            total_elapsed: Duration::ZERO,
            final_estimate: est(0.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.utilization(), 0.0, "0/0 must not be NaN");
        assert_eq!(r.completed_stages(), 0);
        assert_eq!(r.useful_time(), Duration::ZERO);
        assert_eq!(r.wasted(), Duration::ZERO);
        assert_eq!(r.overspend(), Duration::ZERO);
        assert!(!r.overspent());
        assert_eq!(r.blocks_evaluated(), 0);
    }

    #[test]
    fn refused_job_report_shape() {
        // A scheduler-refused job is granted a zero quota and never
        // enters the stage loop; every derived accessor must stay
        // finite and zero rather than dividing by the empty quota.
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::ZERO,
            stages: vec![],
            total_elapsed: Duration::from_millis(3), // admission overhead
            final_estimate: est(0.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.utilization(), 0.0);
        assert!(r.utilization().is_finite());
        assert_eq!(r.useful_time(), Duration::ZERO);
        assert_eq!(r.wasted(), Duration::ZERO, "no quota to waste");
        // Any elapsed time beyond the (zero) quota counts as overspend.
        assert_eq!(r.overspend(), Duration::from_millis(3));
    }

    #[test]
    fn zero_completed_stages_waste_the_whole_quota() {
        // One stage started and was aborted at the deadline: nothing
        // banked, the entire quota wasted, overspend measured past it.
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(10),
            stages: vec![stage(1, 12.0, 80, false)],
            total_elapsed: Duration::from_secs(12),
            final_estimate: est(0.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.completed_stages(), 0);
        assert!(r.overspent());
        assert_eq!(r.useful_time(), Duration::ZERO);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.wasted(), Duration::from_secs(10));
        assert_eq!(r.overspend(), Duration::from_secs(2));
        assert_eq!(r.blocks_evaluated(), 0, "aborted stages bank nothing");
    }

    #[test]
    fn utilization_saturates_at_one() {
        // Rounding can make useful time exceed the quota by a hair;
        // the ratio is clamped so the paper's column stays in [0, 1].
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(10),
            stages: vec![stage(1, 10.5, 30, true)],
            total_elapsed: Duration::from_secs_f64(10.5),
            final_estimate: est(42.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        assert_eq!(r.utilization(), 1.0);
        assert_eq!(r.wasted(), Duration::ZERO);
        assert_eq!(r.overspend(), Duration::from_secs_f64(0.5));
    }

    #[test]
    fn health_defaults_when_absent_from_json() {
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(2),
            stages: vec![],
            total_elapsed: Duration::from_secs(1),
            final_estimate: est(1.0),
            groups: vec![],
            health: ReportHealth {
                faults_seen: 3,
                retries: 2,
                blocks_lost: 1,
                degraded: true,
                refusal: None,
            },
            metrics: None,
            profile: None,
        };
        let mut json = r.to_json();
        // Simulate a report written before the health field existed.
        json.remove("health");
        let back = ExecutionReport::from_json(&json).unwrap();
        assert_eq!(back.health, ReportHealth::default());
    }

    #[test]
    fn report_serializes() {
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(2),
            stages: vec![stage(1, 1.0, 5, true)],
            total_elapsed: Duration::from_secs(1),
            final_estimate: est(1.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: None,
        };
        let json = json::to_string(&r);
        // `None` metrics stay out of the wire format entirely.
        assert!(!json.contains("metrics"));
        let back: ExecutionReport = json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn refusal_rides_health_and_stays_off_the_wire_when_none() {
        // Executed queries keep their pre-refusal JSON shape…
        let clean = ReportHealth::default();
        let json = json::to_string(&clean);
        assert!(!json.contains("refusal"), "{json}");
        // …while a denied job carries the structured reason.
        let refused = ReportHealth::refused(RefusalReason::Overloaded);
        let json = json::to_string(&refused);
        assert!(json.contains(r#""refusal":"overloaded""#), "{json}");
        let back: ReportHealth = json::from_str(&json).unwrap();
        assert_eq!(back, refused);
        assert_eq!(RefusalReason::Shed.to_string(), "shed");
        assert_eq!(RefusalReason::Infeasible.as_str(), "infeasible");
    }

    #[test]
    fn health_fields_default_individually() {
        // A partially-populated health object (e.g. from an older
        // writer that knew fewer fields) fills the rest with defaults
        // instead of rejecting the document.
        let h: ReportHealth = json::from_str(r#"{"faults_seen": 3}"#).unwrap();
        assert_eq!(
            h,
            ReportHealth {
                faults_seen: 3,
                ..ReportHealth::default()
            }
        );
    }

    #[test]
    fn schema_version_defaults_for_old_reports_and_profile_rides() {
        let mut json = ExecutionReport {
            schema_version: crate::obs::SCHEMA_VERSION,
            quota: Duration::from_secs(2),
            stages: vec![],
            total_elapsed: Duration::from_secs(1),
            final_estimate: est(1.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: None,
            profile: Some(ProfileSnapshot::default()),
        }
        .to_json();
        assert_eq!(
            json["schema_version"].as_u64(),
            Some(crate::obs::SCHEMA_VERSION.into())
        );
        assert!(json.get("profile").is_some());
        // A report written before versioning existed.
        json.remove("schema_version");
        json.remove("profile");
        let back = ExecutionReport::from_json(&json).unwrap();
        assert_eq!(back.schema_version, 0);
        assert!(back.profile.is_none());
    }

    #[test]
    fn metrics_snapshot_rides_the_report_round_trip() {
        let mut reg = crate::obs::MetricsRegistry::new();
        reg.add("core.stages", 2);
        reg.observe("stage.fraction", 0.25);
        let r = ExecutionReport {
            schema_version: 0,
            quota: Duration::from_secs(2),
            stages: vec![],
            total_elapsed: Duration::from_secs(1),
            final_estimate: est(1.0),
            groups: vec![],
            health: ReportHealth::default(),
            metrics: Some(reg.snapshot()),
            profile: None,
        };
        let json = json::to_string(&r);
        let back: ExecutionReport = json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metrics.unwrap().counter("core.stages"), 2);
    }
}
