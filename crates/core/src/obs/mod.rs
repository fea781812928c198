//! Observability: clock-charged tracing, a run's storage counters,
//! and phase profiling.
//!
//! The paper's stage loop (Figure 3.1) is an adaptive control loop —
//! revise selectivities, size the sample, draw blocks, evaluate, check
//! the stopping criterion — and control loops are impossible to tune
//! blind. This module provides the measurement substrate:
//!
//! * [`Tracer`] — a lightweight span/event recorder timestamped from
//!   the session [`Clock`](eram_storage::Clock), so simulated and wall
//!   runs share one trace format. Because `SimClock` is deterministic,
//!   a trace of a seeded run is **bit-deterministic**: same seed, same
//!   bytes, which turns traces into testable artifacts (see
//!   `tests/observability.rs` and the committed golden trace).
//! * [`MetricsSnapshot`] — the storage counters a run moved (blocks
//!   read, cache hits, faults, checksum verifies): the run's delta of
//!   the disk view's one [`DiskStats`](eram_storage::DiskStats)
//!   account, attached to [`ExecutionReport`](crate::ExecutionReport),
//!   which already holds the stages, estimates and health.
//! * [`Profiler`] — RAII phase timers over a fixed taxonomy (see
//!   [`Phase`]) recording both the simulated-clock charge and the
//!   real wall-clock nanoseconds per phase, aggregated per stage and
//!   per operator into a [`ProfileSnapshot`] riding
//!   [`ExecutionReport`](crate::ExecutionReport). Profiling is pure
//!   observation: seeded results are byte-identical with it on or
//!   off.
//!
//! The layer is zero-cost when disabled: a disabled [`Tracer`] or
//! [`Profiler`] is a `None` behind a cheap clone, so every emission
//! site is a single branch (its measured cost is the benchmark's
//! `core.obs.{tracer,profiler}_overhead_pct`).
//!
//! # Span taxonomy
//!
//! | record | kind | scope |
//! |---|---|---|
//! | `execute` | span | the whole query, from deadline arm to report |
//! | `stage` | span | one stage; duration == `StageReport::actual_cost` |
//! | `block_draw` | span | one operator's block draw + read loop |
//! | `revise_selectivities` | event | per-stage revised selectivities |
//! | `plan_stage` | event | the (uncharged) sampling-plan decision |
//! | `retry` | event | one charged retry backoff (attempt, backoff_ns) |
//! | `block_lost` | event | a cluster dropped from the sample |
//! | `stopping_check` | event | exactly one per executed stage |
//! | `stop` | event | exactly one per run, with the loop-exit reason |
//! | `convergence` | stage | per-stage estimate / CI / time trajectory |
//! | `group_convergence` | stage | per-stage GROUP BY freeze state |
//! | `server.decision` | event | the server's one record kind: one per serving decision, its `action` one of `admit`, `refuse`, `fail`, `grant`, `deflate`, `refit`, `shed`, `watchdog`, `done`, with the inputs it was made from (see [`DecisionRecord`](crate::server::DecisionRecord)) |
//!
//! The JSONL schema is documented in `DESIGN.md` §"Observability";
//! the decision audit and per-tenant SLO ledger in `DESIGN.md` §5j.

mod metrics;
mod profiler;
mod tracer;

/// Version stamped on every observability artifact this layer emits:
/// the JSONL trace header, [`MetricsSnapshot`], [`ProfileSnapshot`],
/// [`ExecutionReport`](crate::ExecutionReport) JSON, the server's
/// [`ServerOutcome`](crate::server::ServerOutcome) JSON, and the
/// bench suite's `BENCH_*.json` files. Bump it whenever any of those
/// schemas changes shape. Additive extensions — new event names, new
/// optional fields that default when absent — do not bump it, and
/// neither do removed fields a v1 reader defaults when absent (readers
/// ignore unknown fields): the serving layer's `server.decision` trace
/// event, the outcome's `ledger`, and the optional `refusal` field on
/// [`ReportHealth`](crate::ReportHealth) all ride schema v1.
pub const SCHEMA_VERSION: u32 = 1;

pub use metrics::MetricsSnapshot;
pub use profiler::{
    OperatorGuard, Phase, PhaseGuard, PhaseStats, PhaseTotals, ProfileSnapshot, Profiler,
    ENGINE_OPERATOR,
};
pub use tracer::{SpanGuard, TraceKind, TraceRecord, Tracer};

/// `d` in whole nanoseconds, saturating at `u64::MAX` (about 584
/// years): how every observability record stamps a clock reading.
pub(crate) fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
