//! The clock-charged trace recorder.
//!
//! A [`Tracer`] is either **disabled** (the default — a `None`, so
//! every emission site costs one branch and no allocation) or
//! **recording**, in which case it appends [`TraceRecord`]s to a
//! shared buffer, timestamped from the session
//! [`Clock`](eram_storage::Clock). With a `SimClock` the timestamps
//! are the *charged* virtual nanoseconds, so a seeded run always
//! produces byte-identical JSONL.

use std::collections::BTreeMap;
use std::sync::Arc;

use eram_storage::{json, json_record, json_unit_enum, Clock, Json, Mutex};

use super::duration_ns;

/// What a [`TraceRecord`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (matched by a later `End` with the same name).
    Begin,
    /// A span closed; `dur_ns` carries the charged duration.
    End,
    /// A point-in-time event.
    Event,
    /// A per-stage summary record (the convergence trajectory).
    Stage,
}

json_unit_enum!(TraceKind {
    Begin = "begin",
    End = "end",
    Event = "event",
    Stage = "stage",
});

/// One line of a JSONL trace.
///
/// Field order is fixed by this struct and map keys are sorted
/// (`BTreeMap`), so serialization is byte-deterministic. Non-finite
/// floats must be inserted via [`Json::from`], which maps them to
/// `null` (raw non-finite `f64`s are unserializable in JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Clock-charged timestamp: nanoseconds of session-clock elapsed
    /// time at emission.
    pub t_ns: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// Span/event name (see the module-level span taxonomy).
    pub name: String,
    /// Stage number the record belongs to (0 before the first stage).
    pub stage: usize,
    /// Charged span duration — `End` records only.
    pub dur_ns: Option<u64>,
    /// Free-form payload, sorted by key.
    pub fields: BTreeMap<String, Json>,
}

json_record!(TraceRecord {
    t_ns: required,
    kind: required,
    name: required,
    stage: required,
    dur_ns: omit_empty,
    fields: omit_empty,
});

#[derive(Default)]
struct TraceState {
    records: Vec<TraceRecord>,
    stage: usize,
}

struct TracerInner {
    clock: Arc<dyn Clock>,
    state: Mutex<TraceState>,
}

/// A cheap-to-clone handle to a (possibly disabled) trace buffer.
///
/// Clones share the buffer; `Tracer::default()` is disabled. Every
/// emission method returns immediately when disabled, *before*
/// evaluating its field closure, so tracing has no cost on the hot
/// path unless it was explicitly turned on.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => write!(
                f,
                "Tracer(recording, {} records)",
                inner.state.lock().records.len()
            ),
        }
    }
}

impl Tracer {
    /// The no-op tracer: records nothing, costs one branch per site.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer timestamped from `clock` — pass the same
    /// clock the query's deadline runs on (`db.disk().clock()`).
    pub fn recording(clock: Arc<dyn Clock>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                state: Mutex::new(TraceState::default()),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the current stage number; stage indices never decrease
    /// (later `set_stage` calls with a smaller value are ignored), so
    /// a well-formed trace has monotone stage fields.
    pub fn set_stage(&self, stage: usize) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            state.stage = state.stage.max(stage);
        }
    }

    /// Emits a point-in-time event. The field closure only runs when
    /// recording, so building the payload is free when disabled.
    pub fn event<K, F>(&self, name: &'static str, fields: F)
    where
        K: Into<String>,
        F: FnOnce() -> Vec<(K, Json)>,
    {
        self.emit(TraceKind::Event, None, name, fields);
    }

    /// Emits a point-in-time event stamped `t_ns` instead of the
    /// clock's current reading: for a caller that decides on a
    /// timeline of its own (the server's virtual batch timeline) and
    /// must not stamp its decisions with the moment it reports them.
    /// The buffer keeps emission order, so a stamp the caller chose
    /// can precede a record already in it (under a wall clock, a
    /// server decision precedes its lane's last records by the
    /// server's own overhead); no reader orders records by stamp.
    pub fn event_at<K, F>(&self, t_ns: u64, name: &'static str, fields: F)
    where
        K: Into<String>,
        F: FnOnce() -> Vec<(K, Json)>,
    {
        self.emit(TraceKind::Event, Some(t_ns), name, fields);
    }

    /// Emits a per-stage summary record (kind `stage`), used for the
    /// convergence trajectory.
    pub fn stage_record<F>(&self, name: &'static str, fields: F)
    where
        F: FnOnce() -> Vec<(&'static str, Json)>,
    {
        self.emit(TraceKind::Stage, None, name, fields);
    }

    /// Splices pre-recorded records (a per-job lane trace, stamped
    /// from the lane's own clock starting at zero) into this buffer,
    /// shifting every timestamp by `offset_ns` onto this tracer's
    /// timeline. Stage fields are kept as recorded — the per-lane
    /// stage counter, not this buffer's — and this buffer's own stage
    /// counter is left untouched.
    pub fn absorb(&self, records: Vec<TraceRecord>, offset_ns: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            state.records.extend(records.into_iter().map(|mut r| {
                r.t_ns = r.t_ns.saturating_add(offset_ns);
                r
            }));
        }
    }

    /// Pushes one record stamped `at`, or the clock's reading if `None`.
    fn emit<K, F>(&self, kind: TraceKind, at: Option<u64>, name: &'static str, fields: F)
    where
        K: Into<String>,
        F: FnOnce() -> Vec<(K, Json)>,
    {
        if let Some(inner) = &self.inner {
            let t_ns = at.unwrap_or_else(|| duration_ns(inner.clock.elapsed()));
            let fields = fields().into_iter().map(|(k, v)| (k.into(), v)).collect();
            let mut state = inner.state.lock();
            let stage = state.stage;
            state.records.push(TraceRecord {
                t_ns,
                kind,
                name: name.to_string(),
                stage,
                dur_ns: None,
                fields,
            });
        }
    }

    /// Opens a span: pushes a `Begin` record now and an `End` record
    /// (with the charged duration) when the returned guard drops.
    /// Guards nest lexically, so spans are properly nested by
    /// construction. The `Begin` record carries the stage at open
    /// time, the `End` record the stage at close time, which keeps
    /// stage indices monotone across the whole record sequence.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let mut start_ns = 0;
        if let Some(inner) = &self.inner {
            start_ns = duration_ns(inner.clock.elapsed());
            let mut state = inner.state.lock();
            let stage = state.stage;
            state.records.push(TraceRecord {
                t_ns: start_ns,
                kind: TraceKind::Begin,
                name: name.to_string(),
                stage,
                dur_ns: None,
                fields: BTreeMap::new(),
            });
        }
        SpanGuard {
            tracer: self.clone(),
            name,
            start_ns,
        }
    }

    /// Number of records captured so far (0 when disabled).
    pub fn record_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.state.lock().records.len())
    }

    /// A copy of the records captured so far (empty when disabled).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.state.lock().records.clone())
    }

    /// Serializes the trace as JSONL: a schema-version header line
    /// (`{"schema_version":N}` — not a [`TraceRecord`]; consumers
    /// parsing records must skip it) followed by one record per line,
    /// each line a JSON object, trailing newline. Byte-deterministic
    /// for a given record sequence (fixed field order, sorted map
    /// keys). A disabled tracer serializes to the empty string, not a
    /// lone header.
    pub fn to_jsonl(&self) -> String {
        if self.inner.is_none() {
            return String::new();
        }
        let mut out = format!("{{\"schema_version\":{}}}\n", super::SCHEMA_VERSION);
        for record in self.records() {
            out.push_str(&json::to_string(&record));
            out.push('\n');
        }
        out
    }
}

/// RAII guard closing a span opened by [`Tracer::span`]. On drop it
/// pushes the matching `End` record with the charged duration,
/// stamped with the stage current at close time.
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            let t_ns = duration_ns(inner.clock.elapsed());
            let mut state = inner.state.lock();
            let stage = state.stage;
            state.records.push(TraceRecord {
                t_ns,
                kind: TraceKind::End,
                name: self.name.to_string(),
                stage,
                dur_ns: Some(t_ns.saturating_sub(self.start_ns)),
                fields: BTreeMap::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty payload (the key type is generic, so it needs naming).
    fn no_fields() -> Vec<(&'static str, Json)> {
        Vec::new()
    }
    use std::cell::Cell;
    use std::time::Duration;

    use eram_storage::SimClock;

    fn sim() -> Arc<SimClock> {
        Arc::new(SimClock::new())
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_field_closures() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let ran = Cell::new(false);
        t.event("e", || {
            ran.set(true);
            no_fields()
        });
        let _g = t.span("s");
        t.set_stage(3);
        assert!(!ran.get(), "field closure must not run when disabled");
        assert_eq!(t.record_count(), 0);
        assert!(t.records().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn span_duration_is_charged_clock_time() {
        let clock = sim();
        let t = Tracer::recording(clock.clone());
        {
            let _g = t.span("work");
            clock.charge(Duration::from_millis(30));
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, TraceKind::Begin);
        assert_eq!(recs[1].kind, TraceKind::End);
        assert_eq!(recs[1].dur_ns, Some(30_000_000));
        assert_eq!(recs[1].t_ns, 30_000_000);
    }

    #[test]
    fn stage_is_monotone_and_stamped_on_records() {
        let t = Tracer::recording(sim());
        t.set_stage(2);
        t.event("a", no_fields);
        t.set_stage(1); // ignored: stages never go backwards
        t.event("b", no_fields);
        t.set_stage(3);
        t.event("c", no_fields);
        let stages: Vec<usize> = t.records().iter().map(|r| r.stage).collect();
        assert_eq!(stages, vec![2, 2, 3]);
    }

    #[test]
    fn jsonl_is_deterministic_and_round_trips() {
        let mk = || {
            let clock = sim();
            let t = Tracer::recording(clock.clone());
            t.set_stage(1);
            let g = t.span("stage");
            clock.charge(Duration::from_millis(7));
            t.event("plan_stage", || {
                vec![
                    ("fraction", Json::from(0.25)),
                    ("bad", Json::from(f64::NAN)),
                ]
            });
            drop(g);
            t.to_jsonl()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same operations must serialize identically");
        assert!(a.ends_with('\n'));
        let mut lines = a.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            format!("{{\"schema_version\":{}}}", crate::obs::SCHEMA_VERSION),
            "first line is the schema-version header"
        );
        for line in lines {
            let rec: TraceRecord = json::from_str(line).unwrap();
            let back = json::to_string(&rec);
            assert_eq!(back, line, "round trip must be lossless");
        }
        // Non-finite floats degrade to null instead of poisoning the line.
        assert!(a.contains("\"bad\":null"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::recording(sim());
        let t2 = t.clone();
        t.event("from_original", no_fields);
        t2.event("from_clone", no_fields);
        assert_eq!(t.record_count(), 2);
        assert_eq!(t2.record_count(), 2);
    }
}
