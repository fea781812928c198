//! Per-job execution lanes and the deterministic turn order.
//!
//! A *lane* is one admitted job's private execution context: its own
//! virtual clock, its own jitter RNG and fault-injector instance
//! (fresh instances of the database's armed plan), its own trace
//! buffer, and a lane view of the shared disk — same backend bytes,
//! private charge stream (see [`eram_storage::Disk::lane_view`]).
//! Because every mutable resource the stage loop touches is
//! lane-local, a lane's outcome is a pure function of (database
//! state, prepared spec, lane index) — independent of whether other
//! lanes run before, after, or interleaved with it. That independence
//! is what lets the server offer `--concurrency seq|interleaved` with
//! byte-identical per-job results: both modes run the *same* lanes,
//! they only schedule them differently.
//!
//! A lane is a resumable state machine around the engine's
//! [`StageRun`], stepped on the calling thread one *turn* at a time:
//! the first turn compiles the query, every later turn runs one
//! stage. Sequential serving drains a lane's turns back to back;
//! interleaved serving hands the next turn to the unfinished lane
//! with the least charged virtual time (ties to the lower canonical
//! EDF index — a pure stable-EDF pick would replay sequential order
//! verbatim and interleave nothing). The resulting schedule is a pure
//! function of the lanes' charge streams, so the shared-draw pool
//! fills in the same order on every run and the sharing counters
//! replay exactly.

use std::sync::Arc;
use std::time::Duration;

use eram_relalg::Catalog;
use eram_storage::{Clock, Disk, SharedDrawBroker, SimClock};

use crate::executor::{EngineError, StageRun};
use crate::obs::{TraceRecord, Tracer};
use crate::session::{Database, PreparedQuery, TimedCount};

/// XOR'd into the per-query sampling seed to derive the lane disk's
/// jitter-RNG stream: the lane must not replay the sampling stream as
/// device jitter.
pub(super) const LANE_JITTER_SALT: u64 = 0xD15C_1A9E;

/// Everything one lane produced.
pub(super) struct LaneOutcome {
    /// The engine result (the same shape `Database::aggregate` runs
    /// return).
    pub result: Result<TimedCount, EngineError>,
    /// Charged time on the lane's own clock.
    pub spent: Duration,
    /// The lane's trace records, timestamped on the lane clock from
    /// zero. Empty when tracing is off or the lane ran on the shared
    /// wall clock (then its spans went straight to the shared
    /// tracer).
    pub records: Vec<TraceRecord>,
    /// Charged block reads on the lane disk.
    pub reads: u64,
    /// Reads served from the batch's shared-draw pool (each still
    /// charged to this lane in full).
    pub blocks_shared: u64,
    /// Device time (ns) those pool hits spared the physical device.
    pub charge_saved_ns: u64,
}

/// Where a lane stands between turns. One per lane and moved only
/// between turns, so the variants' sizes are of no account.
#[allow(clippy::large_enum_variant)]
enum Progress {
    /// No turn taken yet.
    Fresh,
    /// Compiled; the next turn runs one stage.
    Running(StageRun),
    /// Finished (or failed); takes no more turns.
    Done(Result<TimedCount, EngineError>),
}

/// One prepared job on its own lane of the database's disk.
///
/// `spec` arrives carrying the server's shared tracer. On a simulated
/// clock the lane gets a fresh [`SimClock`] at zero and (when the
/// server tracer records) puts a private recording tracer in its copy
/// of the config, so its charge stream and trace bytes are
/// independent of every other lane; the caller splices the records
/// into the shared stream at the job's canonical start offset. On a
/// wall clock there is no virtual time to isolate: the lane runs on
/// the shared clock and tracer directly (and its outcome's `records`
/// stay empty).
pub(super) struct Lane<'a> {
    spec: PreparedQuery,
    catalog: &'a Catalog,
    clock: Arc<dyn Clock>,
    disk: Arc<Disk>,
    start: Duration,
    progress: Progress,
}

impl<'a> Lane<'a> {
    pub(super) fn new(
        db: &'a Database,
        spec: &PreparedQuery,
        lane: usize,
        broker: Option<Arc<SharedDrawBroker>>,
    ) -> Self {
        let mut spec = spec.clone();
        let mut clock = db.disk().clock().clone();
        if clock.is_simulated() {
            clock = Arc::new(SimClock::new());
            if spec.config.tracer.is_enabled() {
                spec.config.tracer = Tracer::recording(clock.clone());
            }
        }
        let disk = db.disk().lane_view(
            clock.clone(),
            spec.seed ^ LANE_JITTER_SALT,
            lane as u64,
            broker,
        );
        Lane {
            spec,
            catalog: db.catalog(),
            start: clock.elapsed(),
            clock,
            disk,
            progress: Progress::Fresh,
        }
    }

    /// The lane's bid for the next turn — its charged virtual time —
    /// or `None` once it has finished. Only the lane's own turns move
    /// its clock, so this is the time at the end of its last turn
    /// (zero before the first).
    fn bid(&self) -> Option<Duration> {
        match self.progress {
            Progress::Done(_) => None,
            _ => Some(self.clock.elapsed().saturating_sub(self.start)),
        }
    }

    /// Takes one turn: compiles the query if the lane is fresh, runs
    /// one stage otherwise. A stage that ends the loop closes the run
    /// in the same turn.
    fn turn(&mut self) {
        self.progress = match std::mem::replace(&mut self.progress, Progress::Fresh) {
            Progress::Fresh => match StageRun::start(&self.disk, self.catalog, &self.spec) {
                Ok(run) => Progress::Running(run),
                Err(e) => Progress::Done(Err(e)),
            },
            Progress::Running(mut run) => match run.step() {
                Ok(true) => Progress::Running(run),
                Ok(false) => Progress::Done(Ok(run.finish())),
                Err(e) => Progress::Done(Err(e)),
            },
            done => done,
        };
    }

    /// Takes turns until the lane finishes, then reads off what it
    /// produced.
    pub(super) fn drain(mut self) -> LaneOutcome {
        loop {
            match self.progress {
                Progress::Done(result) => {
                    let (blocks_shared, charge_saved_ns) = self.disk.sharing();
                    return LaneOutcome {
                        result,
                        spent: self.clock.elapsed().saturating_sub(self.start),
                        // A wall-clock lane traced straight into
                        // the shared stream; only a private buffer
                        // is handed back for splicing.
                        records: if self.clock.is_simulated() {
                            self.spec.config.tracer.records()
                        } else {
                            Vec::new()
                        },
                        reads: self.disk.stats().block_reads,
                        blocks_shared,
                        charge_saved_ns,
                    };
                }
                _ => self.turn(),
            }
        }
    }
}

/// The lane that takes the next turn: the least bid, ties to the
/// lower canonical index; `None` once every lane has finished
/// (finished lanes bid `None`).
fn next_turn(bids: impl Iterator<Item = Option<Duration>>) -> Option<usize> {
    bids.enumerate()
        .filter_map(|(lane, bid)| Some((bid?, lane)))
        .min()
        .map(|(_, lane)| lane)
}

/// Runs every prepared lane to completion, one turn at a time in
/// least-virtual-time order, and returns the outcomes in lane order
/// plus the dispatch order (the sequence in which lanes received
/// their *first* turn). A fresh lane bids zero, so when a lane's
/// compile charges nothing it takes its second turn before the next
/// lane's first.
pub(super) fn run_interleaved(
    db: &Database,
    specs: &[PreparedQuery],
    broker: Arc<SharedDrawBroker>,
) -> (Vec<LaneOutcome>, Vec<usize>) {
    let mut lanes: Vec<Lane<'_>> = specs
        .iter()
        .enumerate()
        .map(|(lane, spec)| Lane::new(db, spec, lane, Some(broker.clone())))
        .collect();
    let mut order = Vec::with_capacity(lanes.len());
    while let Some(lane) = next_turn(lanes.iter().map(Lane::bid)) {
        if matches!(lanes[lane].progress, Progress::Fresh) {
            order.push(lane);
        }
        lanes[lane].turn();
    }
    (lanes.into_iter().map(Lane::drain).collect(), order)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted lanes (no engine): lane `i` charges `charges[i][k]`
    /// on its `k`-th turn and finishes with its last. Returns each
    /// turn as `(lane, virtual time at turn start)` plus the order of
    /// first turns, driving [`next_turn`] exactly as
    /// [`run_interleaved`] does.
    fn schedule(charges: &[Vec<u64>]) -> (Vec<(usize, u64)>, Vec<usize>) {
        let mut vt = vec![0u64; charges.len()];
        let mut turns = vec![0usize; charges.len()];
        let (mut log, mut order) = (Vec::new(), Vec::new());
        while let Some(lane) = next_turn(
            (0..charges.len())
                .map(|l| (turns[l] < charges[l].len()).then(|| Duration::from_nanos(vt[l]))),
        ) {
            if turns[lane] == 0 {
                order.push(lane);
            }
            log.push((lane, vt[lane]));
            vt[lane] += charges[lane][turns[lane]];
            turns[lane] += 1;
        }
        (log, order)
    }

    #[test]
    fn turns_go_by_least_virtual_time_with_index_ties() {
        // Virtual time at each lane's turn starts:
        //   lane 0: 0, 100, 200      lane 1: 0, 60, 300
        //   lane 2: 0, 250
        // Expected by (vtime, lane): first turns 0,1,2 (all bid 0;
        // index breaks ties), then 1 (60), 0 (100), 0 (200), 2 (250),
        // 1 (300). Every lane's last turn closes it without a charge.
        let (log, order) = schedule(&[vec![100, 100, 0], vec![60, 240, 0], vec![250, 0]]);
        let want = vec![
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 60),
            (0, 100),
            (0, 200),
            (2, 250),
            (1, 300),
        ];
        assert_eq!(log, want);
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// A compile that charges nothing leaves lane 0 bidding zero
    /// again, so it takes its second turn before lane 1's first.
    #[test]
    fn zero_charge_first_turn_keeps_the_turn() {
        let (log, order) = schedule(&[vec![0, 80, 0], vec![0, 50, 0]]);
        let want = vec![(0, 0), (0, 0), (1, 0), (1, 0), (1, 50), (0, 80)];
        assert_eq!(log, want);
        assert_eq!(order, vec![0, 1]);
    }
}
