//! The traced run: per-layer numbers from spans the benchmark records
//! around calls into the engine's public functions, engine tracing
//! off.
//!
//! Part A is about the workload named on the command line: a root span
//! around each real operation next to the same operations unspanned
//! (the difference is the cost of the benchmark's own tracing), then a
//! *replay* that calls the layers directly, in engine order, for as
//! many blocks and stages as the real operations reported. Part B is
//! the same whatever the workload: each layer on a fixed scenario of
//! its own, so a per-layer number means one thing in every run.

use std::hint::black_box;
use std::time::Duration;

use crate::api::{
    self, BlockRef, ClockKind, Db, DiskKind, Estimator, Filter, Groups, Observe, Query, QueryOut,
    RawRelation, Tenant, Tuples, What,
};
use crate::gen::{self, Keys, Row, SplitMix64};
use crate::json::{obj, Json};
use crate::spans::{self, by_name, Busy, Recorder, Span};
use crate::stats::{fit_line, median};
use crate::workloads::{
    base_relation, rel_seed, rss_mb, select_query, summarize, tenants, Kind, OpRecord, Workload, K,
    N, SERVE_N, STREAM_DB, STREAM_FAULT, STREAM_QUERY, TENANTS,
};

/// Real operations replayed layer by layer, and how many of them the
/// trace file keeps span by span (a served batch is eight queries'
/// worth of spans).
const REPLAYED_OPS: usize = 10;
const KEPT_OPS: u64 = 3;
/// Blocks per span in the fixed-scenario probes: at about a
/// microsecond a block, two timer reads cost well under 2 %.
const BATCH: u64 = 256;
/// Tuples per block of the benchmark schema.
const PER_BLOCK: u64 = 5;

const SELECT_TEXT: &str = "select[#1 < 100000](r)";

/// Name and value of one per-layer metric.
pub type Metric = (&'static str, f64);

/// Every per-layer metric with its unit, in reporting order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("storage.disk.read_miss_ns", "ns"),
    ("storage.disk.append_block_ns", "ns"),
    ("storage.disk.read_cache_hit_ns", "ns"),
    ("storage.disk.read_cache_thrash_ns", "ns"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.disk.read_fault_armed_ns", "ns"),
    ("storage.fault.error_ratio", "ratio"),
    ("storage.backend.file_read_ns", "ns"),
    ("storage.disk.free_file_us", "us"),
    ("storage.disk.retained_kb_per_query", "kB"),
    ("storage.heap.decode_row_ns", "ns"),
    ("storage.columnar.decode_ns", "ns"),
    ("storage.columnar.gather_ns", "ns"),
    ("storage.heap.load_tuples_per_s", "1/s"),
    ("storage.heap.append_ns_per_tuple", "ns"),
    ("storage.broker.shared_ratio", "ratio"),
    ("relalg.predicate.eval_ns_per_tuple", "ns"),
    ("relalg.predicate.eval_mask_ns_per_tuple", "ns"),
    ("relalg.plan_us", "us"),
    ("sampling.estimator.record_ns", "ns"),
    ("sampling.estimator.estimate_ns", "ns"),
    ("sampling.estimator.coverage_pct", "%"),
    ("sampling.estimator.mean_est_over_truth", "ratio"),
    ("sampling.estimator.clustered_join_coverage_pct", "%"),
    ("core.kernel.sort_run_ns_per_tuple", "ns"),
    ("core.kernel.merge_keyed_ns_per_tuple", "ns"),
    ("core.ops.run_cache_off_ratio", "ratio"),
    ("core.aggregate.absorb_ns_per_tuple", "ns"),
    ("core.aggregate.snapshot_ns_per_group", "ns"),
    ("core.aggregate.groupby_wall_ratio", "ratio"),
    ("core.executor.per_block_us", "us"),
    ("core.executor.per_query_fixed_us", "us"),
    ("core.executor.fixed_us_per_kblock", "us"),
    ("core.executor.unattributed_pct", "%"),
    ("core.executor.stages_per_query", "count"),
    ("core.executor.blocks_per_query", "count"),
    ("core.executor.risk_pct", "%"),
    ("core.executor.wall_overshoot_ms_p50", "ms"),
    ("core.executor.wall_aborted_stage_pct", "%"),
    ("core.retry.faulted_wall_ratio", "ratio"),
    ("core.retry.faults_per_query", "count"),
    ("core.retry.blocks_lost_per_query", "count"),
    ("core.parallel.join_w2_speedup", "ratio"),
    ("core.server.admission_us_per_job", "us"),
    ("core.server.interleave_overhead_pct", "%"),
    ("core.obs.tracer_overhead_pct", "%"),
    ("core.obs.profiler_overhead_pct", "%"),
    ("core.obs.metrics_overhead_pct", "%"),
    ("bench.span_overhead_pct", "%"),
    ("bench.replay_explained_pct", "%"),
];

/// What the traced run of one workload produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Every span folded by name.
    pub layers: Vec<(&'static str, Busy)>,
    /// The spans of the replayed operations, real and replayed.
    pub spans: Vec<Span>,
}

impl Traced {
    /// The traced child's line: metrics with their units, every span
    /// folded by name, and the replayed operations span by span.
    pub fn to_json(&self, workload: &str) -> Json {
        let unit = |name: &str| PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
        obj(vec![
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect()),
            ),
            (
                "metrics",
                obj(self
                    .metrics
                    .iter()
                    .map(|&(name, value)| {
                        let m = obj(vec![("value", value.into()), ("unit", unit(name).into())]);
                        (name, m)
                    })
                    .collect()),
            ),
            (
                "layers",
                obj(self
                    .layers
                    .iter()
                    .map(|(name, b)| {
                        let busy = obj(vec![
                            ("spans", b.spans.into()),
                            ("count", b.count.into()),
                            ("self_ns", b.self_ns.into()),
                        ]);
                        (*name, busy)
                    })
                    .collect()),
            ),
            ("span_fields", spans::fields()),
            ("spans", spans::to_json(&self.spans, workload)),
        ])
    }
}

/// Durations in milliseconds of the spans called `name`.
fn durations_ms(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

fn median_ms(rec: &Recorder, name: &str) -> f64 {
    median(&durations_ms(rec, name))
}

fn pct_over(base: f64, other: f64) -> f64 {
    100.0 * (other - base) / base
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(4)
}

/// Which half of the traced run to do. A run over every workload
/// does part B once, not once per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parts {
    Both,
    Workload,
    Layers,
}

pub fn trace(
    w: &Workload,
    seed: u64,
    scale: f64,
    parts: Parts,
    scratch: &std::path::Path,
) -> Traced {
    let mut rec = Recorder::with_capacity(1 << 16);
    let mut m: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    let mut t = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        layers: Vec::new(),
        spans: Vec::new(),
    };

    if parts != Parts::Workload {
        // First, while the heap is clean: its retained-memory reading
        // is growth of the resident set.
        join_probes(seed, scale, &mut rec, &mut m);
    }
    if parts != Parts::Layers {
        let first = rec.spans().len();
        let (records, kept) = workload_part(w, seed, scale, &mut rec, &mut m);
        t.spans = rec.spans()[first..kept].to_vec();
        let round = summarize(&records, w.hard_sim());
        m.push((
            "sampling.estimator.coverage_pct",
            100.0 * round.covered as f64 / round.answered.max(1) as f64,
        ));
        m.push((
            "sampling.estimator.mean_est_over_truth",
            round.mean_est_over_truth,
        ));
        m.push(("core.executor.stages_per_query", round.stages_per_query));
        m.push(("core.executor.blocks_per_query", round.blocks_per_query));
        m.push(("core.executor.risk_pct", round.risk_pct));
        (t.attempted, t.failed, t.violations) = (round.attempted, round.failed, round.violations);
    }
    if parts != Parts::Workload {
        storage_probes(seed, scale, scratch, &mut rec, &mut m);
        block_probes(seed, scale, &mut rec, &mut m);
        select_probes(seed, scale, &mut rec, &mut m);
        executor_fit(seed, scale, &mut rec, &mut m);
        server_probes(seed, scale, &mut rec, &mut m);

        // The closure test: what a block costs inside a query against
        // what its layers cost when called one by one.
        let value = |name: &str| m.iter().find(|x| x.0 == name).map_or(f64::NAN, |x| x.1);
        let layers_ns = value("storage.disk.read_miss_ns")
            + value("storage.heap.decode_row_ns")
            + PER_BLOCK as f64 * value("relalg.predicate.eval_ns_per_tuple")
            + value("sampling.estimator.record_ns");
        m.push((
            "core.executor.unattributed_pct",
            100.0 * (1.0 - layers_ns / (1e3 * value("core.executor.per_block_us"))),
        ));
    }

    // In declaration order, so every run prints the same list.
    t.metrics = PER_LAYER
        .iter()
        .filter_map(|&(name, _)| m.iter().find(|x| x.0 == name).copied())
        .collect();
    t.layers = by_name(rec.spans()).into_iter().collect();
    t
}

// ---------------------------------------------------------------
// Part A: the workload itself
// ---------------------------------------------------------------

/// A quarter round of the workload, each operation once unspanned and
/// once under a root span, on twin databases; the first
/// [`REPLAYED_OPS`] are then replayed through the layers. Returns the
/// spanned operations and where the spans the trace file keeps end.
fn workload_part(
    w: &Workload,
    seed: u64,
    scale: f64,
    rec: &mut Recorder,
    m: &mut Vec<Metric>,
) -> (Vec<OpRecord>, usize) {
    let n = scaled(w.ops / 4, scale).max(REPLAYED_OPS);
    let mut plain_db = w.setup(seed);
    let mut spanned_db = w.setup(seed);
    let replay = ReplayData::new(w, seed);

    // Same seeds on both sides, alternating, so both see the same
    // work and the same phases of the host's noise.
    let mut records = Vec::with_capacity(n);
    let (mut plain_ms, mut spanned_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut real_ns, mut replay_ns, mut kept) = (0u64, 0u64, 0usize);
    for i in 0..n as u64 {
        plain_ms.push(w.op(&mut plain_db, seed, i).wall_ns as f64 / 1e6);
        let record = rec.leaf("run", 1, || w.op(&mut spanned_db, seed, i));
        let duration = |s: &Span| s.end_ns - s.start_ns;
        let run_ns = duration(rec.spans().last().expect("the span just closed"));
        spanned_ms.push(run_ns as f64 / 1e6);
        if i < REPLAYED_OPS as u64 {
            let root = rec.spans().len();
            replay.op(w, &record, gen::derive(seed, STREAM_QUERY, i), rec);
            real_ns += run_ns;
            replay_ns += duration(&rec.spans()[root]);
            if i < KEPT_OPS {
                kept = rec.spans().len();
            }
        }
        records.push(record);
    }
    m.push((
        "bench.replay_explained_pct",
        100.0 * replay_ns as f64 / real_ns as f64,
    ));
    m.push((
        "bench.span_overhead_pct",
        pct_over(median(&plain_ms), median(&spanned_ms)),
    ));
    (records, kept)
}

/// The workload's relations once more, on a disk of their own, for
/// calling the layers without a query around them.
struct ReplayData {
    left: RawRelation,
    right: Option<RawRelation>,
}

impl ReplayData {
    fn new(w: &Workload, seed: u64) -> ReplayData {
        let load = |rows: &[Row]| {
            RawRelation::load(DiskKind::Plain, seed, rows).expect("an in-memory disk")
        };
        match w.kind {
            Kind::Join => ReplayData {
                left: load(&base_relation(seed, 1, Keys::Scattered)),
                right: Some(load(&base_relation(seed, 2, Keys::Scattered))),
            },
            Kind::Serve { .. } => ReplayData {
                left: load(&gen::relation(
                    SERVE_N,
                    SERVE_N / 10,
                    Keys::Scattered,
                    rel_seed(seed, 3),
                )),
                right: None,
            },
            _ => ReplayData {
                left: load(&base_relation(seed, 0, Keys::Scattered)),
                right: None,
            },
        }
    }

    /// Replays one real operation: the same number of blocks in the
    /// same number of stages, layer by layer.
    fn op(&self, w: &Workload, real: &OpRecord, seed: u64, rec: &mut Recorder) {
        let mut rng = SplitMix64::new(seed);
        let jobs: Vec<QueryOut> = real.jobs.iter().filter_map(|j| j.out).collect();
        rec.span("replay", jobs.len() as u64, |rec| {
            for (job, out) in real.jobs.iter().zip(&jobs) {
                let text = if w.kind == Kind::Join {
                    api::JOIN_TEXT
                } else {
                    SELECT_TEXT
                };
                rec.leaf("replay.plan", 1, || black_box(api::plan(text)).is_ok());
                match (w.kind, &self.right) {
                    (Kind::Join, Some(right)) => self.join(right, out, &mut rng, rec),
                    (kind, _) => {
                        let columnar = kind == Kind::Select { columnar: true };
                        self.select(job.truth as i64, columnar, out, &mut rng, rec)
                    }
                }
            }
        });
    }

    /// Block counts of the stages of one query, split evenly.
    fn stages(out: &QueryOut) -> impl Iterator<Item = u64> {
        let (blocks, stages) = (out.blocks_drawn, out.stages_run.max(1));
        (0..stages).map(move |s| blocks / stages + u64::from(s < blocks % stages))
    }

    fn read(
        rel: &RawRelation,
        nb: u64,
        rng: &mut SplitMix64,
        rec: &mut Recorder,
    ) -> Vec<(u64, BlockRef)> {
        rec.leaf("replay.read", nb, || {
            (0..nb)
                .filter_map(|_| {
                    let i = rng.below(rel.blocks());
                    rel.read(i).map(|b| (i, b))
                })
                .collect()
        })
    }

    fn estimator(&self, right: Option<&RawRelation>) -> Estimator {
        let blocks = self.left.blocks() as f64 * right.map_or(1.0, |r| r.blocks() as f64);
        let per_block = PER_BLOCK as f64;
        Estimator::new(
            blocks
                * if right.is_some() {
                    per_block * per_block
                } else {
                    per_block
                },
            blocks,
        )
    }

    /// A selection, through the row layout or the columnar one: both
    /// end in `(points, ones)` per block for the estimator.
    fn select(
        &self,
        below: i64,
        columnar: bool,
        out: &QueryOut,
        rng: &mut SplitMix64,
        rec: &mut Recorder,
    ) {
        let filter = Filter::sel_below(below);
        let mut est = self.estimator(None);
        for nb in Self::stages(out) {
            let blocks = Self::read(&self.left, nb, rng, rec);
            let tallies: Vec<(usize, usize)> = if columnar {
                let decoded: Vec<_> = rec.leaf("replay.decode_columnar", nb, || {
                    blocks
                        .iter()
                        .map(|(i, b)| self.left.decode_columns(*i, b))
                        .collect()
                });
                let masks: Vec<Vec<bool>> = rec.leaf("replay.eval_mask", nb * PER_BLOCK, || {
                    decoded.iter().map(|c| filter.mask(c)).collect()
                });
                rec.leaf("replay.gather", nb, || {
                    decoded
                        .iter()
                        .zip(&masks)
                        .map(|(c, k)| (k.len(), api::gather(c, k).len()))
                        .collect()
                })
            } else {
                let decoded: Vec<Tuples> = rec.leaf("replay.decode_row", nb, || {
                    blocks
                        .iter()
                        .map(|(i, b)| self.left.decode_rows(*i, b))
                        .collect()
                });
                rec.leaf("replay.eval", nb * PER_BLOCK, || {
                    decoded.iter().map(|t| (t.len(), filter.count(t))).collect()
                })
            };
            rec.leaf("replay.record", nb, || {
                for (points, ones) in &tallies {
                    est.record(*points as f64, *ones as f64);
                }
            });
            rec.leaf("replay.estimate", 1, || black_box(est.estimate()));
        }
    }

    /// Full fulfilment: each stage's new run of one side meets every
    /// run of the other side, old and new.
    fn join(&self, right: &RawRelation, out: &QueryOut, rng: &mut SplitMix64, rec: &mut Recorder) {
        let mut est = self.estimator(Some(right));
        let mut runs: [Vec<(Tuples, api::SortKeys)>; 2] = [Vec::new(), Vec::new()];
        for nb in Self::stages(out) {
            let mut fresh = Vec::with_capacity(2);
            for (side, rel) in [&self.left, right].into_iter().enumerate() {
                let nb = nb / 2 + (side as u64) * (nb % 2);
                let blocks = Self::read(rel, nb, rng, rec);
                let mut tuples: Tuples = rec.leaf("replay.decode_row", nb, || {
                    blocks
                        .iter()
                        .flat_map(|(i, b)| rel.decode_rows(*i, b))
                        .collect()
                });
                let n = tuples.len() as u64;
                let keys = rec.leaf("replay.sort_run", n, || api::sort_by_join_key(&mut tuples));
                // The engine never frees its run files; neither does
                // the replay.
                let mut file = rel.temp_file();
                rec.leaf("replay.write_run", n, || file.write(&tuples));
                fresh.push((tuples, keys));
            }
            let (new_right, new_left) = (
                fresh.pop().expect("two sides"),
                fresh.pop().expect("two sides"),
            );
            let mut ones = 0usize;
            let merged = runs[1]
                .iter()
                .map(|r| new_left.0.len() + r.0.len())
                .sum::<usize>()
                + runs[0]
                    .iter()
                    .map(|l| l.0.len() + new_right.0.len())
                    .sum::<usize>()
                + new_left.0.len()
                + new_right.0.len();
            rec.leaf("replay.merge_keyed", merged as u64, || {
                for r in &runs[1] {
                    ones += api::merge_join(&new_left.0, &new_left.1, &r.0, &r.1).len();
                }
                for l in &runs[0] {
                    ones += api::merge_join(&l.0, &l.1, &new_right.0, &new_right.1).len();
                }
                ones += api::merge_join(&new_left.0, &new_left.1, &new_right.0, &new_right.1).len();
            });
            let points = (new_left.0.len() * new_right.0.len()) as f64;
            rec.leaf("replay.record", 1, || {
                est.record(points.max(ones as f64), ones as f64)
            });
            rec.leaf("replay.estimate", 1, || black_box(est.estimate()));
            runs[0].push(new_left);
            runs[1].push(new_right);
        }
    }
}

// ---------------------------------------------------------------
// Part B: each layer on a fixed scenario
// ---------------------------------------------------------------

/// Reads `reads` random blocks in spans of [`BATCH`]; the blocks that
/// came back.
fn random_reads(
    rel: &RawRelation,
    name: &'static str,
    reads: u64,
    rng: &mut SplitMix64,
    rec: &mut Recorder,
) -> u64 {
    let mut ok = 0u64;
    let mut left = reads;
    while left > 0 {
        let nb = left.min(BATCH);
        ok += rec.leaf(name, nb, || {
            (0..nb)
                .filter(|_| black_box(rel.read(rng.below(rel.blocks()))).is_some())
                .count() as u64
        });
        left -= nb;
    }
    ok
}

fn busy(rec: &Recorder, name: &str) -> Busy {
    by_name(rec.spans()).get(name).copied().unwrap_or_default()
}

fn storage_probes(
    seed: u64,
    scale: f64,
    scratch: &std::path::Path,
    rec: &mut Recorder,
    m: &mut Vec<Metric>,
) {
    let mut rng = SplitMix64::new(gen::derive(seed, STREAM_QUERY, 1 << 40));
    let rows = base_relation(seed, 0, Keys::Scattered);
    let reads = scaled(20_000, scale) as u64;
    let load = |kind, rows: &[Row]| RawRelation::load(kind, seed, rows).expect("an in-memory disk");

    let plain = load(DiskKind::Plain, &rows);
    random_reads(&plain, "disk.read_miss", reads, &mut rng, rec);
    m.push((
        "storage.disk.read_miss_ns",
        busy(rec, "disk.read_miss").ns_per_unit(),
    ));

    // Appends: blocks fetched beforehand, written to a fresh file.
    let appends = scaled(4_000, scale) as u64;
    let sources: Vec<BlockRef> = (0..appends).filter_map(|i| plain.read(i)).collect();
    let file = plain.temp_file();
    for chunk in sources.chunks(BATCH as usize) {
        rec.leaf("disk.append_block", chunk.len() as u64, || {
            for b in chunk {
                plain.append_block(&file, b);
            }
        });
    }
    m.push((
        "storage.disk.append_block_ns",
        busy(rec, "disk.append_block").ns_per_unit(),
    ));

    // Freeing a 100-block file beside the resident relation.
    let sample: Tuples = plain.decode_rows(0, &sources[0]);
    let hundred_blocks: Tuples = sample.iter().cycle().take(500).cloned().collect();
    for _ in 0..scaled(20, scale) {
        let mut temp = plain.temp_file();
        temp.write(&hundred_blocks);
        rec.leaf("disk.free_file", 1, || temp.free());
    }
    m.push((
        "storage.disk.free_file_us",
        busy(rec, "disk.free_file").ns_per_unit() / 1e3,
    ));
    file.free();
    drop(plain);

    // A 16 000-block working set behind a cache that holds all of it,
    // then behind one that holds a quarter.
    let working_set = &rows[..80_000];
    let fits = load(DiskKind::Cached(16_000), working_set);
    for i in 0..fits.blocks() {
        black_box(fits.read(i));
    }
    random_reads(&fits, "disk.read_cache_hit", reads, &mut rng, rec);
    m.push((
        "storage.disk.read_cache_hit_ns",
        busy(rec, "disk.read_cache_hit").ns_per_unit(),
    ));
    drop(fits);
    let thrash = load(DiskKind::Cached(4_000), working_set);
    for i in 0..thrash.blocks() {
        black_box(thrash.read(i));
    }
    let (hits0, misses0) = thrash.cache_stats();
    random_reads(&thrash, "disk.read_cache_thrash", reads, &mut rng, rec);
    let (hits1, misses1) = thrash.cache_stats();
    m.push((
        "storage.disk.read_cache_thrash_ns",
        busy(rec, "disk.read_cache_thrash").ns_per_unit(),
    ));
    m.push((
        "storage.cache.hit_ratio",
        (hits1 - hits0) as f64 / ((hits1 - hits0) + (misses1 - misses0)).max(1) as f64,
    ));
    drop(thrash);

    let faulty = load(DiskKind::Plain, working_set);
    faulty.arm_faults(gen::derive(seed, STREAM_FAULT, 0));
    let ok = random_reads(&faulty, "disk.read_fault_armed", reads, &mut rng, rec);
    m.push((
        "storage.disk.read_fault_armed_ns",
        busy(rec, "disk.read_fault_armed").ns_per_unit(),
    ));
    m.push((
        "storage.fault.error_ratio",
        (reads - ok) as f64 / reads as f64,
    ));
    drop(faulty);

    // Real files, real clock. `Database` has no wall + file
    // constructor, so no end-to-end workload reaches this backend.
    let dir = scratch.join(format!("file-backend-{}", std::process::id()));
    let file_ns = std::fs::create_dir_all(&dir).ok().and_then(|()| {
        let on_files = RawRelation::load(DiskKind::FileBacked(&dir), seed, &rows[..20_000]).ok()?;
        random_reads(&on_files, "backend.file_read", reads / 2, &mut rng, rec);
        Some(busy(rec, "backend.file_read").ns_per_unit())
    });
    let _ = std::fs::remove_dir_all(&dir);
    m.push(("storage.backend.file_read_ns", file_ns.unwrap_or(f64::NAN)));
}

/// Decode, predicate, estimator, kernels and the GROUP BY accumulator
/// on blocks already fetched.
fn block_probes(seed: u64, scale: f64, rec: &mut Recorder, m: &mut Vec<Metric>) {
    let rows = base_relation(seed, 1, Keys::Scattered);
    let rel = RawRelation::load(DiskKind::Plain, seed, &rows).expect("an in-memory disk");
    let mut rng = SplitMix64::new(gen::derive(seed, STREAM_QUERY, 2 << 40));
    let filter = Filter::sel_below((N / 2) as i64);
    let nb = scaled(4_000, scale) as u64;
    let blocks: Vec<(u64, BlockRef)> = (0..nb)
        .filter_map(|_| {
            let i = rng.below(rel.blocks());
            rel.read(i).map(|b| (i, b))
        })
        .collect();

    let mut est = Estimator::new(N as f64, rel.blocks() as f64);
    let mut groups = Groups::default();
    for chunk in blocks.chunks(BATCH as usize) {
        let n = chunk.len() as u64;
        let rows: Vec<Tuples> = rec.leaf("heap.decode_row", n, || {
            chunk.iter().map(|(i, b)| rel.decode_rows(*i, b)).collect()
        });
        let cols: Vec<_> = rec.leaf("columnar.decode", n, || {
            chunk
                .iter()
                .map(|(i, b)| rel.decode_columns(*i, b))
                .collect()
        });
        let ones: Vec<usize> = rec.leaf("predicate.eval", n * PER_BLOCK, || {
            rows.iter().map(|t| filter.count(t)).collect()
        });
        let masks: Vec<Vec<bool>> = rec.leaf("predicate.eval_mask", n * PER_BLOCK, || {
            cols.iter().map(|c| filter.mask(c)).collect()
        });
        rec.leaf("columnar.gather", n, || {
            for (c, k) in cols.iter().zip(&masks) {
                black_box(api::gather(c, k));
            }
        });
        rec.leaf("estimator.record", n, || {
            for (t, y) in rows.iter().zip(&ones) {
                est.record(t.len() as f64, *y as f64);
            }
        });
        rec.leaf("estimator.estimate", 64, || {
            for _ in 0..64 {
                black_box(est.estimate());
            }
        });
        rec.leaf("aggregate.absorb", n * PER_BLOCK, || {
            for t in &rows {
                groups.absorb(t);
            }
        });
        rec.leaf("aggregate.snapshots", 64 * 16, || {
            for _ in 0..16 {
                black_box(groups.snapshots(N as f64, (n * PER_BLOCK) as f64));
            }
        });
    }
    for (metric, span) in [
        ("storage.heap.decode_row_ns", "heap.decode_row"),
        ("storage.columnar.decode_ns", "columnar.decode"),
        ("storage.columnar.gather_ns", "columnar.gather"),
        ("relalg.predicate.eval_ns_per_tuple", "predicate.eval"),
        (
            "relalg.predicate.eval_mask_ns_per_tuple",
            "predicate.eval_mask",
        ),
        ("sampling.estimator.record_ns", "estimator.record"),
        ("sampling.estimator.estimate_ns", "estimator.estimate"),
        ("core.aggregate.absorb_ns_per_tuple", "aggregate.absorb"),
        (
            "core.aggregate.snapshot_ns_per_group",
            "aggregate.snapshots",
        ),
    ] {
        m.push((metric, busy(rec, span).ns_per_unit()));
    }

    // Charged appends, as the join writes its runs.
    let tuples: Tuples = blocks
        .iter()
        .take(2_000)
        .flat_map(|(i, b)| rel.decode_rows(*i, b))
        .collect();
    let mut file = rel.temp_file();
    rec.leaf("heap.append", tuples.len() as u64, || file.write(&tuples));
    m.push((
        "storage.heap.append_ns_per_tuple",
        busy(rec, "heap.append").ns_per_unit(),
    ));

    // The join's kernels on its key distribution: two runs of the size
    // one of its queries sorts, drawn from the two relations.
    let other_rows = base_relation(seed, 2, Keys::Scattered);
    let other = RawRelation::load(DiskKind::Plain, seed, &other_rows).expect("an in-memory disk");
    let run_of = |rel: &RawRelation, rng: &mut SplitMix64| -> Tuples {
        (0..235)
            .filter_map(|_| {
                let i = rng.below(rel.blocks());
                rel.read(i).map(|b| rel.decode_rows(i, &b))
            })
            .flatten()
            .collect()
    };
    for _ in 0..scaled(40, scale) {
        let (mut left, mut right) = (run_of(&rel, &mut rng), run_of(&other, &mut rng));
        let n = (left.len() + right.len()) as u64;
        let (lk, rk) = rec.leaf("kernel.sort_run", n, || {
            (
                api::sort_by_join_key(&mut left),
                api::sort_by_join_key(&mut right),
            )
        });
        rec.leaf("kernel.merge_keyed", n, || {
            black_box(api::merge_join(&left, &lk, &right, &rk))
        });
    }
    m.push((
        "core.kernel.sort_run_ns_per_tuple",
        busy(rec, "kernel.sort_run").ns_per_unit(),
    ));
    m.push((
        "core.kernel.merge_keyed_ns_per_tuple",
        busy(rec, "kernel.merge_keyed").ns_per_unit(),
    ));

    let plans = scaled(2_000, scale) as u64;
    rec.leaf("relalg.plan", plans, || {
        for _ in 0..plans {
            black_box(api::plan(black_box(api::JOIN_TEXT))).expect("the join text parses");
        }
    });
    m.push((
        "relalg.plan_us",
        busy(rec, "relalg.plan").ns_per_unit() / 1e3,
    ));
}

/// Runs `variants` of a query turn by turn, `n` times each, one leaf
/// span per query named after its variant. Every query draws its own
/// seed: a variant that re-read the blocks its predecessor had just
/// pulled into the processor's cache would look faster than it is.
fn alternate(
    db: &mut Db,
    variants: &[(&'static str, &dyn Fn(u64) -> Query)],
    seed: u64,
    n: usize,
    rec: &mut Recorder,
) -> Vec<Vec<QueryOut>> {
    let mut outs = vec![Vec::with_capacity(n); variants.len()];
    for i in 0..(n * variants.len()) as u64 {
        let v = i as usize % variants.len();
        let (name, make) = &variants[v];
        let q = make(gen::derive(seed, STREAM_QUERY, (3 << 40) + i));
        if let Ok(out) = rec.leaf(name, 1, || db.run(&q)) {
            outs[v].push(out);
        }
    }
    outs
}

const SELECT_QUOTA: Duration = Duration::from_millis(50);

fn select_db(clock: ClockKind, seed: u64, rec: &mut Recorder) -> Db {
    let rows = base_relation(seed, 0, Keys::Scattered);
    let mut db = Db::new(clock, gen::derive(seed, STREAM_DB, 1));
    rec.leaf("heap.load", rows.len() as u64, || db.load("r", &rows));
    db
}

fn select_probes(seed: u64, scale: f64, rec: &mut Recorder, m: &mut Vec<Metric>) {
    let mut db = select_db(ClockKind::Sim, seed, rec);
    let load = busy(rec, "heap.load");
    m.push((
        "storage.heap.load_tuples_per_s",
        load.count as f64 / (load.self_ns as f64 / 1e9),
    ));

    let n = scaled(40, scale);
    let observed = |o: Observe| {
        move |s: u64| {
            let mut q = select_query(SELECT_QUOTA, s);
            q.observe = o;
            q
        }
    };
    let group_avg = |s: u64| {
        Query::new(
            What::GroupAvg {
                rel: "r",
                below: (N / 2) as i64,
            },
            SELECT_QUOTA,
            s,
        )
    };
    alternate(
        &mut db,
        &[
            ("select.off", &observed(Observe::Off)),
            ("select.tracer", &observed(Observe::Tracer)),
            ("select.profiler", &observed(Observe::Profiler)),
            ("select.metrics", &observed(Observe::Metrics)),
            ("select.group_avg", &group_avg),
        ],
        seed,
        n,
        rec,
    );
    let off = median_ms(rec, "select.off");
    for (metric, span) in [
        ("core.obs.tracer_overhead_pct", "select.tracer"),
        ("core.obs.profiler_overhead_pct", "select.profiler"),
        ("core.obs.metrics_overhead_pct", "select.metrics"),
    ] {
        m.push((metric, pct_over(off, median_ms(rec, span))));
    }
    m.push((
        "core.aggregate.groupby_wall_ratio",
        median_ms(rec, "select.group_avg") / off,
    ));

    // The same query under the fault plan, per block: faults cost
    // blocks as well as time.
    let mut faulted = select_db(ClockKind::Sim, seed, rec);
    faulted.arm_faults(gen::derive(seed, STREAM_FAULT, 1));
    let retrying = |s: u64| {
        let mut q = select_query(SELECT_QUOTA, s);
        q.fast_retry = true;
        q
    };
    let clean = alternate(&mut db, &[("select.clean", &retrying)], seed, n, rec);
    let dirty = alternate(&mut faulted, &[("select.faulted", &retrying)], seed, n, rec);
    let per_block = |outs: &[QueryOut], span: &str| {
        durations_ms(rec, span).iter().sum::<f64>()
            / outs.iter().map(|o| o.blocks_drawn).sum::<u64>().max(1) as f64
    };
    m.push((
        "core.retry.faulted_wall_ratio",
        per_block(&dirty[0], "select.faulted") / per_block(&clean[0], "select.clean"),
    ));
    let per_query = |f: fn(&QueryOut) -> u64| {
        dirty[0].iter().map(f).sum::<u64>() as f64 / dirty[0].len().max(1) as f64
    };
    m.push(("core.retry.faults_per_query", per_query(|o| o.faults_seen)));
    m.push((
        "core.retry.blocks_lost_per_query",
        per_query(|o| o.blocks_lost),
    ));
    drop((db, faulted));

    // The 10 ms real deadline: how far past it `run()` returns and how
    // often the stage in flight is lost to it.
    let mut wall = select_db(ClockKind::Wall, seed, rec);
    let deadline = Duration::from_millis(10);
    let outs = alternate(
        &mut wall,
        &[("select.wall", &|s| select_query(deadline, s))],
        seed,
        n,
        rec,
    );
    let overshoot: Vec<f64> = durations_ms(rec, "select.wall")
        .iter()
        .map(|ms| ms - deadline.as_secs_f64() * 1e3)
        .collect();
    m.push(("core.executor.wall_overshoot_ms_p50", median(&overshoot)));
    m.push((
        "core.executor.wall_aborted_stage_pct",
        100.0
            * outs[0]
                .iter()
                .filter(|o| o.stages_run > o.stages_banked)
                .count() as f64
            / outs[0].len().max(1) as f64,
    ));
}

fn join_db(seed: u64, keys: Keys) -> Db {
    let mut db = Db::new(ClockKind::Sim, gen::derive(seed, STREAM_DB, 2));
    db.load("r1", &base_relation(seed, 1, keys));
    db.load("r2", &base_relation(seed, 2, keys));
    db
}

fn join_probes(seed: u64, scale: f64, rec: &mut Recorder, m: &mut Vec<Metric>) {
    let join = |s: u64| Query::new(What::Join, SELECT_QUOTA, s);
    let no_cache = |s: u64| {
        let mut q = join(s);
        q.run_cache = false;
        q
    };
    let two_workers = |s: u64| {
        let mut q = join(s);
        q.workers = 2;
        q
    };
    let mut db = join_db(seed, Keys::Scattered);
    let n = scaled(40, scale);
    let rss_before = rss_mb().1;
    alternate(
        &mut db,
        &[
            ("join.default", &join),
            ("join.no_run_cache", &no_cache),
            ("join.two_workers", &two_workers),
        ],
        seed,
        n,
        rec,
    );
    // The engine never frees its run files, so resident memory grows
    // with every join.
    m.push((
        "storage.disk.retained_kb_per_query",
        (rss_mb().1 - rss_before) * 1024.0 / (3 * n) as f64,
    ));
    let default = median_ms(rec, "join.default");
    m.push((
        "core.ops.run_cache_off_ratio",
        median_ms(rec, "join.no_run_cache") / default,
    ));
    m.push((
        "core.parallel.join_w2_speedup",
        default / median_ms(rec, "join.two_workers"),
    ));
    drop(db);

    // The same join with block-clustered keys, where the nominal 95 %
    // interval is known to under-cover: kept visible here, not baked
    // into a workload that would fail its own check.
    let mut clustered = join_db(seed, Keys::Clustered);
    let outs = alternate(
        &mut clustered,
        &[("join.clustered", &join)],
        seed,
        scaled(150, scale),
        rec,
    );
    let truth = gen::join_truth(N, K);
    m.push((
        "sampling.estimator.clustered_join_coverage_pct",
        100.0
            * outs[0]
                .iter()
                .filter(|o| o.ci_lo <= truth && truth <= o.ci_hi)
                .count() as f64
            / outs[0].len().max(1) as f64,
    ));
}

/// Wall time against blocks over three quotas, on a 10 000-block and a
/// 100 000-block relation: the slope is the cost of a block, the
/// intercept the cost of a query, and the intercepts' difference the
/// part of that which grows with the relation.
fn executor_fit(seed: u64, scale: f64, rec: &mut Recorder, m: &mut Vec<Metric>) {
    const SIZES: [(usize, &str); 2] = [(50_000, "fit.small"), (500_000, "fit.large")];
    let n = scaled(20, scale);
    let mut fits = Vec::with_capacity(2);
    for (tuples, span) in SIZES {
        let rows = gen::relation(tuples, tuples / 10, Keys::Scattered, rel_seed(seed, 4));
        let mut db = Db::new(ClockKind::Sim, gen::derive(seed, STREAM_DB, 3));
        db.load("r", &rows);
        // One point per quota, the medians of its queries: a stall
        // in one query must not tilt the line.
        let mut points = Vec::with_capacity(3);
        for quota_us in [500, 2_000, 20_000] {
            let first = rec.spans().len();
            let make = |s: u64| {
                Query::new(
                    What::Select {
                        rel: "r",
                        below: (tuples / 2) as i64,
                    },
                    Duration::from_micros(quota_us),
                    s,
                )
            };
            let outs = alternate(&mut db, &[(span, &make)], seed, n, rec);
            let blocks: Vec<f64> = outs[0].iter().map(|o| o.blocks_drawn as f64).collect();
            let wall_us: Vec<f64> = rec.spans()[first..]
                .iter()
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect();
            points.push((median(&blocks), median(&wall_us)));
        }
        fits.push(fit_line(&points));
    }
    let ((small_fixed, small_slope), (large_fixed, large_slope)) = (fits[0], fits[1]);
    m.push((
        "core.executor.per_block_us",
        (small_slope + large_slope) / 2.0,
    ));
    m.push(("core.executor.per_query_fixed_us", small_fixed));
    let kblocks = (SIZES[1].0 - SIZES[0].0) as f64 / PER_BLOCK as f64 / 1e3;
    m.push((
        "core.executor.fixed_us_per_kblock",
        (large_fixed - small_fixed) / kblocks,
    ));
}

fn server_probes(seed: u64, scale: f64, rec: &mut Recorder, m: &mut Vec<Metric>) {
    let rows = gen::relation(SERVE_N, SERVE_N / 10, Keys::Scattered, rel_seed(seed, 3));
    let db = |which: u64| {
        let mut db = Db::new(ClockKind::Sim, gen::derive(seed, STREAM_DB, 4 + which));
        db.load("r", &rows);
        db
    };

    // Sixty-four jobs no grant can satisfy: admission refuses them all
    // and nothing else runs.
    let infeasible: Vec<Tenant> = (0..64)
        .map(|i| Tenant {
            rel: "r",
            below: 2000 + i,
            deadline: Duration::from_micros(10),
            desired_quota: Duration::from_micros(10),
            min_quota: Duration::from_millis(1),
        })
        .collect();
    let mut admission_db = db(0);
    for _ in 0..scaled(100, scale) {
        let refused = rec.leaf("server.admission", 64, || {
            admission_db.serve(false, &infeasible).refused
        });
        debug_assert_eq!(refused, 64);
    }
    m.push((
        "core.server.admission_us_per_job",
        busy(rec, "server.admission").ns_per_unit() / 1e3,
    ));

    // The serve workloads' batch, both ways, on twin databases.
    let (mut seq_db, mut lanes_db) = (db(1), db(1));
    let offered = tenants();
    let (mut charged, mut shared) = (0u64, 0u64);
    for _ in 0..scaled(30, scale) {
        rec.leaf("server.sequential", TENANTS as u64, || {
            seq_db.serve(false, &offered)
        });
        let batch = rec.leaf("server.interleaved", TENANTS as u64, || {
            lanes_db.serve(true, &offered)
        });
        charged += batch.charged_blocks;
        shared += batch.blocks_shared;
    }
    m.push((
        "core.server.interleave_overhead_pct",
        pct_over(
            median_ms(rec, "server.sequential"),
            median_ms(rec, "server.interleaved"),
        ),
    ));
    m.push((
        "storage.broker.shared_ratio",
        shared as f64 / charged.max(1) as f64,
    ));
}
