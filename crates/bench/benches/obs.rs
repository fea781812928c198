//! Criterion micro-bench guarding the observability layer's
//! zero-cost-when-disabled contract: `execute_count` with the default
//! (disabled) tracer and profiler must not regress against the
//! pre-observability baseline, and the recording variants are
//! measured alongside so the cost of turning them on stays visible.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use eram_core::executor::execute_count;
use eram_core::{OneAtATimeInterval, Profiler, QueryConfig, Tracer};
use eram_relalg::{Catalog, CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, DeviceProfile, Disk, HeapFile, Schema, SimClock, Tuple, Value};

fn paper_setup() -> (Arc<Disk>, Catalog, Expr) {
    let disk = Disk::new(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60().without_jitter(),
        7,
    );
    let schema = Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
    let hf = HeapFile::load(
        disk.clone(),
        schema,
        (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100)])),
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.register("r", hf);
    let expr = Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
    (disk, cat, expr)
}

/// Engine defaults (hard deadline, observers off) under the paper's
/// one-at-a-time-interval strategy.
fn paper_config() -> QueryConfig {
    QueryConfig {
        strategy: Box::new(OneAtATimeInterval::new(12.0)),
        ..QueryConfig::default()
    }
}

fn bench_tracer_disabled(c: &mut Criterion) {
    let (disk, cat, expr) = paper_setup();
    c.bench_function("execute_count_tracer_disabled", |b| {
        b.iter(|| {
            let cfg = paper_config();
            black_box(execute_count(&disk, &cat, &expr, Duration::from_secs(2), &cfg, 7).unwrap())
        })
    });
}

fn bench_tracer_recording(c: &mut Criterion) {
    let (disk, cat, expr) = paper_setup();
    c.bench_function("execute_count_tracer_recording", |b| {
        b.iter(|| {
            let mut cfg = paper_config();
            cfg.tracer = Tracer::recording(disk.clock().clone());
            cfg.collect_metrics = true;
            black_box(execute_count(&disk, &cat, &expr, Duration::from_secs(2), &cfg, 7).unwrap())
        })
    });
}

/// The flight recorder's disabled path: every phase site takes the
/// `Option::None` branch and never calls `Instant::now()`, so this
/// must track `execute_count_tracer_disabled` (both are the default
/// `QueryConfig`, spelled out here so the contract is explicit).
fn bench_profiler_disabled(c: &mut Criterion) {
    let (disk, cat, expr) = paper_setup();
    c.bench_function("execute_count_profiler_disabled", |b| {
        b.iter(|| {
            let mut cfg = paper_config();
            cfg.profiler = Profiler::disabled();
            black_box(execute_count(&disk, &cat, &expr, Duration::from_secs(2), &cfg, 7).unwrap())
        })
    });
}

fn bench_profiler_recording(c: &mut Criterion) {
    let (disk, cat, expr) = paper_setup();
    c.bench_function("execute_count_profiler_recording", |b| {
        b.iter(|| {
            let mut cfg = paper_config();
            cfg.profiler = Profiler::recording(disk.clock().clone());
            black_box(execute_count(&disk, &cat, &expr, Duration::from_secs(2), &cfg, 7).unwrap())
        })
    });
}

criterion_group! {
    name = obs;
    config = Criterion::default().measurement_time(Duration::from_secs(5));
    targets = bench_tracer_disabled, bench_tracer_recording,
        bench_profiler_disabled, bench_profiler_recording
}
criterion_main!(obs);
