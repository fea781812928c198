//! Ablation — admission control and overload shedding under offered
//! load and fault storms.
//!
//! Sweeps the [`QueryServer`] over a grid of
//! offered load (how many tenants contend for the same horizon) and
//! device weather (clean, transient faults, latency-spike storms),
//! and reports where each offered job landed: admitted-and-met,
//! refused at admission, shed mid-batch, or failed. The table shows
//! the robustness contract the serving layer adds on top of the
//! paper's fixed-time engine: as load and faults climb, the
//! refused/shed columns grow while **deadlines missed stays zero**.
//!
//! Every cell is also run under both `--concurrency` modes and the
//! stripped outcomes cross-checked for equality, surfacing the
//! sharing win: on the overlapping-tenant grid the interleaved
//! schedule feeds co-resident scans from one pool, so the simulated
//! makespan and physical block count drop strictly below the
//! sequential oracle's while per-job results stay byte-identical.
//!
//! Usage: `abl_admission [--runs N] [--quota SECS] [--json PATH]`
//! (`--quota` overrides the per-batch deadline horizon; `--runs`
//! repeats each cell with distinct seeds and sums the buckets.)

use std::time::Duration;

use eram_core::{Concurrency, Database, QueryServer, ServerJob, ServerOutcome};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, FaultPlan, Schema, Tuple, Value};

mod common;

/// One sweep cell: tenants contending for one deadline horizon under
/// one kind of device weather.
struct Cell {
    label: &'static str,
    tenants: usize,
    transient: f64,
    spike_rate: f64,
}

fn build_db(seed: u64) -> Database {
    let mut db = Database::sim_default(seed);
    let schema = Schema::new(vec![("k", ColumnType::Int), ("g", ColumnType::Int)]).padded_to(200);
    // Small enough that co-resident samplers (cluster sampling
    // without replacement, one seeded permutation per job) collide on
    // blocks within a granted quota — that collision is what the
    // batch's shared-draw pool dedups, and what the clean-grid asserts
    // below measure.
    db.load_relation(
        "t",
        schema,
        (0..1_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)])),
    )
    .expect("workload relation loads");
    db
}

/// The offered batch: `tenants` jobs with staggered deadlines inside
/// `horizon`, descending value so shedding has a meaningful ordering.
fn offered_jobs(tenants: usize, horizon: Duration) -> Vec<ServerJob> {
    (0..tenants)
        .map(|i| {
            let frac = (i + 1) as f64 / tenants as f64;
            let expr = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 3 + i as i64));
            ServerJob::count(
                format!("tenant-{i}"),
                expr,
                Duration::from_secs_f64(horizon.as_secs_f64() * frac),
            )
            .with_desired_quota(Duration::from_secs_f64(2.0))
            .with_value(1.0 / (1.0 + i as f64))
        })
        .collect()
}

fn run_cell(cell: &Cell, horizon: Duration, seed: u64, mode: Concurrency) -> ServerOutcome {
    let mut db = build_db(seed);
    if cell.transient > 0.0 || cell.spike_rate > 0.0 {
        db.inject_faults(
            FaultPlan::new(seed ^ 0xAD01_5510)
                .with_transient(cell.transient)
                .with_spikes(cell.spike_rate, Duration::from_millis(500)),
        );
    }
    QueryServer::new()
        .concurrency(mode)
        .run(&mut db, offered_jobs(cell.tenants, horizon))
}

fn main() {
    let opts = common::Opts::parse("abl_admission");
    let horizon = opts.quota.unwrap_or(Duration::from_secs(12));
    // Cap the per-cell repeat count: each run is a whole multi-job
    // batch, not one trial, so the paper's 200-run default would
    // dominate the suite's wall time for no extra signal.
    let runs = opts.runs.min(20);

    let sweep = [
        Cell {
            label: "n=2 clean",
            tenants: 2,
            transient: 0.0,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=4 clean",
            tenants: 4,
            transient: 0.0,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=8 clean",
            tenants: 8,
            transient: 0.0,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=16 clean",
            tenants: 16,
            transient: 0.0,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=4 t=10%",
            tenants: 4,
            transient: 0.10,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=8 t=10%",
            tenants: 8,
            transient: 0.10,
            spike_rate: 0.0,
        },
        Cell {
            label: "n=8 spikes=30%",
            tenants: 8,
            transient: 0.0,
            spike_rate: 0.30,
        },
        Cell {
            label: "n=16 t=5% spikes=30%",
            tenants: 16,
            transient: 0.05,
            spike_rate: 0.30,
        },
    ];

    let mut bench = eram_bench::BenchReport::new("abl_admission");
    bench.config_kv("horizon_secs", horizon.as_secs_f64());
    bench.config_kv("runs", runs as u64);

    println!(
        "Ablation — admission & shedding, horizon {:.1} s, {} runs/cell",
        horizon.as_secs_f64(),
        runs
    );
    println!(
        "{:<22} {:>8} {:>9} {:>8} {:>6} {:>7} {:>5} {:>7} {:>9} {:>9} {:>7}",
        "cell",
        "offered",
        "admitted",
        "refused",
        "shed",
        "failed",
        "met",
        "missed",
        "mk-seq(s)",
        "mk-int(s)",
        "shared"
    );
    for (i, cell) in sweep.iter().enumerate() {
        let mut sums = [0u64; 7]; // offered admitted refused shed failed met missed
        let mut makespan_seq = 0.0f64;
        let mut makespan_int = 0.0f64;
        let mut physical_seq = 0u64;
        let mut physical_int = 0u64;
        let mut charged = 0u64;
        let mut shared = 0u64;
        let mut saved_ns = 0u64;
        for run in 0..runs {
            let seed = common::row_seed("abl-admission", (i * 1000 + run) as u64, 0.0);
            let outcome = run_cell(cell, horizon, seed, Concurrency::Sequential);
            let inter = run_cell(cell, horizon, seed, Concurrency::Interleaved);
            assert_eq!(
                outcome.stripped_of_schedule(),
                inter.stripped_of_schedule(),
                "{}: interleaved serving changed a per-job result",
                cell.label
            );
            let (s_sched, i_sched) = (
                outcome.schedule.as_ref().expect("schedule always reported"),
                inter.schedule.as_ref().expect("schedule always reported"),
            );
            makespan_seq += s_sched.makespan.as_secs_f64();
            makespan_int += i_sched.makespan.as_secs_f64();
            physical_seq += s_sched.physical_blocks;
            physical_int += i_sched.physical_blocks;
            charged += s_sched.charged_blocks;
            shared += i_sched.blocks_shared;
            saved_ns += i_sched.charge_saved_ns;
            let s = outcome.stats;
            for (slot, v) in sums.iter_mut().zip([
                s.offered,
                s.admitted,
                s.refused,
                s.shed,
                s.failed,
                s.deadlines_met,
                s.deadlines_missed,
            ]) {
                *slot += v;
            }
        }
        assert_eq!(
            sums[6], 0,
            "{}: an admitted job missed its deadline",
            cell.label
        );
        // The sharing win: on the clean overlapping-tenant grid the
        // interleaved mode must strictly beat the oracle on both
        // simulated makespan and physical device reads. Storm cells
        // may shed (speculative lane work can eat the margin), and at
        // n=2 two short sampling permutations can miss each other
        // entirely, so those cells only report — as does every cell
        // under a `--quota` horizon, which may be too short for any
        // lane to run at all.
        let committed_grid = opts.quota.is_none();
        if committed_grid && cell.transient == 0.0 && cell.spike_rate == 0.0 && cell.tenants >= 4 {
            assert!(shared > 0, "{}: co-resident scans never pooled", cell.label);
            assert!(
                makespan_int < makespan_seq,
                "{}: interleaved makespan {makespan_int:.3}s did not beat sequential \
                 {makespan_seq:.3}s",
                cell.label
            );
            assert!(
                physical_int < physical_seq,
                "{}: interleaved physical reads {physical_int} did not beat sequential \
                 {physical_seq}",
                cell.label
            );
        }
        println!(
            "{:<22} {:>8} {:>9} {:>8} {:>6} {:>7} {:>5} {:>7} {:>9.2} {:>9.2} {:>7}",
            cell.label,
            sums[0],
            sums[1],
            sums[2],
            sums[3],
            sums[4],
            sums[5],
            sums[6],
            makespan_seq,
            makespan_int,
            shared
        );
        bench.push_row(
            cell.label,
            json!({
                "offered": sums[0],
                "admitted": sums[1],
                "refused": sums[2],
                "shed": sums[3],
                "failed": sums[4],
                "deadlines_met": sums[5],
                "deadlines_missed": sums[6],
                "makespan_seq_secs": makespan_seq,
                "makespan_interleaved_secs": makespan_int,
                "charged_blocks": charged,
                "physical_blocks_seq": physical_seq,
                "physical_blocks_interleaved": physical_int,
                "blocks_shared": shared,
                "charge_saved_secs": saved_ns as f64 / 1e9,
            }),
        );
    }
    common::write_bench(&opts, &bench);
}
