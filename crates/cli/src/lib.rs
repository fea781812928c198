//! Command-line plumbing for the `eram` binary.
//!
//! The binary itself (`src/main.rs`) is a thin shell over this
//! library so argument parsing and command dispatch are unit-tested.
//!
//! ```text
//! eram --load orders=orders.csv:id:int,price:float \
//!      [--device sun|modern] [--cache BLOCKS] [--seed N] [--header]
//!      [--quota SECS --query 'select[#1 < 5](orders)' \
//!       [--agg count|sum:N|avg:N[:by:G]|count:by:G]]
//! ```
//!
//! With `--query` the command runs once and exits; with `--serve` a
//! JSON batch of deadline-bound jobs is served through the
//! admission-controlled [`QueryServer`] (see `README.md` §"Serving
//! under load"); without either an interactive shell starts
//! (`count <expr> within <secs>`, `sum <col> <expr> within <secs>`,
//! `avg <col> <expr> within <secs>`, `exact <expr>`, `relations`,
//! `help`, `quit`). Both run modes execute under the one
//! [`EngineConfig`] the flags describe ([`Cli::engine_config`]); a
//! flag that does not apply to the chosen mode is a usage error,
//! never silently dropped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::path::PathBuf;
use std::time::Duration;

use std::sync::Arc;

use eram_core::{
    AggregateFn, BlockLayout, Concurrency, Database, EngineConfig, MetricsSnapshot,
    ProfileSnapshot, Profiler, QueryServer, ReportHealth, ServerConfig, ServerJob, ServerOutcome,
    Tracer,
};
use eram_relalg::parse_expr;
use eram_storage::{
    json, json_record, parse_schema_spec, Clock, DeviceProfile, FaultPlan, IngestFormat,
};

/// Which simulated device profile to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Device {
    /// The paper's SUN 3/60 (seconds-scale quotas).
    #[default]
    Sun,
    /// A modern NVMe-scale device (millisecond quotas).
    Modern,
}

/// One `--load` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSpec {
    /// Relation name.
    pub name: String,
    /// CSV path.
    pub path: PathBuf,
    /// Compact schema spec (`col:type,...`).
    pub schema_spec: String,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cli {
    /// Relations to load.
    pub loads: Vec<LoadSpec>,
    /// Device profile.
    pub device: Device,
    /// Buffer-cache blocks (0 = none, the paper's setup).
    pub cache_blocks: usize,
    /// Master seed.
    pub seed: u64,
    /// CSV files carry a header row.
    pub header: bool,
    /// One-shot query (otherwise: interactive shell).
    pub query: Option<String>,
    /// One-shot quota.
    pub quota: Option<Duration>,
    /// One-shot aggregate.
    pub agg: AggregateFn,
    /// Seed for deterministic fault injection.
    pub fault_seed: u64,
    /// Probability a charged block read fails transiently.
    pub fault_transient: f64,
    /// Probability a block site reads back corrupt (checksum
    /// mismatch).
    pub fault_corrupt: f64,
    /// Probability a charged block read suffers an extra latency
    /// spike.
    pub fault_spike: f64,
    /// Duration of one latency spike, in milliseconds (default
    /// 1000 when `--fault-spike` is set without `--fault-spike-ms`).
    pub fault_spike_ms: u64,
    /// Serve a JSON batch of deadline-bound jobs from this file
    /// through the admission-controlled query server.
    pub serve: Option<PathBuf>,
    /// Write the full `ServerOutcome` JSON here after `--serve`.
    pub jobs_out: Option<PathBuf>,
    /// Write a clock-charged execution trace (JSONL) to this path
    /// after a one-shot query or a served batch.
    pub trace: Option<PathBuf>,
    /// Collect and render storage/stage-loop metrics.
    pub metrics: bool,
    /// Collect the per-tenant SLO ledger and decision audit log into
    /// the `--serve` outcome. Pure observation: the job table, trace,
    /// and the rest of the outcome are identical with or without it.
    pub ledger: bool,
    /// Lane scheduling for `--serve` (`seq` = one lane at a time,
    /// `interleaved` = least-virtual-time stages + shared block draws).
    /// Per-job reports and traces are byte-identical in either mode;
    /// only the schedule report and sharing counters differ.
    pub concurrency: Concurrency,
    /// Profile the one-shot run and print the top phases by wall time
    /// after the health line. Pure observation: the estimate, trace,
    /// and report are identical with or without it.
    pub profile: bool,
    /// Worker threads for the pure-CPU stage work (0, what `Default`
    /// leaves, runs inline like 1). Estimates and traces are
    /// identical at any worker count.
    pub workers: usize,
    /// Tuple budget of each binary operator for runs that keep their
    /// decoded tuples (`Some(0)` keeps none; `None` is the engine
    /// default).
    /// Wall-clock only: estimates and traces are identical at any
    /// setting.
    pub run_cache_tuples: Option<usize>,
    /// How sampled blocks are decoded and traversed (`row` or
    /// `columnar`). Wall-clock only: estimates and traces are
    /// identical under either layout.
    pub layout: BlockLayout,
    /// Input format for every `--load` file (`None` = CSV honouring
    /// `--header`, the historical behaviour).
    pub ingest: Option<IngestFormat>,
}

/// A CLI-level error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "usage: eram --load NAME=FILE.csv:COL:TYPE[,COL:TYPE...] [--load ...]
any mode (the database):
  [--ingest csv|jsonl|parquet] [--device sun|modern] [--cache BLOCKS] [--seed N] [--header]
  [--fault-transient RATE] [--fault-corrupt RATE] [--fault-spike RATE]
  [--fault-spike-ms MS] [--fault-seed N]
--query and --serve (how the engine runs; the interactive shell takes none of these):
  [--trace FILE] [--metrics] [--workers N] [--run-cache-tuples N] [--layout row|columnar]
one-shot query:
  --query EXPR --quota SECS [--profile]
  [--agg count|sum:COL|avg:COL|count:by:G|sum:COL:by:G|avg:COL:by:G]
served batch:
  --serve JOBS.json [--jobs-out FILE] [--ledger] [--concurrency seq|interleaved]";

/// Flags that shape how the engine runs a query: they apply to
/// `--query` and `--serve` alike.
const RUN_FLAGS: [&str; 5] = [
    "--trace",
    "--metrics",
    "--workers",
    "--run-cache-tuples",
    "--layout",
];
/// Flags of a one-shot `--query`.
const QUERY_FLAGS: [&str; 3] = ["--quota", "--agg", "--profile"];
/// Flags of a `--serve` batch.
const SERVE_FLAGS: [&str; 3] = ["--jobs-out", "--ledger", "--concurrency"];

impl Cli {
    /// Parses arguments (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cli = Cli::default();
        let mut given: Vec<String> = Vec::new();
        let mut args = args.into_iter().map(Into::into);
        while let Some(a) = args.next() {
            given.push(a.clone());
            match a.as_str() {
                "--load" => {
                    let spec = args
                        .next()
                        .ok_or_else(|| err("--load needs NAME=FILE:SCHEMA"))?;
                    cli.loads.push(parse_load(&spec)?);
                }
                "--device" => {
                    cli.device = match args.next().as_deref() {
                        Some("sun") => Device::Sun,
                        Some("modern") => Device::Modern,
                        other => return Err(err(format!("bad --device {other:?}"))),
                    };
                }
                "--cache" => {
                    cli.cache_blocks = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--cache needs a block count"))?;
                }
                "--seed" => {
                    cli.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--seed needs an integer"))?;
                }
                "--header" => cli.header = true,
                "--query" => {
                    cli.query = Some(
                        args.next()
                            .ok_or_else(|| err("--query needs an expression"))?,
                    )
                }
                "--quota" => {
                    let secs = args.next().ok_or_else(|| err("--quota needs seconds"))?;
                    cli.quota = Some(parse_secs(&secs).map_err(|e| err(format!("--quota: {e}")))?);
                }
                "--agg" => {
                    cli.agg = parse_agg(&args.next().ok_or_else(|| {
                        err("--agg needs count|sum:COL|avg:COL (optionally :by:G)")
                    })?)?;
                }
                "--fault-seed" => {
                    cli.fault_seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--fault-seed needs an integer"))?;
                }
                "--fault-transient" => {
                    cli.fault_transient = parse_rate(args.next(), "--fault-transient")?;
                }
                "--fault-corrupt" => {
                    cli.fault_corrupt = parse_rate(args.next(), "--fault-corrupt")?;
                }
                "--fault-spike" => {
                    cli.fault_spike = parse_rate(args.next(), "--fault-spike")?;
                }
                "--fault-spike-ms" => {
                    cli.fault_spike_ms = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--fault-spike-ms needs milliseconds"))?;
                }
                "--serve" => {
                    cli.serve = Some(PathBuf::from(
                        args.next().ok_or_else(|| err("--serve needs a path"))?,
                    ));
                }
                "--jobs-out" => {
                    cli.jobs_out = Some(PathBuf::from(
                        args.next().ok_or_else(|| err("--jobs-out needs a path"))?,
                    ));
                }
                "--trace" => {
                    cli.trace = Some(PathBuf::from(
                        args.next().ok_or_else(|| err("--trace needs a path"))?,
                    ));
                }
                "--metrics" => cli.metrics = true,
                "--ledger" => cli.ledger = true,
                "--concurrency" => {
                    let mode = args
                        .next()
                        .ok_or_else(|| err("--concurrency needs seq|interleaved"))?;
                    cli.concurrency = Concurrency::parse(&mode)
                        .ok_or_else(|| err(format!("unknown concurrency mode {mode:?}")))?;
                }
                "--profile" => cli.profile = true,
                "--workers" => {
                    let n: usize = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--workers needs a thread count"))?;
                    if n == 0 {
                        return Err(err("--workers must be at least 1"));
                    }
                    cli.workers = n;
                }
                "--run-cache-tuples" => {
                    let n: usize = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--run-cache-tuples needs a tuple count (0 = off)"))?;
                    cli.run_cache_tuples = Some(n);
                }
                "--layout" => {
                    cli.layout = match args.next().as_deref() {
                        Some("row") => BlockLayout::Row,
                        Some("columnar") => BlockLayout::Columnar,
                        other => {
                            return Err(err(format!(
                                "bad --layout {other:?} (expected row or columnar)"
                            )))
                        }
                    };
                }
                "--ingest" => {
                    let name = args
                        .next()
                        .ok_or_else(|| err("--ingest needs a format (csv, jsonl, or parquet)"))?;
                    cli.ingest = Some(
                        IngestFormat::parse(&name)
                            .map_err(|e| err(format!("bad --ingest {name:?}: {e}")))?,
                    );
                }
                "--help" | "-h" => return Err(err(USAGE)),
                other => return Err(err(format!("unknown argument {other:?}\n{USAGE}"))),
            }
        }
        if cli.query.is_some() && cli.quota.is_none() {
            return Err(err("--query requires --quota"));
        }
        if cli.query.is_some() && cli.serve.is_some() {
            return Err(err("--query and --serve are mutually exclusive"));
        }
        // A flag the chosen mode would not read is refused, not
        // accepted and ignored.
        let first_given = |flags: &[&'static str]| {
            flags
                .iter()
                .copied()
                .find(|flag| given.iter().any(|g| g == flag))
        };
        let (query, serve) = (cli.query.is_some(), cli.serve.is_some());
        if let (Some(flag), false) = (first_given(&QUERY_FLAGS), query) {
            return Err(err(match (flag, serve) {
                ("--agg", true) => "--agg applies to --query only; served jobs set \"agg\" \
                                    per job in the JSON batch"
                    .to_string(),
                ("--profile", true) => "--profile applies to --query only; --serve renders \
                                        no per-job profile"
                    .to_string(),
                (_, true) => format!("{flag} applies to --query only, not to --serve"),
                (_, false) => format!("{flag} requires --query"),
            }));
        }
        if let (Some(flag), false) = (first_given(&SERVE_FLAGS), serve) {
            return Err(err(format!("{flag} requires --serve")));
        }
        if let (Some(flag), false) = (first_given(&RUN_FLAGS), query || serve) {
            return Err(err(format!(
                "{flag} requires --query or --serve (the interactive shell runs under the \
                 engine's defaults)"
            )));
        }
        Ok(cli)
    }

    /// The one [`EngineConfig`] the flags describe; [`run_one_shot`]
    /// and [`run_serve`] both run under it. `clock` stamps the tracer
    /// and the profiler (the database's own).
    pub fn engine_config(&self, clock: &Arc<dyn Clock>) -> EngineConfig {
        let mut config = EngineConfig {
            tracer: if self.trace.is_some() {
                Tracer::recording(clock.clone())
            } else {
                Tracer::disabled()
            },
            collect_metrics: self.metrics,
            profiler: if self.profile {
                Profiler::recording(clock.clone())
            } else {
                Profiler::disabled()
            },
            workers: self.workers,
            block_layout: self.layout,
            ..EngineConfig::default()
        };
        if let Some(tuples) = self.run_cache_tuples {
            config.run_cache_tuples = tuples;
        }
        config
    }

    /// The fault plan the flags describe, or `None` when every rate
    /// is zero (clean device).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_transient == 0.0 && self.fault_corrupt == 0.0 && self.fault_spike == 0.0 {
            return None;
        }
        let mut plan = FaultPlan::new(self.fault_seed)
            .with_transient(self.fault_transient)
            .with_corruption(self.fault_corrupt);
        if self.fault_spike > 0.0 {
            let spike_ms = if self.fault_spike_ms == 0 {
                1000
            } else {
                self.fault_spike_ms
            };
            plan = plan.with_spikes(self.fault_spike, Duration::from_millis(spike_ms));
        }
        Some(plan)
    }
}

/// Parses a duration a user typed, in seconds. Text that is not a
/// number and every value `Duration::from_secs_f64` would panic on —
/// negative, NaN, infinite, past `Duration::MAX` — is an error.
pub fn parse_secs(text: &str) -> Result<Duration, CliError> {
    text.trim()
        .parse::<f64>()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .ok_or_else(|| err(format!("{text:?} is not a non-negative number of seconds")))
}

fn parse_rate(arg: Option<String>, flag: &str) -> Result<f64, CliError> {
    let rate: f64 = arg
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err(format!("{flag} needs a probability")))?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(err(format!("{flag} must be a probability in [0, 1]")));
    }
    Ok(rate)
}

fn parse_load(spec: &str) -> Result<LoadSpec, CliError> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| err(format!("bad --load {spec:?}: expected NAME=FILE:SCHEMA")))?;
    let (path, schema_spec) = rest
        .split_once(':')
        .ok_or_else(|| err(format!("bad --load {spec:?}: expected NAME=FILE:SCHEMA")))?;
    if name.is_empty() || path.is_empty() || schema_spec.is_empty() {
        return Err(err(format!("bad --load {spec:?}")));
    }
    Ok(LoadSpec {
        name: name.to_owned(),
        path: PathBuf::from(path),
        schema_spec: schema_spec.to_owned(),
    })
}

fn parse_agg(text: &str) -> Result<AggregateFn, CliError> {
    AggregateFn::parse(text).map_err(|e| {
        err(format!(
            "bad --agg {text:?}: {e} (expected count|sum:COL|avg:COL, optionally :by:G)"
        ))
    })
}

/// Builds the database and loads every `--load` relation.
pub fn build_database(cli: &Cli) -> Result<Database, CliError> {
    let profile = match cli.device {
        Device::Sun => DeviceProfile::sun_3_60(),
        Device::Modern => DeviceProfile::modern(),
    };
    let mut db = if cli.cache_blocks > 0 {
        Database::sim_cached(profile, cli.seed, cli.cache_blocks)
    } else {
        Database::sim(profile, cli.seed)
    };
    if cli.device == Device::Modern {
        db.set_default_cost_model(eram_core::CostModel::modern_default());
    }
    // `--ingest csv` (and the no-flag default) honours `--header`;
    // the other formats are self-describing per record.
    let format = match cli.ingest {
        None | Some(IngestFormat::Csv { .. }) => IngestFormat::Csv {
            has_header: cli.header,
        },
        Some(f) => f,
    };
    for load in &cli.loads {
        let schema = parse_schema_spec(&load.schema_spec, None)
            .map_err(|e| err(format!("--load {}: {e}", load.name)))?;
        let n = db
            .load_ingest(load.name.clone(), schema, &load.path, format)
            .map_err(|e| err(format!("--load {}: {e}", load.name)))?;
        eprintln!("loaded {} ({n} tuples)", load.name);
    }
    // Arm fault injection only after loading so the injected fault
    // sites refer to the final on-device layout.
    if let Some(plan) = cli.fault_plan() {
        db.inject_faults(plan);
        eprintln!(
            "fault injection armed: transient {:.1}%, corrupt {:.1}%, spike {:.1}% (seed {})",
            100.0 * plan.transient_rate,
            100.0 * plan.corrupt_rate,
            100.0 * plan.spike_rate,
            plan.seed,
        );
    }
    Ok(db)
}

/// Renders the report's fault-tolerance counters as one line.
fn render_health(h: &ReportHealth) -> String {
    format!(
        "health: faults {} | retries {} | blocks lost {} | degraded {}",
        h.faults_seen,
        h.retries,
        h.blocks_lost,
        if h.degraded { "yes" } else { "no" },
    )
}

/// Renders the metrics snapshot: counters one per line, then
/// histogram means (map order, i.e. sorted by name).
fn render_metrics(m: &MetricsSnapshot) -> String {
    let mut out = String::from("metrics:");
    for (name, v) in &m.counters {
        out.push_str(&format!("\n  {name} = {v}"));
    }
    for (name, h) in &m.histograms {
        let mean = h.mean().unwrap_or(0.0);
        out.push_str(&format!(
            "\n  {name}: n {} mean {mean:.4} min {:.4} max {:.4}",
            h.count, h.min, h.max
        ));
    }
    out
}

/// Renders the top phases of a profile snapshot as a fixed-width
/// table: wall time (what the process spent), simulated charge (what
/// the paper's clock billed), calls, and the wall p95 per call.
fn render_profile(snap: &ProfileSnapshot, top_n: usize) -> String {
    let mut out = format!(
        "profile (top {top_n} phases by wall time):\n  {:<20} {:>8} {:>12} {:>12} {:>12}",
        "phase", "calls", "wall(ms)", "sim(ms)", "p95(us)"
    );
    for (name, stats) in snap.top_phases(top_n) {
        out.push_str(&format!(
            "\n  {:<20} {:>8} {:>12.3} {:>12.3} {:>12.1}",
            name,
            stats.calls,
            stats.wall_ns as f64 / 1e6,
            stats.sim_ns as f64 / 1e6,
            stats.wall_p95_ns as f64 / 1e3,
        ));
    }
    out.push_str(&format!(
        "\n  total wall {:.3} ms | total simulated charge {:.3} ms",
        snap.total_wall_ns() as f64 / 1e6,
        snap.total_sim_ns() as f64 / 1e6,
    ));
    out
}

/// Runs a one-shot aggregate and renders the outcome. With
/// `--trace FILE` the clock-charged execution trace is written to
/// `FILE` as JSONL; with `--metrics` the report's counters are
/// appended to the rendering; with `--profile` the top phases by
/// wall time follow the health line.
pub fn run_one_shot(db: &mut Database, cli: &Cli) -> Result<String, CliError> {
    let text = cli.query.as_deref().expect("caller checked");
    let quota = cli.quota.expect("caller checked");
    let expr = parse_expr(text).map_err(|e| err(e.to_string()))?;
    let config = cli.engine_config(db.disk().clock());
    let tracer = config.tracer.clone();
    let out = db
        .aggregate(cli.agg, expr)
        .within(quota)
        .config(config)
        .run()
        .map_err(|e| err(e.to_string()))?;
    let (lo, hi) = out.estimate.ci(0.95);
    let mut rendered = format!(
        "estimate {:.2}\n95% CI [{lo:.2}, {hi:.2}]\nstages {} | blocks {} | utilization {:.1}% | elapsed {:?}\n{}",
        out.estimate.estimate,
        out.report.completed_stages(),
        out.report.blocks_evaluated(),
        100.0 * out.report.utilization(),
        out.report.total_elapsed,
        render_health(&out.report.health),
    );
    for g in &out.report.groups {
        let (glo, ghi) = g.estimate.ci(0.95);
        rendered.push_str(&format!(
            "\ngroup {}: estimate {:.2} | 95% CI [{glo:.2}, {ghi:.2}] | tuples {}{}{}",
            g.key,
            g.estimate.estimate,
            g.tuples_seen,
            match g.converged_at_stage {
                Some(s) => format!(" | converged at stage {s}"),
                None => String::new(),
            },
            if g.exact { " | exact" } else { "" },
        ));
    }
    if let Some(snap) = &out.report.profile {
        rendered.push('\n');
        rendered.push_str(&render_profile(snap, 5));
    }
    if let Some(path) = &cli.trace {
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| err(format!("--trace {}: {e}", path.display())))?;
        rendered.push_str(&format!(
            "\ntrace: {} records → {}",
            tracer.record_count(),
            path.display()
        ));
    }
    if let Some(metrics) = &out.report.metrics {
        rendered.push('\n');
        rendered.push_str(&render_metrics(metrics));
    }
    Ok(rendered)
}

/// One job in a `--serve` batch file: a JSON array of these.
///
/// ```json
/// [
///   {"name": "dash", "expr": "select[#1 < 50](orders)", "deadline_secs": 5.0},
///   {"name": "audit", "expr": "orders", "deadline_secs": 20.0,
///    "min_quota_secs": 2.0, "desired_secs": 8.0, "value": 0.5, "agg": "sum:1"}
/// ]
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Label for reporting.
    pub name: String,
    /// The expression, in the `eram` parser syntax.
    pub expr: String,
    /// Absolute deadline in seconds, from batch start.
    pub deadline_secs: f64,
    /// Minimum useful quota in seconds (default: the engine's
    /// documented 100 ms).
    pub min_quota_secs: Option<f64>,
    /// Desired quota cap in seconds (default: the full deadline).
    pub desired_secs: Option<f64>,
    /// Relative worth under overload shedding (default 1.0).
    pub value: Option<f64>,
    /// Aggregate: `count` | `sum:COL` | `avg:COL`, each optionally
    /// suffixed `:by:G` for GROUP BY (default `count`).
    pub agg: Option<String>,
}

json_record!(JobSpec {
    name: required,
    expr: required,
    deadline_secs: required,
    min_quota_secs: omit_empty,
    desired_secs: omit_empty,
    value: omit_empty,
    agg: omit_empty,
});

impl JobSpec {
    /// Lowers the spec into a [`ServerJob`].
    pub fn into_job(self) -> Result<ServerJob, CliError> {
        let expr = parse_expr(&self.expr).map_err(|e| err(format!("job {}: {e}", self.name)))?;
        let agg = match &self.agg {
            None => AggregateFn::Count,
            // Name the offending job, not "--agg" — the spec came from
            // the JSON batch, not the command line.
            Some(text) => AggregateFn::parse(text)
                .map_err(|e| err(format!("job {}: bad agg {text:?}: {e}", self.name)))?,
        };
        for (field, v) in [
            ("deadline_secs", Some(self.deadline_secs)),
            ("min_quota_secs", self.min_quota_secs),
            ("desired_secs", self.desired_secs),
        ] {
            if let Some(v) = v {
                // Rejects negative, NaN, infinite and out-of-range
                // values alike; `from_secs_f64` below would panic.
                if Duration::try_from_secs_f64(v).is_err() {
                    return Err(err(format!(
                        "job {}: {field} must be a non-negative number of seconds",
                        self.name
                    )));
                }
            }
        }
        let mut job = ServerJob::new(
            self.name,
            agg,
            expr,
            Duration::from_secs_f64(self.deadline_secs),
        );
        if let Some(secs) = self.min_quota_secs {
            job = job.with_min_quota(Duration::from_secs_f64(secs));
        }
        if let Some(secs) = self.desired_secs {
            job = job.with_desired_quota(Duration::from_secs_f64(secs));
        }
        if let Some(value) = self.value {
            job = job.with_value(value);
        }
        Ok(job)
    }
}

/// Renders a served batch as a fixed-width table plus the stats line.
fn render_server(outcome: &ServerOutcome) -> String {
    let mut out = format!(
        "{:<12} {:>10} {:>10} {:>10} {:>12}  {}",
        "job", "deadline", "granted", "finished", "estimate", "state"
    );
    for job in &outcome.jobs {
        let estimate = job
            .estimate
            .map(|e| format!("{:.2}", e.estimate))
            .unwrap_or_else(|| "-".into());
        let state = match &job.state {
            eram_core::JobState::Done => {
                if job.met() {
                    "done (met)".to_string()
                } else {
                    "done (LATE)".to_string()
                }
            }
            eram_core::JobState::Refused { reason } => format!("refused: {reason}"),
            eram_core::JobState::Failed { error } => format!("failed: {error}"),
        };
        out.push_str(&format!(
            "\n{:<12} {:>10.2} {:>10.2} {:>10.2} {:>12}  {state}",
            job.name,
            job.deadline.as_secs_f64(),
            job.granted_quota.as_secs_f64(),
            job.finished_at.as_secs_f64(),
            estimate,
        ));
    }
    let s = &outcome.stats;
    out.push_str(&format!(
        "\noffered {} | admitted {} | refused {} | shed {} | failed {} | met {}/{} completed",
        s.offered, s.admitted, s.refused, s.shed, s.failed, s.deadlines_met, s.completed,
    ));
    out
}

/// Serves the `--serve` batch through the admission-controlled
/// [`QueryServer`] and renders a per-job table. With `--jobs-out
/// FILE` the full [`ServerOutcome`] JSON is written to `FILE`; with
/// `--trace FILE` the interleaved server + engine trace is written as
/// JSONL; with `--ledger` the outcome carries the per-tenant SLO
/// ledger and decision audit log (for `eram-explain`).
pub fn run_serve(db: &mut Database, cli: &Cli) -> Result<String, CliError> {
    let path = cli.serve.as_ref().expect("caller checked");
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("--serve {}: {e}", path.display())))?;
    let specs: Vec<JobSpec> =
        json::from_str(&text).map_err(|e| err(format!("--serve {}: {e}", path.display())))?;
    let jobs: Vec<ServerJob> = specs
        .into_iter()
        .map(JobSpec::into_job)
        .collect::<Result<_, _>>()?;
    let engine = cli.engine_config(db.disk().clock());
    let tracer = engine.tracer.clone();
    let server = QueryServer {
        config: ServerConfig {
            concurrency: cli.concurrency,
            collect_ledger: cli.ledger,
            engine,
        },
    };
    let outcome = server.run(db, jobs);
    let mut rendered = render_server(&outcome);
    if let Some(schedule) = &outcome.schedule {
        rendered.push_str(&format!(
            "\nschedule: {} | makespan {:.2}s (virtual {:.2}s) | blocks {} charged / {} physical \
             | shared {} (saved {:.3}s)",
            schedule.concurrency.as_str(),
            schedule.makespan.as_secs_f64(),
            schedule.virtual_makespan.as_secs_f64(),
            schedule.charged_blocks,
            schedule.physical_blocks,
            schedule.blocks_shared,
            schedule.charge_saved_ns as f64 / 1e9,
        ));
    }
    if let Some(ledger) = &outcome.ledger {
        rendered.push_str(&format!(
            "\nledger: {} tenant(s), {} decision(s), {} refit(s)",
            ledger.tenants.len(),
            ledger.decisions.len(),
            ledger.refits.len()
        ));
    }
    if let Some(path) = &cli.jobs_out {
        std::fs::write(path, outcome.to_json())
            .map_err(|e| err(format!("--jobs-out {}: {e}", path.display())))?;
        rendered.push_str(&format!("\noutcome: {}", path.display()));
    }
    if let Some(path) = &cli.trace {
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| err(format!("--trace {}: {e}", path.display())))?;
        rendered.push_str(&format!(
            "\ntrace: {} records → {}",
            tracer.record_count(),
            path.display()
        ));
    }
    if cli.metrics {
        if let Some(metrics) = &outcome.metrics {
            rendered.push('\n');
            rendered.push_str(&render_metrics(metrics));
        }
    }
    Ok(rendered)
}

/// Dispatches one interactive command. `Ok(None)` means quit.
pub fn dispatch(db: &mut Database, input: &str) -> Result<Option<String>, CliError> {
    let input = input.trim();
    if input.is_empty() {
        return Ok(Some(String::new()));
    }
    if input == "quit" || input == "exit" {
        return Ok(None);
    }
    if input == "help" {
        return Ok(Some(
            "  count <expr> within <secs>\n  sum <col> <expr> within <secs>\n  \
             avg <col> <expr> within <secs>\n  exact <expr>\n  relations\n  quit"
                .into(),
        ));
    }
    if input == "relations" {
        let mut out = String::new();
        for name in db.catalog().names() {
            if let Some(r) = db.catalog().relation(name) {
                out.push_str(&format!(
                    "  {name}: {} tuples, {} blocks\n",
                    r.num_tuples(),
                    r.num_blocks()
                ));
            }
        }
        return Ok(Some(out.trim_end().to_string()));
    }
    if let Some(rest) = input.strip_prefix("exact ") {
        let expr = parse_expr(rest.trim()).map_err(|e| err(e.to_string()))?;
        let n = db.exact_count(&expr).map_err(|e| err(e.to_string()))?;
        return Ok(Some(format!("  exact COUNT = {n}")));
    }
    for (prefix, make) in [
        ("count ", None),
        ("sum ", Some(true)),
        ("avg ", Some(false)),
    ] {
        if let Some(rest) = input.strip_prefix(prefix) {
            let (agg, rest) = match make {
                None => (AggregateFn::Count, rest),
                Some(is_sum) => {
                    let (col, tail) = rest
                        .trim_start()
                        .split_once(' ')
                        .ok_or_else(|| err(format!("usage: {prefix}<col> <expr> within <secs>")))?;
                    let column: usize = col.parse().map_err(|_| err("bad column index"))?;
                    let agg = if is_sum {
                        AggregateFn::Sum { column }
                    } else {
                        AggregateFn::Avg { column }
                    };
                    (agg, tail)
                }
            };
            let (expr_text, quota_text) = rest
                .rsplit_once(" within ")
                .ok_or_else(|| err(format!("usage: {prefix}... <expr> within <secs>")))?;
            let expr = parse_expr(expr_text.trim()).map_err(|e| err(e.to_string()))?;
            let quota = parse_secs(quota_text).map_err(|e| err(format!("quota: {e}")))?;
            let out = db
                .aggregate(agg, expr)
                .within(quota)
                .run()
                .map_err(|e| err(e.to_string()))?;
            let (lo, hi) = out.estimate.ci(0.95);
            let mut rendered = format!(
                "  ≈ {:.2}   (95% CI [{lo:.2}, {hi:.2}])\n  {} stages, {} blocks, {:.1}% of quota used",
                out.estimate.estimate,
                out.report.completed_stages(),
                out.report.blocks_evaluated(),
                100.0 * out.report.utilization(),
            );
            if out.report.health.faults_seen > 0 {
                rendered.push_str(&format!("\n  {}", render_health(&out.report.health)));
            }
            return Ok(Some(rendered));
        }
    }
    Err(err(format!("unknown command {input:?}; try `help`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::Json;

    fn write_csv(name: &str, content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("eram-cli-{name}-{}.csv", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn parses_full_command_line() {
        let cli = Cli::parse([
            "--load",
            "orders=o.csv:id:int,price:float",
            "--device",
            "modern",
            "--cache",
            "128",
            "--seed",
            "9",
            "--header",
            "--query",
            "select[#0 < 5](orders)",
            "--quota",
            "2.5",
            "--agg",
            "sum:1",
            "--workers",
            "4",
            "--run-cache-tuples",
            "4096",
        ])
        .unwrap();
        assert_eq!(cli.loads.len(), 1);
        assert_eq!(cli.loads[0].name, "orders");
        assert_eq!(cli.loads[0].schema_spec, "id:int,price:float");
        assert_eq!(cli.device, Device::Modern);
        assert_eq!(cli.cache_blocks, 128);
        assert_eq!(cli.seed, 9);
        assert!(cli.header);
        assert_eq!(cli.quota, Some(Duration::from_millis(2500)));
        assert_eq!(cli.agg, AggregateFn::Sum { column: 1 });
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.run_cache_tuples, Some(4096));
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(Cli::parse(["--load", "noequals"]).is_err());
        assert!(Cli::parse(["--quota", "nan"]).is_err());
        assert!(Cli::parse(["--quota", "inf"]).is_err());
        assert!(Cli::parse(["--quota", "-2"]).is_err());
        assert!(Cli::parse(["--device", "vax"]).is_err());
        assert!(Cli::parse(["--agg", "median:1"]).is_err());
        assert!(Cli::parse(["--query", "r"]).is_err()); // no quota
        assert!(Cli::parse(["--flux"]).is_err());
        assert!(Cli::parse(["--cache"]).is_err());
        assert!(Cli::parse(["--workers"]).is_err()); // missing count
        assert!(Cli::parse(["--workers", "0"]).is_err());
        assert!(Cli::parse(["--workers", "two"]).is_err());
        assert!(Cli::parse(["--run-cache-tuples"]).is_err()); // missing count
        assert!(Cli::parse(["--run-cache-tuples", "many"]).is_err());
        assert!(Cli::parse(["--concurrency"]).is_err()); // missing mode
        assert!(Cli::parse(["--concurrency", "parallel"]).is_err());
    }

    #[test]
    fn concurrency_mode_parses_with_a_sequential_default() {
        assert_eq!(
            Cli::parse::<_, String>([]).unwrap().concurrency,
            Concurrency::Sequential
        );
        for (token, mode) in [
            ("seq", Concurrency::Sequential),
            ("sequential", Concurrency::Sequential),
            ("interleaved", Concurrency::Interleaved),
        ] {
            let cli = Cli::parse(["--serve", "jobs.json", "--concurrency", token]).unwrap();
            assert_eq!(cli.concurrency, mode, "--concurrency {token}");
        }
    }

    #[test]
    fn malformed_agg_specs_return_structured_usage_errors() {
        // Every malformed grammar corner returns a structured
        // CliError naming the flag and the offending spec — never a
        // panic, never a silent default to `count`.
        for bad in [
            "sum::by:",    // empty column AND empty group
            "avg:COL:by:", // non-numeric column, empty group
            "median:1",    // unknown kind
            "sum:",        // missing column
            "avg",         // missing column entirely
            "count:1",     // count takes no column
            "sum:1:by:",   // empty group column
            "sum:1:by:x",  // non-numeric group column
            "sum:1:of:2",  // bad separator
            "",            // empty spec
        ] {
            let e = Cli::parse(["--query", "r", "--quota", "1", "--agg", bad])
                .expect_err(&format!("--agg {bad:?} must be rejected"));
            assert!(
                e.0.contains("bad --agg") && e.0.contains(&format!("{bad:?}")),
                "--agg {bad:?}: error must name the flag and spec, got {:?}",
                e.0
            );
        }
        // Valid grouped specs still parse.
        let cli = Cli::parse(["--query", "r", "--quota", "1", "--agg", "sum:1:by:2"]).unwrap();
        assert_eq!(
            cli.agg,
            AggregateFn::SumBy {
                column: 1,
                group: 2
            }
        );
    }

    #[test]
    fn agg_without_a_query_is_rejected_not_ignored() {
        // Regression: `--agg` with neither `--query` nor `--serve`
        // used to parse fine and be silently ignored.
        let e = Cli::parse(["--agg", "sum:1"]).unwrap_err();
        assert!(e.0.contains("--agg requires --query"), "{:?}", e.0);
        // With `--serve`, per-job "agg" fields are the mechanism; a
        // top-level --agg would be dead weight, so it errors too.
        let e = Cli::parse(["--serve", "jobs.json", "--agg", "sum:1"]).unwrap_err();
        assert!(e.0.contains("per job"), "{:?}", e.0);
    }

    #[test]
    fn job_spec_agg_errors_name_the_job() {
        let spec = JobSpec {
            name: "audit".into(),
            expr: "r".into(),
            deadline_secs: 1.0,
            min_quota_secs: None,
            desired_secs: None,
            value: None,
            agg: Some("sum::by:".into()),
        };
        let e = spec.into_job().unwrap_err();
        assert!(
            e.0.contains("job audit") && e.0.contains("sum::by:"),
            "{:?}",
            e.0
        );
        assert!(!e.0.contains("--agg"), "batch errors must not blame a flag");
    }

    #[test]
    fn run_cache_zero_is_off_and_default_is_engine_choice() {
        assert_eq!(
            Cli::parse(Vec::<String>::new()).unwrap().run_cache_tuples,
            None
        );
        let cli = Cli::parse(["--serve", "jobs.json", "--run-cache-tuples", "0"]).unwrap();
        assert_eq!(cli.run_cache_tuples, Some(0));
    }

    /// `--serve` used to drop every engine flag but `--workers` on the
    /// way to the lanes; both run modes now consume this one config.
    #[test]
    fn serve_builds_the_same_engine_config_a_query_would() {
        let clock: Arc<dyn Clock> = Arc::new(eram_storage::SimClock::new());
        let engine_flags = [
            "--layout",
            "columnar",
            "--run-cache-tuples",
            "0",
            "--workers",
            "4",
            "--metrics",
            "--trace",
            "t.jsonl",
        ];
        for mode in [
            &["--serve", "jobs.json"][..],
            &["--query", "r", "--quota", "1"],
        ] {
            let cli = Cli::parse(mode.iter().chain(&engine_flags).copied()).unwrap();
            let config = cli.engine_config(&clock);
            assert_eq!(config.block_layout, BlockLayout::Columnar, "{mode:?}");
            assert_eq!(config.run_cache_tuples, 0, "{mode:?}");
            assert_eq!(config.workers, 4, "{mode:?}");
            assert!(
                config.collect_metrics && config.tracer.is_enabled(),
                "{mode:?}"
            );
        }
        // No flag: the engine's own defaults, not the CLI's idea of them.
        let config = Cli::parse(Vec::<String>::new())
            .unwrap()
            .engine_config(&clock);
        let defaults = EngineConfig::default();
        assert_eq!(config.run_cache_tuples, defaults.run_cache_tuples);
        assert_eq!(config.block_layout, defaults.block_layout);
        assert!(!config.tracer.is_enabled() && !config.profiler.is_enabled());
    }

    #[test]
    fn flags_the_mode_would_not_read_are_usage_errors() {
        // `--profile` under `--serve` used to parse and print nothing.
        let e = Cli::parse(["--serve", "jobs.json", "--profile"]).unwrap_err();
        assert!(
            e.0.contains("--profile") && e.0.contains("--serve"),
            "{:?}",
            e.0
        );
        let e = Cli::parse(["--serve", "jobs.json", "--quota", "5"]).unwrap_err();
        assert!(e.0.contains("--quota applies to --query only"), "{:?}", e.0);
        // Serve-only and run-only flags need their mode.
        let e = Cli::parse(["--concurrency", "interleaved"]).unwrap_err();
        assert!(e.0.contains("--concurrency requires --serve"), "{:?}", e.0);
        for flag in [
            &["--workers", "2"][..],
            &["--layout", "row"],
            &["--metrics"],
        ] {
            let e = Cli::parse(flag.iter().copied()).unwrap_err();
            assert!(e.0.contains("requires --query or --serve"), "{:?}", e.0);
        }
        assert!(Cli::parse(["--query", "r", "--quota", "1", "--profile"]).is_ok());
    }

    #[test]
    fn parses_layout_and_ingest_flags() {
        let cli =
            Cli::parse(["--serve", "j", "--layout", "columnar", "--ingest", "jsonl"]).unwrap();
        assert_eq!(cli.layout, BlockLayout::Columnar);
        assert_eq!(cli.ingest, Some(IngestFormat::JsonLines));
        let cli = Cli::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cli.layout, BlockLayout::Row);
        assert_eq!(cli.ingest, None);
        assert!(Cli::parse(["--layout", "diagonal"]).is_err());
        assert!(Cli::parse(["--layout"]).is_err());
        assert!(Cli::parse(["--ingest", "orc"]).is_err());
        assert!(Cli::parse(["--ingest"]).is_err());
    }

    #[test]
    fn one_shot_is_identical_across_layouts_and_ingest_formats() {
        let rows_csv: String = (0..512).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("layout-csv", &rows_csv);
        let rows_jsonl: String = (0..512).map(|i| format!("[{i}, {}]\n", i % 100)).collect();
        let jsonl = write_csv("layout-jsonl", &rows_jsonl);
        let run = |load: String, extra: &[&str]| {
            let mut args = vec![
                "--load".to_string(),
                load,
                "--query".to_string(),
                "select[#1 < 50](t)".to_string(),
                "--quota".to_string(),
                "5".to_string(),
            ];
            args.extend(extra.iter().map(|s| s.to_string()));
            let cli = Cli::parse(args).unwrap();
            let mut db = build_database(&cli).unwrap();
            run_one_shot(&mut db, &cli).unwrap()
        };
        let load = format!("t={}:k:int,v:int", csv.display());
        let row = run(load.clone(), &[]);
        let columnar = run(load, &["--layout", "columnar"]);
        assert_eq!(row, columnar, "layouts must render identically");
        let via_jsonl = run(
            format!("t={}:k:int,v:int", jsonl.display()),
            &["--ingest", "jsonl", "--layout", "columnar"],
        );
        assert_eq!(row, via_jsonl, "ingest formats must load identically");
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(jsonl);
    }

    /// Deeply nested JSON on either JSON-reading flag is a clean
    /// error, never a stack overflow.
    #[test]
    fn nesting_bombs_on_ingest_and_serve_are_clean_errors() {
        let bomb = "[".repeat(100_000);
        let jsonl = write_csv("bomb-jsonl", &format!("[1, 2]\n{bomb}\n"));
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", jsonl.display()),
            "--ingest".to_string(),
            "jsonl".to_string(),
        ])
        .unwrap();
        let e = build_database(&cli).map(|_| ()).unwrap_err().to_string();
        assert!(e.contains("line 2") && e.contains("nesting deeper"), "{e}");

        let csv = write_csv("bomb-csv", "1,2\n");
        let jobs = write_csv("bomb-jobs", &bomb);
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", csv.display()),
            "--serve".to_string(),
            jobs.display().to_string(),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();
        let e = run_serve(&mut db, &cli).unwrap_err().to_string();
        assert!(e.contains("--serve") && e.contains("nesting deeper"), "{e}");
        for path in [jsonl, csv, jobs] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn parses_fault_flags_into_a_plan() {
        let cli = Cli::parse([
            "--fault-transient",
            "0.05",
            "--fault-corrupt",
            "0.01",
            "--fault-seed",
            "7",
        ])
        .unwrap();
        let plan = cli.fault_plan().expect("rates are nonzero");
        assert_eq!(plan.seed, 7);
        assert!((plan.transient_rate - 0.05).abs() < 1e-12);
        assert!((plan.corrupt_rate - 0.01).abs() < 1e-12);
        // No flags → no plan.
        assert!(Cli::parse(Vec::<String>::new())
            .unwrap()
            .fault_plan()
            .is_none());
        // Rates outside [0, 1] are rejected at parse time.
        assert!(Cli::parse(["--fault-transient", "1.5"]).is_err());
        assert!(Cli::parse(["--fault-corrupt", "-0.1"]).is_err());
        assert!(Cli::parse(["--fault-transient", "nan"]).is_err());
    }

    #[test]
    fn parses_spike_and_serve_flags() {
        let cli = Cli::parse([
            "--fault-spike",
            "0.2",
            "--fault-spike-ms",
            "500",
            "--serve",
            "jobs.json",
            "--jobs-out",
            "out.json",
        ])
        .unwrap();
        assert_eq!(cli.fault_spike, 0.2);
        assert_eq!(cli.fault_spike_ms, 500);
        assert_eq!(cli.serve, Some(PathBuf::from("jobs.json")));
        assert_eq!(cli.jobs_out, Some(PathBuf::from("out.json")));
        let plan = cli.fault_plan().expect("spike rate is nonzero");
        assert_eq!(plan.spike_rate, 0.2);
        assert_eq!(plan.spike, Duration::from_millis(500));
        // Spike alone arms a plan; the default spike is one second.
        let plan = Cli::parse(["--fault-spike", "0.1"])
            .unwrap()
            .fault_plan()
            .unwrap();
        assert_eq!(plan.spike, Duration::from_millis(1000));
        // Bad combinations are rejected at parse time.
        assert!(Cli::parse(["--fault-spike", "2.0"]).is_err());
        assert!(Cli::parse(["--jobs-out", "x.json"]).is_err()); // no --serve
        assert!(Cli::parse(["--query", "r", "--quota", "1", "--serve", "jobs.json"]).is_err());
        // `--ledger` is a serve-mode flag.
        let cli = Cli::parse(["--serve", "jobs.json", "--ledger"]).unwrap();
        assert!(cli.ledger);
        assert!(Cli::parse(["--ledger"]).is_err());
        assert!(Cli::parse(["--query", "r", "--quota", "1", "--ledger"]).is_err());
    }

    #[test]
    fn serve_runs_a_batch_and_writes_the_outcome() {
        let rows: String = (0..512).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("served", &rows);
        let jobs_path =
            std::env::temp_dir().join(format!("eram-cli-jobs-{}.json", std::process::id()));
        let out_path =
            std::env::temp_dir().join(format!("eram-cli-out-{}.json", std::process::id()));
        std::fs::write(
            &jobs_path,
            r#"[
                {"name": "dash", "expr": "select[#1 < 50](t)", "deadline_secs": 8.0},
                {"name": "tiny", "expr": "t", "deadline_secs": 0.05},
                {"name": "audit", "expr": "t", "deadline_secs": 25.0,
                 "desired_secs": 5.0, "value": 0.5, "agg": "sum:1"}
            ]"#,
        )
        .unwrap();
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", csv.display()),
            "--serve".to_string(),
            jobs_path.display().to_string(),
            "--jobs-out".to_string(),
            out_path.display().to_string(),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();
        let rendered = run_serve(&mut db, &cli).unwrap();
        assert!(rendered.contains("done (met)"), "{rendered}");
        assert!(rendered.contains("refused: infeasible"), "{rendered}");
        assert!(rendered.contains("offered 3 | admitted 2"), "{rendered}");
        let outcome: Json = json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(outcome["stats"]["offered"], Json::U64(3));
        assert_eq!(outcome["stats"]["refused"], Json::U64(1));
        assert_eq!(outcome["jobs"].as_array().unwrap().len(), 3);
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(jobs_path);
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn serve_with_ledger_rides_the_outcome_without_perturbing_it() {
        let rows: String = (0..512).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("served-ledger", &rows);
        let jobs_path =
            std::env::temp_dir().join(format!("eram-cli-ljobs-{}.json", std::process::id()));
        let out_path =
            std::env::temp_dir().join(format!("eram-cli-lout-{}.json", std::process::id()));
        std::fs::write(
            &jobs_path,
            r#"[
                {"name": "dash", "expr": "select[#1 < 50](t)", "deadline_secs": 8.0},
                {"name": "tiny", "expr": "t", "deadline_secs": 0.05}
            ]"#,
        )
        .unwrap();
        let run = |ledger: bool| {
            let mut args = vec![
                "--load".to_string(),
                format!("t={}:k:int,v:int", csv.display()),
                "--serve".to_string(),
                jobs_path.display().to_string(),
                "--jobs-out".to_string(),
                out_path.display().to_string(),
            ];
            if ledger {
                args.push("--ledger".to_string());
            }
            let cli = Cli::parse(args).unwrap();
            let mut db = build_database(&cli).unwrap();
            let rendered = run_serve(&mut db, &cli).unwrap();
            (rendered, std::fs::read_to_string(&out_path).unwrap())
        };
        let (plain_render, plain_json) = run(false);
        let (ledger_render, ledger_json) = run(true);
        assert!(!plain_render.contains("ledger:"), "{plain_render}");
        assert!(
            ledger_render.contains("ledger: 2 tenant(s)"),
            "{ledger_render}"
        );
        let outcome: Json = json::from_str(&ledger_json).unwrap();
        assert_eq!(
            outcome["ledger"]["tenants"]["dash"]["completed"],
            Json::U64(1)
        );
        assert_eq!(
            outcome["ledger"]["tenants"]["tiny"]["refused"],
            Json::U64(1)
        );
        // Pure observation: stripping the ledger restores the exact
        // bytes of the ledger-off outcome.
        let mut stripped: eram_core::ServerOutcome = json::from_str(&ledger_json).unwrap();
        stripped.ledger = None;
        assert_eq!(stripped.to_json(), plain_json);
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(jobs_path);
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn job_spec_validation_rejects_bad_fields() {
        let spec: JobSpec =
            json::from_str(r#"{"name": "x", "expr": "not a query ((", "deadline_secs": 1.0}"#)
                .unwrap();
        assert!(spec.into_job().is_err());
        let spec: JobSpec =
            json::from_str(r#"{"name": "x", "expr": "t", "deadline_secs": -1.0}"#).unwrap();
        assert!(spec.into_job().is_err());
        let spec: JobSpec = json::from_str(
            r#"{"name": "x", "expr": "t", "deadline_secs": 1.0, "agg": "median:1"}"#,
        )
        .unwrap();
        assert!(spec.into_job().is_err());
        for secs in ["1e300", "null"] {
            let spec: JobSpec = json::from_str(&format!(
                r#"{{"name": "x", "expr": "t", "deadline_secs": {secs}}}"#
            ))
            .unwrap();
            assert!(spec.into_job().is_err(), "deadline_secs {secs}");
        }
        let spec: JobSpec = json::from_str(
            r#"{"name": "x", "expr": "t", "deadline_secs": 5.0,
                "min_quota_secs": 0.5, "desired_secs": 2.0, "value": 3.0, "agg": "avg:1"}"#,
        )
        .unwrap();
        let job = spec.into_job().unwrap();
        assert_eq!(job.min_quota, Duration::from_secs_f64(0.5));
        assert_eq!(job.desired_quota, Duration::from_secs(2));
        assert_eq!(job.value, 3.0);
        assert_eq!(job.agg, AggregateFn::Avg { column: 1 });
    }

    #[test]
    fn one_shot_under_faults_still_answers_and_shows_health() {
        let rows: String = (0..512).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("faulty", &rows);
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", csv.display()),
            "--query".to_string(),
            "select[#1 < 50](t)".to_string(),
            "--quota".to_string(),
            "30".to_string(),
            "--fault-transient".to_string(),
            "0.2".to_string(),
            "--fault-seed".to_string(),
            "11".to_string(),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();
        let rendered = run_one_shot(&mut db, &cli).unwrap();
        assert!(rendered.contains("estimate"), "{rendered}");
        assert!(rendered.contains("health: faults"), "{rendered}");
    }

    #[test]
    fn parses_trace_and_metrics_flags() {
        let cli = Cli::parse([
            "--query",
            "r",
            "--quota",
            "1",
            "--trace",
            "out.jsonl",
            "--metrics",
            "--profile",
        ])
        .unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("out.jsonl")));
        assert!(cli.metrics);
        assert!(cli.profile);
        assert!(Cli::parse(["--trace"]).is_err()); // missing path
        let cli = Cli::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cli.trace, None);
        assert!(!cli.metrics);
        assert!(!cli.profile);
    }

    #[test]
    fn one_shot_trace_writes_parseable_jsonl_and_metrics_render() {
        let rows: String = (0..256).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("traced", &rows);
        let trace_path =
            std::env::temp_dir().join(format!("eram-cli-trace-{}.jsonl", std::process::id()));
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", csv.display()),
            "--query".to_string(),
            "select[#1 < 50](t)".to_string(),
            "--quota".to_string(),
            "10".to_string(),
            "--trace".to_string(),
            trace_path.display().to_string(),
            "--metrics".to_string(),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();
        let rendered = run_one_shot(&mut db, &cli).unwrap();
        assert!(rendered.contains("trace:"), "{rendered}");
        assert!(rendered.contains("metrics:"), "{rendered}");
        assert!(rendered.contains("core.stages"), "{rendered}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!trace.is_empty());
        // First line is the schema header, every later line a record.
        let mut lines = trace.lines();
        let header: Json = json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema_version").and_then(|v| v.as_u64()),
            Some(u64::from(eram_core::SCHEMA_VERSION))
        );
        for line in lines {
            let v: Json = json::from_str(line).unwrap();
            assert!(v.get("t_ns").is_some(), "every record is stamped: {line}");
            assert!(v.get("kind").is_some(), "{line}");
        }
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn one_shot_profile_renders_phase_table_and_keeps_estimate() {
        let rows: String = (0..512).map(|i| format!("{i},{}\n", i % 100)).collect();
        let csv = write_csv("profiled", &rows);
        let base_args = |profile: bool| {
            let mut args = vec![
                "--load".to_string(),
                format!("t={}:k:int,v:int", csv.display()),
                "--query".to_string(),
                "select[#1 < 50](t)".to_string(),
                "--quota".to_string(),
                "10".to_string(),
            ];
            if profile {
                args.push("--profile".to_string());
            }
            args
        };
        let cli_plain = Cli::parse(base_args(false)).unwrap();
        let mut db = build_database(&cli_plain).unwrap();
        let plain = run_one_shot(&mut db, &cli_plain).unwrap();
        assert!(!plain.contains("profile ("), "{plain}");

        let cli_prof = Cli::parse(base_args(true)).unwrap();
        let mut db = build_database(&cli_prof).unwrap();
        let profiled = run_one_shot(&mut db, &cli_prof).unwrap();
        assert!(profiled.contains("profile (top 5 phases"), "{profiled}");
        assert!(profiled.contains("total wall"), "{profiled}");
        // The phase table is appended after the health line; the
        // simulated results above it are untouched by profiling.
        let head = |s: &str| {
            s.lines()
                .take_while(|l| !l.starts_with("profile ("))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&plain), head(&profiled));
        let _ = std::fs::remove_file(csv);
    }

    #[test]
    fn end_to_end_one_shot() {
        let csv = write_csv(
            "oneshot",
            "id,price\n0,10\n1,20\n2,30\n3,40\n4,50\n5,60\n6,70\n7,80\n",
        );
        let cli = Cli::parse([
            "--load".to_string(),
            format!("orders={}:id:int,price:int", csv.display()),
            "--header".to_string(),
            "--query".to_string(),
            "select[#1 >= 50](orders)".to_string(),
            "--quota".to_string(),
            "60".to_string(),
            "--workers".to_string(),
            "4".to_string(),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();
        let rendered = run_one_shot(&mut db, &cli).unwrap();
        // Tiny relation + big quota → census → exact 4.
        assert!(rendered.contains("estimate 4.00"), "{rendered}");
        let _ = std::fs::remove_file(csv);
    }

    #[test]
    fn interactive_dispatch_round_trip() {
        let csv = write_csv("shell", "0,5\n1,15\n2,25\n3,35\n");
        let cli = Cli::parse([
            "--load".to_string(),
            format!("t={}:k:int,v:int", csv.display()),
        ])
        .unwrap();
        let mut db = build_database(&cli).unwrap();

        let out = dispatch(&mut db, "relations").unwrap().unwrap();
        assert!(out.contains("t: 4 tuples"));

        let out = dispatch(&mut db, "exact select[#1 > 10](t)")
            .unwrap()
            .unwrap();
        assert!(out.contains("= 3"));

        let out = dispatch(&mut db, "count select[#1 > 10](t) within 60")
            .unwrap()
            .unwrap();
        assert!(out.contains("≈ 3.00"), "{out}");

        let out = dispatch(&mut db, "sum 1 t within 60").unwrap().unwrap();
        assert!(out.contains("≈ 80.00"), "{out}");

        let out = dispatch(&mut db, "avg 1 t within 60").unwrap().unwrap();
        assert!(out.contains("≈ 20.00"), "{out}");

        assert!(dispatch(&mut db, "quit").unwrap().is_none());
        assert!(dispatch(&mut db, "explode").is_err());
        assert!(dispatch(&mut db, "count t").is_err()); // missing within
        let _ = std::fs::remove_file(csv);
    }

    /// Every numeric flag × every hostile number, driven through
    /// parse → build → run (and the shell's `within`): the answer is a
    /// result or a one-line error, never a panic.
    #[test]
    fn hostile_numbers_never_panic() {
        const HOSTILE: [&str; 8] = [
            "nan",
            "inf",
            "-1",
            "-0.0",
            "1e300",
            "1e-320",
            "18446744073709551616",
            "",
        ];
        const NUMERIC_FLAGS: [&str; 10] = [
            "--cache",
            "--seed",
            "--quota",
            "--fault-seed",
            "--fault-transient",
            "--fault-corrupt",
            "--fault-spike",
            "--fault-spike-ms",
            "--workers",
            "--run-cache-tuples",
        ];
        let csv = write_csv("hostile", "0,5\n1,15\n2,25\n3,35\n");
        let load = format!("t={}:k:int,v:int", csv.display());
        let one_line = |e: CliError| assert!(!e.0.contains('\n'), "{:?}", e.0);
        for value in HOSTILE {
            for flag in NUMERIC_FLAGS {
                // The hostile flag comes last, so it is the one read.
                let args = ["--load", &load, "--query", "t", "--quota", "1", flag, value];
                let ran = Cli::parse(args).and_then(|cli| {
                    let mut db = build_database(&cli)?;
                    run_one_shot(&mut db, &cli)
                });
                if let Err(e) = ran {
                    one_line(e);
                }
            }
            let mut db = build_database(&Cli::parse(["--load", &load]).unwrap()).unwrap();
            match dispatch(&mut db, &format!("count t within {value}")) {
                Ok(out) => assert!(out.is_some()),
                Err(e) => one_line(e),
            }
        }
        // The values `is_finite()` let through to `from_secs_f64`.
        assert!(Cli::parse(["--quota", "1e300"]).is_err());
        assert_eq!(parse_secs("-0.0"), Ok(Duration::ZERO));
        let _ = std::fs::remove_file(csv);
    }
}
