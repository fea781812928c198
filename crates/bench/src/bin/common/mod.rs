#![allow(dead_code)] // each experiment binary uses a subset of these helpers

//! Shared CLI plumbing for the experiment binaries.

use std::path::PathBuf;
use std::time::Duration;

use eram_bench::{render_table, run_row, BenchReport, PaperRow, TrialConfig};
use eram_storage::{SeedSeq, ToJson};

/// Parsed command-line options.
pub struct Opts {
    /// Independent runs per row (paper: 200), at least 1.
    pub runs: usize,
    /// Quota override.
    pub quota: Option<Duration>,
    /// Override for the machine-readable `BENCH_<suite>.json` path.
    pub json: Option<PathBuf>,
}

impl Opts {
    /// Parses `--runs N`, `--quota SECS`, `--json PATH`. Anything
    /// else — `--runs 0` and a quota that is not a duration included —
    /// prints one line and exits 2.
    pub fn parse(name: &str) -> Opts {
        let mut opts = Opts {
            runs: 200,
            quota: None,
            json: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage(name, &format!("{a} needs a value")))
            };
            match a.as_str() {
                "--runs" => {
                    opts.runs = match value().parse() {
                        Ok(n) if n > 0 => n,
                        _ => usage(name, "--runs needs a positive integer"),
                    };
                }
                "--quota" => {
                    opts.quota = match eram_cli::parse_secs(&value()) {
                        Ok(quota) => Some(quota),
                        Err(e) => usage(name, &format!("--quota: {e}")),
                    };
                }
                "--json" => opts.json = Some(PathBuf::from(value())),
                "--help" | "-h" => usage(name, "regenerates one results table"),
                other => usage(name, &format!("unknown argument {other:?}")),
            }
        }
        opts
    }
}

fn usage(name: &str, problem: &str) -> ! {
    eprintln!("{name}: {problem}; usage: {name} [--runs N] [--quota SECS] [--json PATH]");
    std::process::exit(2)
}

/// Writes the machine-readable sweep report. Default destination is
/// `results/BENCH_<suite>.json` when a `results/` directory exists in
/// the working directory (the repo layout), else
/// `BENCH_<suite>.json`; `--json PATH` overrides either.
pub fn write_bench(opts: &Opts, report: &BenchReport) {
    let path = opts.json.clone().unwrap_or_else(|| {
        let name = format!("BENCH_{}.json", report.suite);
        if std::path::Path::new("results").is_dir() {
            PathBuf::from("results").join(name)
        } else {
            PathBuf::from(name)
        }
    });
    match report.write(&path) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

/// Deterministic per-row master seed from the experiment id and sweep
/// parameters.
pub fn row_seed(experiment: &str, sub: u64, d_beta: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment
        .bytes()
        .chain(sub.to_le_bytes())
        .chain(d_beta.to_bits().to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SeedSeq::new(h).derive(1)
}

/// Runs each `(label, config, master seed)` row, records it in `bench`
/// as `{bench_prefix}{label}`, and prints the rows as one paper-format
/// table.
pub fn paper_table(
    opts: &Opts,
    bench: &mut BenchReport,
    title: &str,
    param: &str,
    bench_prefix: &str,
    rows: impl IntoIterator<Item = (String, TrialConfig, u64)>,
) {
    let rows: Vec<PaperRow> = rows
        .into_iter()
        .map(|(label, config, seed)| {
            let stats = run_row(&config, opts.runs, seed);
            bench.push_row(format!("{bench_prefix}{label}"), stats.to_json());
            PaperRow { label, stats }
        })
        .collect();
    println!("{}", render_table(title, param, &rows));
}
