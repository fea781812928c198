#![allow(dead_code)] // each experiment binary uses a subset of these helpers

//! Shared CLI plumbing for the experiment binaries.

use std::path::PathBuf;

use eram_bench::{render_jsonl, BenchReport, PaperRow};
use eram_storage::SeedSeq;

/// Parsed command-line options.
pub struct Opts {
    /// Independent runs per row (paper: 200).
    pub runs: usize,
    /// Quota override in seconds.
    pub quota: Option<f64>,
    /// Also emit JSON lines (provenance for EXPERIMENTS.md).
    pub jsonl: bool,
    /// Override for the machine-readable `BENCH_<suite>.json` path.
    pub json: Option<PathBuf>,
}

impl Opts {
    /// Parses `--runs N`, `--quota SECS`, `--jsonl`, `--json PATH`.
    pub fn parse(name: &str) -> Opts {
        let mut runs = 200usize;
        let mut quota = None;
        let mut jsonl = false;
        let mut json = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--runs" => {
                    runs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage(name));
                }
                "--quota" => {
                    quota = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage(name)),
                    );
                }
                "--jsonl" => jsonl = true,
                "--json" => {
                    json = Some(PathBuf::from(args.next().unwrap_or_else(|| usage(name))));
                }
                "--help" | "-h" => usage(name),
                other => {
                    eprintln!("unknown argument: {other}");
                    usage(name)
                }
            }
        }
        Opts {
            runs,
            quota,
            jsonl,
            json,
        }
    }
}

fn usage(name: &str) -> ! {
    eprintln!("usage: {name} [--runs N] [--quota SECS] [--jsonl] [--json PATH]");
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

/// Emits JSONL provenance when requested.
pub fn emit(opts: &Opts, title: &str, _param: &str, rows: &[PaperRow]) {
    if opts.jsonl {
        eprintln!("# {title}");
        eprintln!("{}", render_jsonl(rows));
    }
}
