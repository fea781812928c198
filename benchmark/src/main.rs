//! Wall-clock benchmark of the eram engine. See README.md.

mod api;
mod gen;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;

const USAGE: &str = "usage:
  eram-benchmark run [--workload NAME]... [--seed N] [--rounds R | --seconds S | --quick]
                     [--trace 0|1] [--out FILE] [--scratch DIR]
  eram-benchmark trace ...            the same as run --trace 1
  eram-benchmark agree A.json B.json [--bounds BENCHMARK.json]
  eram-benchmark list";

/// `--name value` pairs after the sub-command; a flag without a value
/// (`--quick`) maps to an empty string.
struct Args(Vec<(String, String)>, Vec<String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => flags.push(("quick".to_string(), String::new())),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args(flags, positional))
    }

    fn all(&self, name: &str) -> impl Iterator<Item = &str> {
        let name = name.to_string();
        self.0
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.all(name).last()
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
            .transpose()
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or(format!("unknown workload {name:?}; see `list`"))
}

fn plan(args: &Args, trace: bool) -> Result<run::Plan, String> {
    args.known(&[
        "workload", "seed", "rounds", "seconds", "quick", "trace", "out", "scratch",
    ])?;
    let named: Vec<_> = args
        .all("workload")
        .map(workload)
        .collect::<Result<_, _>>()?;
    let quick = args.get("quick").is_some();
    let rounds = args.number::<usize>("rounds")?;
    let seconds = args.number::<f64>("seconds")?;
    if matches!(rounds, Some(0)) || seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--rounds and --seconds must be positive".into());
    }
    let trace = trace
        || match args.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: bad value {v:?}")),
        };
    Ok(run::Plan {
        workloads: if named.is_empty() {
            workloads::WORKLOADS.iter().collect()
        } else {
            named
        },
        seed: args.number("seed")?.unwrap_or(1989),
        rounds: match (rounds, seconds, quick) {
            (Some(r), _, _) => Some(r),
            (None, Some(_), _) => None,
            (None, None, true) => Some(2),
            (None, None, false) => Some(run::DEFAULT_ROUNDS),
        },
        seconds: seconds.unwrap_or(if quick { 2.5 } else { 10.0 }),
        ops_scale: if quick { 0.25 } else { 1.0 },
        trace,
        out: args.get("out").map(str::to_string),
        scratch: args
            .get("scratch")
            .unwrap_or("benchmark/results/scratch")
            .to_string(),
    })
}

/// One round (or one traced run) in this process; a JSON line out.
fn child(args: &Args) -> Result<(), String> {
    let w = workload(args.get("workload").ok_or("child needs --workload")?)?;
    let seed = args.number("seed")?.unwrap_or(1989);
    if args.get("trace") == Some("1") {
        let scratch = args.get("scratch").ok_or("child needs --scratch")?;
        let scale = args.number("scale")?.unwrap_or(1.0);
        let parts = match args.get("parts") {
            None | Some("both") => layers::Parts::Both,
            Some("workload") => layers::Parts::Workload,
            Some("layers") => layers::Parts::Layers,
            Some(v) => return Err(format!("--parts: bad value {v:?}")),
        };
        let t = layers::trace(w, seed, scale, parts, std::path::Path::new(scratch));
        println!("{}", t.to_json(w.name).compact());
    } else {
        let ops = args.number("ops")?.unwrap_or(w.ops);
        let round = args.number("round")?.unwrap_or(0);
        println!(
            "{}",
            workloads::run_round(w, seed, ops, round)
                .to_json()
                .compact()
        );
    }
    Ok(())
}

fn agree(args: &Args) -> Result<i32, String> {
    args.known(&["bounds"])?;
    let [a, b] = &args.1[..] else {
        return Err("agree takes two result files".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = read(args.get("bounds").unwrap_or("BENCHMARK.json"))?;
    let (rows, breaches) = run::agree(&read(a)?, &read(b)?, &bounds);
    for row in &rows {
        println!("{row}");
    }
    println!("{} rows, {breaches} breaches", rows.len());
    Ok(if breaches == 0 && !rows.is_empty() {
        0
    } else {
        2
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(64);
    };
    let code = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => plan(&args, false).map(|p| run::run(&p)),
        "trace" => plan(&args, true).map(|p| run::run(&p)),
        "child" => child(&args).map(|()| 0),
        "agree" => agree(&args),
        "list" => {
            run::list();
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(64);
        }
    }
}
