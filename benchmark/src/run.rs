//! The parent process: one fresh child per (workload, round), each
//! operation's quietest round, the correctness checks, the result file
//! and `agree`.
//!
//! The host has time-correlated noise — the same binary's median
//! moves by a quarter between back-to-back seconds, in phases that
//! last seconds to tens of seconds — so a run is several short rounds,
//! round-robin over the workloads, each in a process of its own. A
//! fresh process also makes set-up time and peak memory per-workload
//! facts and stops one workload's heap from ageing another's.

use std::process::{Command, Stdio};

use crate::json::{self, obj, Json};
use crate::layers::PER_LAYER;
use crate::stats::{median, quantile, quietest, quietest_per_op, Better};
use crate::workloads::{Workload, WARMUP_SHARE, WORKLOADS};

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly on a simulated clock.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, exact: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", Better::Lower, false),
    e2e("peak_rss_mb", "MB", Better::Lower, false),
    e2e("ok_pct", "%", Better::Higher, true),
    e2e("query_wall_ms_p50", "ms", Better::Lower, false),
    e2e("query_wall_ms_p95", "ms", Better::Lower, false),
    e2e("batch_wall_ms_p50", "ms", Better::Lower, false),
    e2e("batch_wall_ms_p95", "ms", Better::Lower, false),
    e2e("blocks_per_wall_s", "1/s", Better::Higher, false),
    e2e("jobs_per_wall_s", "1/s", Better::Higher, false),
    e2e("rel_half_width_p50", "ratio", Better::Lower, true),
    e2e("utilization_pct", "%", Better::Higher, true),
    e2e("on_time_pct", "%", Better::Higher, true),
    e2e("met_pct", "%", Better::Higher, true),
    e2e("sim_makespan_ms", "ms", Better::Lower, true),
    e2e("phys_reads_per_block", "ratio", Better::Lower, true),
];

/// Rounds when neither `--rounds` nor `--seconds` says otherwise.
pub const DEFAULT_ROUNDS: usize = 12;
/// Fewest rounds a `--seconds` budget is allowed to buy.
const MIN_ROUNDS: usize = 3;
/// Share of pooled queries whose nominal-95 % interval must cover the
/// constructed truth.
const MIN_COVERAGE: f64 = 0.90;
/// Share of wall-clock queries that must bank a stage. Not all of
/// them: a neighbour that takes the core for the whole of a 10 ms
/// deadline leaves a query nothing, and that is the host's doing.
const MIN_WALL_ANSWERED: f64 = 0.99;

pub struct Plan {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Fixed round count, or none to go by `seconds`.
    pub rounds: Option<usize>,
    /// Timed seconds per workload.
    pub seconds: f64,
    /// Share of each round's operation count to run.
    pub ops_scale: f64,
    pub trace: bool,
    pub out: Option<String>,
    pub scratch: String,
}

/// One child process: a round of `w`, or (with `parts`) that half of
/// its traced run.
fn child(plan: &Plan, w: &Workload, round: usize, parts: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--scratch", &plan.scratch])
        .args(["--trace", if plan.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.trace {
        let scale = plan.ops_scale * (plan.seconds / 10.0).clamp(0.1, 3.0);
        cmd.args(["--scale", &scale.to_string(), "--parts", parts]);
    } else {
        let ops = ((w.ops as f64 * plan.ops_scale).round() as usize).max(20);
        cmd.args(["--ops", &ops.to_string()]);
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} child exited with {}", w.name, output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    json::parse(line)
}

/// Everything measured for one workload across its rounds.
struct Gathered {
    workload: &'static Workload,
    rounds: Vec<Json>,
}

impl Gathered {
    fn field(&self, name: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.get(name).and_then(Json::num))
            .collect()
    }

    fn sum(&self, name: &str) -> f64 {
        self.field(name).iter().sum()
    }

    /// The checks that look across rounds; per-operation checks ran in
    /// the children.
    fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .rounds
            .iter()
            .flat_map(|r| r.get("violations").map_or(&[][..], Json::arr))
            .filter_map(|s| s.str().map(str::to_string))
            .collect();
        v.sort();
        v.dedup();
        let (covered, answered, attempted) = (
            self.sum("covered"),
            self.sum("answered"),
            self.sum("attempted"),
        );
        if covered < MIN_COVERAGE * answered {
            v.push(format!(
                "the 95 % interval covered the truth in {covered} of {answered} queries"
            ));
        }
        if self.workload.exact() {
            let prints: Vec<&str> = self
                .rounds
                .iter()
                .filter_map(|r| r.get("fingerprint").and_then(Json::str))
                .collect();
            if prints.windows(2).any(|p| p[0] != p[1]) {
                v.push(format!(
                    "sim_fingerprint differs between rounds: {prints:?}"
                ));
            }
        } else {
            let met = self
                .field("met_pct")
                .iter()
                .zip(self.field("attempted"))
                .map(|(pct, n)| pct / 100.0 * n)
                .sum::<f64>();
            if met < MIN_WALL_ANSWERED * attempted {
                v.push(format!(
                    "only {met} of {attempted} wall-clock queries banked a stage"
                ));
            }
        }
        v
    }

    /// One per-operation series of every round.
    fn series(&self, name: &str) -> Vec<Vec<f64>> {
        self.rounds
            .iter()
            .map(|r| {
                r.get(name)
                    .map_or(&[][..], Json::arr)
                    .iter()
                    .filter_map(Json::num)
                    .collect()
            })
            .collect()
    }

    /// The timing metrics, from each operation's quietest round: every
    /// round runs the same operations with the same seeds, so the
    /// smallest of an operation's wall times is the one the host
    /// disturbed least. Percentiles are then over operations, and a
    /// slow tail that is the work's own — more stages, an older heap —
    /// stays in them.
    fn timings(&self) -> Vec<(&'static str, f64)> {
        let wall_ms: Vec<f64> = quietest_per_op(&self.series("wall_ns"), Better::Lower)
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        let blocks = quietest_per_op(&self.series("blocks"), Better::Higher);
        let answers = quietest_per_op(&self.series("answers"), Better::Higher);
        let warm = (wall_ms.len() as f64 * WARMUP_SHARE).ceil() as usize;
        let timed = warm.min(wall_ms.len())..;
        let per_job = self.workload.jobs_per_op() as f64;
        let job_ms: Vec<f64> = wall_ms[timed.clone()]
            .iter()
            .map(|ms| ms / per_job)
            .collect();
        let wall_s = wall_ms[timed.clone()].iter().sum::<f64>() / 1e3;
        vec![
            ("query_wall_ms_p50", median(&job_ms)),
            ("query_wall_ms_p95", quantile(&job_ms, 0.95)),
            ("batch_wall_ms_p50", median(&wall_ms[timed.clone()])),
            ("batch_wall_ms_p95", quantile(&wall_ms[timed.clone()], 0.95)),
            (
                "blocks_per_wall_s",
                blocks[timed.clone()].iter().sum::<f64>() / wall_s,
            ),
            (
                "jobs_per_wall_s",
                answers[timed].iter().sum::<f64>() / wall_s,
            ),
        ]
    }

    fn end_to_end(&self, violations: &[String]) -> Json {
        let failed = self.sum("failed") + violations.len() as f64;
        let attempted = self.sum("attempted");
        let timings = self.timings();
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                // One reading per round, except the timings, which are
                // already across rounds, and the share of jobs that
                // went right, which is over all of them.
                let timing = timings.iter().find(|t| t.0 == m.name).map(|t| t.1);
                let rounds = match (m.name, timing) {
                    ("ok_pct", _) => vec![100.0 * (1.0 - failed / attempted.max(1.0))],
                    (_, Some(value)) => vec![value],
                    (name, None) => self.field(name),
                };
                // Set-up time is the median of the rounds' set-ups;
                // everything else the quietest round's reading.
                let value = match m.name {
                    "setup_s" => median(&rounds),
                    _ => quietest(&rounds, m.better),
                };
                (
                    m.name,
                    obj(vec![
                        ("value", value.into()),
                        ("unit", m.unit.into()),
                        ("rounds", rounds.into()),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", violations.is_empty().into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("violations", strings(violations)),
            (
                "sim_fingerprint",
                self.rounds[0]
                    .get("fingerprint")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            ("metrics", obj(metrics)),
        ])
    }

    /// The traced child's answer in the result's shape. `shared` is
    /// the workload-independent half when it ran in a child of its
    /// own.
    fn per_layer(&self, shared: Option<&Json>) -> Json {
        let r = &self.rounds[0];
        let merged = |key: &str| -> Vec<(String, Json)> {
            [Some(r), shared]
                .into_iter()
                .flatten()
                .flat_map(|side| side.get(key).map_or(&[][..], Json::entries))
                .cloned()
                .collect()
        };
        let measured = merged("metrics");
        let mut violations: Vec<String> = r
            .get("violations")
            .map_or(&[][..], Json::arr)
            .iter()
            .filter_map(|s| s.str().map(str::to_string))
            .collect();
        // Declaration order, and every metric a number.
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for (name, _) in PER_LAYER {
            match measured.iter().find(|(n, _)| n == name) {
                Some((_, m)) if m.get("value").and_then(Json::num).is_some() => {
                    metrics.push((name.to_string(), m.clone()));
                }
                _ => violations.push(format!("{name} was not measured")),
            }
        }
        let mut fields = vec![
            ("correct".to_string(), violations.is_empty().into()),
            ("violations".to_string(), strings(&violations)),
            ("metrics".to_string(), Json::Obj(metrics)),
            ("layers".to_string(), Json::Obj(merged("layers"))),
        ];
        for key in ["attempted", "failed", "span_fields", "spans"] {
            fields.push((key.to_string(), r.get(key).cloned().unwrap_or(Json::Null)));
        }
        Json::Obj(fields)
    }
}

fn strings(v: &[String]) -> Json {
    Json::Arr(v.iter().map(|s| s.as_str().into()).collect())
}

/// The line the pipeline reads: `correct`, `attempted`, `failed` and
/// each metric's value and unit.
fn contract_line(result: &Json) -> String {
    let pick = |from: &Json, key: &'static str| (key, from.get(key).cloned().unwrap_or(Json::Null));
    let metrics = result
        .get("metrics")
        .map_or(&[][..], Json::entries)
        .iter()
        .map(|(name, m)| (name.clone(), obj(vec![pick(m, "value"), pick(m, "unit")])))
        .collect();
    obj(vec![
        pick(result, "correct"),
        pick(result, "attempted"),
        pick(result, "failed"),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts() -> Json {
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|x| x.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN);
    if load1 > 1.0 {
        eprintln!("warning: 1-minute load average is {load1}; timings will be noisy");
    }
    obj(vec![
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("commit", command_line("git", &["rev-parse", "HEAD"]).into()),
        ("load1", load1.into()),
    ])
}

/// Runs the plan; the process exit code.
pub fn run(plan: &Plan) -> i32 {
    let host = host_facts();
    let mut gathered: Vec<Gathered> = plan
        .workloads
        .iter()
        .map(|&workload| Gathered {
            workload,
            rounds: Vec::new(),
        })
        .collect();

    // A traced run is one child per workload; over several workloads
    // the half that is the same for all of them runs once.
    let split = plan.trace && gathered.len() > 1;
    let shared = if split {
        match child(plan, gathered[0].workload, 0, "layers") {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else {
        None
    };

    // Round-robin: every workload's round r before anyone's r + 1.
    let mut round = 0;
    loop {
        let mut ran = false;
        for g in &mut gathered {
            let done = match (plan.trace, plan.rounds) {
                (true, _) => round >= 1,
                (false, Some(n)) => round >= n,
                (false, None) => round >= MIN_ROUNDS && g.sum("timed_wall_s") >= plan.seconds,
            };
            if done {
                continue;
            }
            match child(
                plan,
                g.workload,
                round,
                if split { "workload" } else { "both" },
            ) {
                Ok(r) => g.rounds.push(r),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
            ran = true;
        }
        if !ran {
            break;
        }
        round += 1;
    }

    let mut results = Vec::with_capacity(gathered.len());
    let mut all_correct = true;
    for g in &gathered {
        let result = if plan.trace {
            g.per_layer(shared.as_ref())
        } else {
            g.end_to_end(&g.violations())
        };
        for v in result.get("violations").map_or(&[][..], Json::arr) {
            eprintln!(
                "check failed on {}: {}",
                g.workload.name,
                v.str().unwrap_or("")
            );
            all_correct = false;
        }
        for (name, m) in result.get("metrics").map_or(&[][..], Json::entries) {
            println!(
                "{} {} {} {}",
                g.workload.name,
                name,
                m.get("value").and_then(Json::num).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::str).unwrap_or("")
            );
        }
        if let Some(print) = result.get("sim_fingerprint").and_then(Json::str) {
            if g.workload.exact() {
                println!("{} sim_fingerprint {print} hex", g.workload.name);
            }
        }
        results.push((g.workload.name, result));
    }

    if let Some(path) = &plan.out {
        let file = obj(vec![
            ("schema", 1u64.into()),
            ("mode", if plan.trace { "trace" } else { "run" }.into()),
            ("seed", plan.seed.into()),
            ("rounds", (round as u64).into()),
            ("ops_scale", plan.ops_scale.into()),
            ("host", host),
            ("workloads", obj(results.clone())),
        ]);
        let written = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, file.pretty()));
        if let Err(e) = written {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
    }
    for (_, result) in &results {
        println!("{}", contract_line(result));
    }
    if all_correct {
        0
    } else {
        2
    }
}

pub fn list() {
    for w in &WORKLOADS {
        println!("workload {} ops={} {}", w.name, w.ops, w.why);
    }
    for m in &END_TO_END {
        println!("end_to_end {} {}", m.name, m.unit);
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

// ---------------------------------------------------------------
// agree
// ---------------------------------------------------------------

/// The regression bound of every end-to-end metric, from the
/// `end_to_end` list of `BENCHMARK.json`.
fn declared_bounds(benchmark: &Json) -> Vec<(String, f64)> {
    benchmark
        .get("end_to_end")
        .map_or(&[][..], Json::arr)
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// One row per (workload, metric): both values, the bound applied and
/// whether either side is worse than the other by more than it. Two
/// runs of one commit have no parent and child, so the check is
/// symmetric. An exact metric of a simulated workload at the same
/// seed must be bit-identical, which is tighter than the one bound
/// per metric the declaration has room for.
pub fn agree(a: &Json, b: &Json, benchmark: &Json) -> (Vec<String>, usize) {
    let bounds = declared_bounds(benchmark);
    let same_seed = a.get("seed") == b.get("seed") && a.get("ops_scale") == b.get("ops_scale");
    let mut rows = Vec::new();
    let mut breaches = 0;
    for w in &WORKLOADS {
        let side = |file: &Json| file.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            continue;
        };
        if w.exact() && same_seed {
            let (fa, fb) = (wa.get("sim_fingerprint"), wb.get("sim_fingerprint"));
            let ok = fa == fb;
            breaches += usize::from(!ok);
            rows.push(format!(
                "{} sim_fingerprint {} {} identical {}",
                w.name,
                fa.and_then(Json::str).unwrap_or("-"),
                fb.and_then(Json::str).unwrap_or("-"),
                if ok { "ok" } else { "BREACH" }
            ));
        }
        for m in &END_TO_END {
            let value = |side: &Json| {
                side.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::num)
            };
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                continue;
            };
            let must_match = m.exact && w.exact() && same_seed;
            let bound = if must_match {
                0.0
            } else {
                bounds
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(f64::NAN, |(_, b)| *b)
            };
            let worse = worsening(va, vb, m.better).max(worsening(vb, va, m.better));
            let ok = if must_match {
                va.to_bits() == vb.to_bits()
            } else {
                worse <= bound
            };
            breaches += usize::from(!ok);
            rows.push(format!(
                "{} {} {va} {vb} {} bound={bound} worse_by={worse:.4} {}",
                w.name,
                m.name,
                m.unit,
                if ok { "ok" } else { "BREACH" }
            ));
        }
    }
    (rows, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(seed: u64, wall_ms: f64, half_width: f64) -> Json {
        let metric = |v: f64| obj(vec![("value", v.into())]);
        obj(vec![
            ("seed", seed.into()),
            ("ops_scale", 1.0.into()),
            (
                "workloads",
                obj(vec![(
                    "select_row",
                    obj(vec![
                        ("sim_fingerprint", "00ff".into()),
                        (
                            "metrics",
                            obj(vec![
                                ("query_wall_ms_p50", metric(wall_ms)),
                                ("rel_half_width_p50", metric(half_width)),
                                ("blocks_per_wall_s", metric(1000.0 / wall_ms)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn benchmark() -> Json {
        json::parse(
            r#"{"end_to_end":[
                {"name":"query_wall_ms_p50","unit":"ms","better":"lower","bound":0.1},
                {"name":"blocks_per_wall_s","unit":"1/s","better":"higher","bound":0.1},
                {"name":"rel_half_width_p50","unit":"ratio","better":"lower","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn agree_passes_within_bounds_and_flags_breaches() {
        let a = result_file(1989, 5.0, 0.02);
        let (rows, breaches) = agree(&a, &result_file(1989, 5.4, 0.02), &benchmark());
        assert_eq!(breaches, 0, "{rows:#?}");
        assert_eq!(rows.len(), 4);
        let (rows, breaches) = agree(&a, &result_file(1989, 5.6, 0.02), &benchmark());
        assert_eq!(breaches, 2, "{rows:#?}");
        // Symmetric: the slower side may be either file.
        assert_eq!(agree(&result_file(1989, 5.6, 0.02), &a, &benchmark()).1, 2);
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit_at_one_seed() {
        let a = result_file(1989, 5.0, 0.02);
        let nudged = result_file(1989, 5.0, 0.02 + 1e-12);
        assert_eq!(agree(&a, &nudged, &benchmark()).1, 1);
        // At another seed the declared bound applies instead.
        assert_eq!(agree(&a, &result_file(7, 5.0, 0.0201), &benchmark()).1, 0);
    }

    #[test]
    fn timings_come_from_each_operations_quietest_round() {
        // Two rounds of 40 batches of 8 jobs. Every batch takes 8 ms
        // when undisturbed; each round is disturbed at different
        // batches, and the first two (5 %) are warm-up.
        let round = |slow: &[usize]| {
            let wall: Vec<f64> = (0..40)
                .map(|i| {
                    if slow.contains(&i) || i < 2 {
                        16e6
                    } else {
                        8e6
                    }
                })
                .collect();
            obj(vec![
                ("wall_ns", wall.into()),
                ("blocks", vec![800.0; 40].into()),
                ("answers", vec![8.0; 40].into()),
                ("attempted", 320u64.into()),
            ])
        };
        let g = Gathered {
            workload: &WORKLOADS[4],
            rounds: vec![round(&[5, 6, 7, 30]), round(&[10, 11, 30])],
        };
        let t = g.timings();
        let value = |name: &str| t.iter().find(|x| x.0 == name).unwrap().1;
        // Batch 30 was slow in both rounds: it stays, alone, in the tail.
        assert_eq!(value("batch_wall_ms_p50"), 8.0);
        assert_eq!(value("query_wall_ms_p50"), 1.0);
        assert_eq!(value("batch_wall_ms_p95"), 8.0);
        let wall_s = (37.0 * 8.0 + 16.0) / 1e3;
        assert!((value("blocks_per_wall_s") - 38.0 * 800.0 / wall_s).abs() < 1e-6);
        assert!((value("jobs_per_wall_s") - 38.0 * 8.0 / wall_s).abs() < 1e-6);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let result = obj(vec![
            ("correct", true.into()),
            ("attempted", 400u64.into()),
            ("failed", 0u64.into()),
            ("violations", Json::Arr(vec![])),
            (
                "metrics",
                obj(vec![(
                    "setup_s",
                    obj(vec![
                        ("value", 0.25.into()),
                        ("unit", "s".into()),
                        ("rounds", vec![0.25].into()),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            contract_line(&result),
            r#"{"correct":true,"attempted":400,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
