//! Tooling around the single run: every workload several times with
//! medians and quartiles (`--all`), the same checks at 1/20 size
//! (`--smoke`), and the comparison of two result files (`--compare`).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::json::{self, map, named, numbers, text, Value};
use crate::run::{self, Options, Outcome};
use crate::spec::{Better, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;

/// The history of full runs, one line each, kept in the repository.
const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/trajectory.jsonl");

#[derive(Debug, Clone)]
pub struct AllOptions {
    pub seed: u64,
    /// Runs per workload; run `r` uses seed `seed + r`.
    pub runs: usize,
    pub seconds: f64,
    /// Also make one traced run per workload.
    pub traced: bool,
    pub out: Option<String>,
    /// Restrict to one workload.
    pub only: Option<String>,
}

fn summary(unit: &str, values: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(values);
    map([
        ("unit", text(unit)),
        ("median", Value::F64(stats::median(values))),
        ("q1", Value::F64(q1)),
        ("q3", Value::F64(q3)),
        ("n", Value::U64(values.len() as u64)),
        ("values", numbers(values)),
    ])
}

fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs every workload `runs` times, interleaved round-robin so that a
/// noisy minute on a shared host lands on all workloads rather than one,
/// prints the medians and writes the result file. Returns whether every
/// output was correct and nothing failed.
pub fn all(options: &AllOptions) -> bool {
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| options.only.as_deref().is_none_or(|only| only == w.name))
        .collect();
    let mut outcomes: BTreeMap<&str, Vec<Outcome>> = BTreeMap::new();
    for r in 0..options.runs {
        for workload in &workloads {
            outcomes
                .entry(workload.name)
                .or_default()
                .push(run::run(Options {
                    workload,
                    seed: options.seed + r as u64,
                    seconds: options.seconds,
                    trace: false,
                    shrink: 1,
                }));
        }
    }
    let mut traced: BTreeMap<&str, Outcome> = BTreeMap::new();
    if options.traced {
        for workload in &workloads {
            traced.insert(
                workload.name,
                run::run(Options {
                    workload,
                    seed: options.seed,
                    seconds: options.seconds,
                    trace: true,
                    shrink: 1,
                }),
            );
        }
    }

    let mut sound = true;
    let mut medians = Vec::new();
    let mut sections = Vec::new();
    println!(
        "{:<8} {:<20} {:>14} {:>14} {:>14} {:>4} {:>8}  unit",
        "workload", "metric", "median", "q1", "q3", "n", "spread"
    );
    for workload in &workloads {
        let runs = &outcomes[workload.name];
        let attempted: u64 = runs.iter().map(|o| o.attempted).sum();
        let failed: u64 = runs.iter().map(|o| o.failed).sum();
        let correct =
            runs.iter().all(|o| o.correct) && traced.get(workload.name).is_none_or(|o| o.correct);
        sound &= correct && failed == 0;
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|o| o.metric(metric.name)).collect();
            let (q1, q3) = stats::quartiles(&values);
            println!(
                "{:<8} {:<20} {:>14.4} {:>14.4} {:>14.4} {:>4} {:>7.1}%  {}",
                workload.name,
                metric.name,
                stats::median(&values),
                q1,
                q3,
                values.len(),
                100.0 * stats::spread(&values),
                metric.unit
            );
            medians.push((
                format!("{}.{}", workload.name, metric.name),
                Value::F64(stats::median(&values)),
            ));
            end_to_end.push((metric.name.to_owned(), summary(metric.unit, &values)));
        }
        println!(
            "{:<8} attempted {attempted}, failed {failed}, outputs {}",
            workload.name,
            if correct { "correct" } else { "WRONG" }
        );
        let per_layer = traced.get(workload.name).map_or(Value::Null, |o| {
            named(o.metrics.iter().map(|m| {
                (
                    m.name.to_owned(),
                    map([("unit", text(m.unit)), ("value", Value::F64(m.value))]),
                )
            }))
        });
        sections.push((
            workload.name.to_owned(),
            map([
                ("why", text(workload.why)),
                ("correct", Value::Bool(correct)),
                ("attempted", Value::U64(attempted)),
                ("failed", Value::U64(failed)),
                ("end_to_end", named(end_to_end)),
                ("per_layer", per_layer),
            ]),
        ));
    }
    if let Some(outcome) = traced.values().next() {
        println!(
            "per-layer metrics (one traced run per workload, seed {}):",
            options.seed
        );
        for (i, metric) in outcome.metrics.iter().enumerate() {
            let row: Vec<String> = workloads
                .iter()
                .map(|w| format!("{:>14.3}", traced[w.name].metrics[i].value))
                .collect();
            println!("  {:<40} {} {}", metric.name, row.join(" "), metric.unit);
        }
    }

    // What both the result file and the trajectory line start with.
    let commit = commit();
    let headed = |last: (&str, Value)| {
        named(
            [
                ("commit", text(&commit)),
                ("seed", Value::U64(options.seed)),
                ("host_cpus", Value::U64(host_cpus())),
                ("runs", Value::U64(options.runs as u64)),
                ("run_seconds", Value::F64(options.seconds)),
                last,
            ]
            .map(|(key, value)| (key.to_owned(), value)),
        )
    };
    if let Some(out) = &options.out {
        let results = headed(("workloads", named(sections)));
        let rendered = serde_json::to_string_pretty(&results).expect("results serialize");
        match std::fs::write(out, rendered + "\n") {
            Ok(()) => println!("wrote {out}"),
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                sound = false;
            }
        }
    }
    if options.only.is_none() {
        let line = json::render(&headed(("medians", named(medians))));
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(TRAJECTORY)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {TRAJECTORY}: {e}");
        }
    }
    sound
}

/// Every workload at 1/20 size, one rep, then its traced run: the same
/// checks as a measured run in well under 30 s. The numbers mean nothing.
pub fn smoke() -> bool {
    let mut sound = true;
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let outcome = run::run(Options {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
                shrink: 20,
            });
            sound &= outcome.correct && outcome.failed == 0;
            if let Err(e) = json::parse(&outcome.result_line()) {
                eprintln!("{}: result line does not parse: {e}", workload.name);
                sound = false;
            }
        }
    }
    println!("smoke: {}", if sound { "ok" } else { "FAILED" });
    sound
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `unresolved` when either side's inter-quartile spread exceeds the
/// bound (the runs cannot tell a regression of that size from noise),
/// `worse` when B's median is worse than A's by more than the bound.
pub fn verdict(better: Better, bound: f64, a: (f64, f64, f64), b: (f64, f64, f64)) -> Verdict {
    let spread = |(median, q1, q3): (f64, f64, f64)| (q3 - q1) / median.abs();
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if better.worsening(a.0, b.0) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per (metric, workload) of two result files. `Ok(true)`
/// when no row is `worse` and the failure counts agree.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_results(path_a)?, load_results(path_b)?);
    let mut clean = true;
    println!(
        "{:<8} {:<20} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    for workload in &WORKLOADS {
        let section = |results: &Value| {
            json::get(results, "workloads")
                .and_then(|w| json::get(w, workload.name))
                .cloned()
        };
        let (Some(sa), Some(sb)) = (section(&a), section(&b)) else {
            println!("{:<8} missing from one of the files", workload.name);
            continue;
        };
        for metric in &END_TO_END {
            let read = |section: &Value| -> Result<(f64, f64, f64), String> {
                let m = json::get(section, "end_to_end")
                    .and_then(|e| json::get(e, metric.name))
                    .ok_or_else(|| format!("{}: no {}", workload.name, metric.name))?;
                Ok((
                    json::number(m, "median")?,
                    json::number(m, "q1")?,
                    json::number(m, "q3")?,
                ))
            };
            let (ma, mb) = (read(&sa)?, read(&sb)?);
            let v = verdict(metric.better, metric.bound, ma, mb);
            clean &= v != Verdict::Worse;
            let range = |m: (f64, f64, f64)| format!("[{:.4}, {:.4}]", m.1, m.2);
            println!(
                "{:<8} {:<20} {:>12.4} {:>25} {:>12.4} {:>25} {:>6.2}  {}",
                workload.name,
                metric.name,
                ma.0,
                range(ma),
                mb.0,
                range(mb),
                metric.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failures = |s: &Value| (json::number(s, "failed"), json::get(s, "correct").cloned());
        let same = failures(&sa) == failures(&sb);
        clean &= same;
        println!(
            "{:<8} failed / correct: {}",
            workload.name,
            if same { "identical" } else { "DIFFER" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let tight = |median: f64| (median, median * 0.99, median * 1.01);
        // Throughput down 20% against a 10% bound: worse.
        assert_eq!(
            verdict(Better::Higher, 0.10, tight(100.0), tight(80.0)),
            Verdict::Worse
        );
        // Down 5%: inside the bound.
        assert_eq!(
            verdict(Better::Higher, 0.10, tight(100.0), tight(95.0)),
            Verdict::Ok
        );
        // A cost going down is never worse.
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(100.0), tight(50.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(100.0), tight(120.0)),
            Verdict::Worse
        );
        // Quartiles wider than the bound: the runs cannot resolve it.
        let noisy = (100.0, 90.0, 110.0);
        assert_eq!(
            verdict(Better::Higher, 0.10, noisy, tight(80.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn summaries_parse_back() {
        let rendered = json::render(&summary("ms", &[1.0, 2.0, 4.0]));
        let parsed = json::parse(&rendered).expect("summary parses");
        assert_eq!(json::number(&parsed, "median"), Ok(2.0));
        assert_eq!(json::number(&parsed, "n"), Ok(3.0));
        assert_eq!(json::number(&parsed, "q3"), Ok(4.0));
    }
}
