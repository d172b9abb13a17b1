//! One run of one workload: set-up, reference, measured reps, checks, and
//! the result line the driver reads.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::{self, map, named, text, Value};
use crate::rep::{self, Rep};
use crate::setup::{self, Prepared, Reference};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace;
use crate::workloads::Workload;

/// Set-ups per run: at least three, then more while they are cheap (a
/// 0.1 s set-up timed three times is mostly noise), up to nine. `setup_s`
/// is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Reps per run at least, however long they take.
const MIN_REPS: usize = 3;
/// A run must end within 180 s; past this no new rep starts and a rep
/// still running is killed.
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// No single rep may take longer than this (a healthy one takes 2–4 s).
const REP_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long to keep starting reps.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the timed reps.
    pub trace: bool,
    /// 1 for measured runs, 20 for `--smoke`.
    pub shrink: usize,
}

/// One metric value as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub reps: usize,
}

impl Outcome {
    /// The last line of standard output: exactly the keys the driver
    /// expects.
    pub fn result_line(&self) -> String {
        let metrics = named(self.metrics.iter().map(|m| {
            (
                m.name.to_owned(),
                map([("value", Value::F64(m.value)), ("unit", text(m.unit))]),
            )
        }));
        json::render(&map([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", metrics),
        ]))
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where generated inputs, recordings and span files go: next to the
/// build's `release` directory, so always inside the checkout.
pub fn data_root() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent()
        .and_then(|release| release.parent())
        .expect("the binary sits in <target>/release")
        .join("bench-data")
}

/// Removes a run's files when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Failures a whole rep stands for when it never reported: every event
/// it was given.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn of(prepared: &Prepared, reference: &Reference) -> Tally {
        let sound = reference.archives_round_trip && reference.oracle.dropped == 0;
        if !reference.archives_round_trip {
            eprintln!(
                "{}: an archive did not decode back to its events",
                prepared.workload.name
            );
        }
        if reference.oracle.dropped > 0 {
            eprintln!(
                "{}: the reference dropped {} events; the workload is mis-sized",
                prepared.workload.name, reference.oracle.dropped
            );
        }
        Tally {
            attempted: 0,
            failed: reference.oracle.dropped,
            correct: sound,
        }
    }

    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.events;
        self.failed += rep.failed;
        self.correct &= rep.correct();
    }

    fn lost(&mut self, prepared: &Prepared, why: &str) {
        eprintln!("{why}");
        self.attempted += prepared.events() as u64;
        self.failed += prepared.events() as u64;
        self.correct = false;
    }
}

pub fn run(options: Options) -> Outcome {
    let started = Instant::now();
    let Options {
        workload,
        seed,
        shrink,
        ..
    } = options;
    let dir = DataDir(data_root().join(format!("{}-{seed}-{}", workload.name, std::process::id())));

    let mut prepared = setup::prepare(workload, seed, shrink, &dir.0);
    let mut setups = vec![prepared.elapsed_s];
    while shrink == 1
        && (setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET))
    {
        prepared = setup::prepare(workload, seed, shrink, &dir.0);
        setups.push(prepared.elapsed_s);
    }
    let reference = setup::reference(&prepared);
    let forwarded = reference.augmented.len() as u64;
    let mut tally = Tally::of(&prepared, &reference);
    let rep_limit = || REP_LIMIT.min(RUN_LIMIT.saturating_sub(started.elapsed()));

    let mut outcome = Outcome::default();
    if options.trace {
        let traced = trace::run(&prepared, &reference, seed, rep_limit());
        for rep in &traced.reps {
            tally.add(rep);
        }
        for error in &traced.errors {
            tally.lost(&prepared, error);
        }
        if !traced.isolated_correct {
            eprintln!(
                "{}: an isolated layer pass disagreed with the reference",
                workload.name
            );
            tally.correct = false;
        }
        traced
            .tracer
            .write(&data_root().join(format!("trace-{}.json", workload.name)));
        traced.tracer.report();
        print_breakdown(&traced, &prepared, forwarded, shrink == 1);
        outcome.reps = traced.reps.len();
        outcome.metrics = PER_LAYER
            .iter()
            .map(|l| Metric {
                name: l.name,
                unit: l.unit,
                value: traced.metrics[l.name],
            })
            .collect();
    } else {
        let mut reps: Vec<Rep> = Vec::new();
        let min_reps = if shrink == 1 { MIN_REPS } else { 1 };
        let measuring = Instant::now();
        while outcome.reps < min_reps || measuring.elapsed().as_secs_f64() < options.seconds {
            if started.elapsed() >= RUN_LIMIT {
                break;
            }
            outcome.reps += 1;
            match rep::run_child(&prepared, forwarded, rep_limit()) {
                Ok(rep) => {
                    eprintln!(
                        "  rep {}: {:.0} events/s, {:.2} CPU s, {:.1} MB, {} reports",
                        outcome.reps,
                        rep.events_per_s(),
                        rep.cpu_s,
                        rep.peak_rss_mb,
                        rep.reports
                    );
                    tally.add(&rep);
                    reps.push(rep);
                }
                Err(e) => tally.lost(&prepared, &e),
            }
        }
        let over = |f: fn(&Rep) -> f64| {
            let values: Vec<f64> = reps.iter().map(f).collect();
            if values.is_empty() {
                0.0
            } else {
                stats::median(&values)
            }
        };
        let value = |name: &str| match name {
            "events_per_s" => over(Rep::events_per_s),
            "cpu_s_per_mevent" => over(Rep::cpu_s_per_mevent),
            "peak_rss_mb" => over(|r| r.peak_rss_mb),
            "setup_s" => stats::median(&setups),
            other => panic!("no measurement for end-to-end metric {other}"),
        };
        outcome.metrics = END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: value(m.name),
            })
            .collect();
    }
    outcome.correct = tally.correct;
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;

    eprintln!(
        "{} seed {seed}: {} rep(s), {} events attempted, {} failed, outputs {}",
        workload.name,
        outcome.reps,
        outcome.attempted,
        outcome.failed,
        if outcome.correct { "correct" } else { "WRONG" },
    );
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    outcome
}

/// Where an event's time goes, per layer, next to the end-to-end figure.
fn print_breakdown(traced: &trace::Traced, prepared: &Prepared, forwarded: u64, full_size: bool) {
    let m = &traced.metrics;
    let events = prepared.events() as f64;
    let per_event = |name: &str| m[name] * forwarded as f64 / events;
    let end_to_end = 1e9 / m["trace.events_per_s"];
    let rows = [
        ("mrt decode", m["mrt.decode.ns_per_event"]),
        ("collector augment", m["collector.augment.ns_per_event"]),
        (
            "pipeline window assembly",
            per_event("pipeline.window_assembly.ns_per_event"),
        ),
        (
            "stemming decompose",
            per_event("stemming.decompose.ns_per_event"),
        ),
        (
            "classify",
            m["classify.ns_per_component"] * m["classify.reports"] / events,
        ),
        (
            "pipeline envelope",
            per_event("pipeline.envelope.ns_per_event"),
        ),
        ("shard route", per_event("shard.route.ns_per_event")),
        ("replay record", per_event("replay.record.ns_per_event")),
        ("ingest merge", m["ingest.merge.ns_per_event"]),
    ];
    eprintln!(
        "{}: isolated cost per archive event (end to end {end_to_end:.0} ns/event wall)",
        prepared.workload.name
    );
    for (layer, ns) in rows {
        eprintln!(
            "  {layer:<28} {ns:>10.0} ns  {:>5.1}%",
            100.0 * ns / end_to_end
        );
    }
    let residual = m["ingest.residual_pct"];
    eprintln!("  ingest.residual_pct {residual:.1}%");
    // At 1/20 size thread start-up dominates; on an open-loop run the
    // residual is idle time by design.
    if full_size && prepared.workload.open_loop_rate.is_none() && residual.abs() > 10.0 {
        eprintln!(
            "  WARNING: the isolated passes leave more than 10% of the end-to-end time \
             unexplained; a layer is missing from the cost model"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_and_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            }],
            reps: 3,
        };
        let parsed = json::parse(&outcome.result_line()).expect("the result line parses");
        let Value::Map(fields) = &parsed else {
            panic!("the result is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 even when nothing ran.
        assert_eq!(json::number(&parsed, "attempted"), Ok(1.0));
        let setup = json::get(&parsed, "metrics").and_then(|m| json::get(m, "setup_s"));
        assert_eq!(setup.map(|m| json::number(m, "value")), Some(Ok(0.8127)));
    }
}
