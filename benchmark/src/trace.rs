//! The traced run: spans recorded by the benchmark around its own calls
//! into each layer, in two passes — an *isolated* pass that drives each
//! layer alone over the workload's inputs, and a *wrapped* pass around the
//! real end-to-end run — and the per-layer metrics read off them.
//!
//! Spans inside the program are a later change; until then a layer's cost
//! inside the running pipeline is inferred from differences between
//! isolated passes (spawned − synchronous = supervisor envelope, recorded
//! − unrecorded = recorder), and `ingest.residual_pct` says how much of the
//! end-to-end time those passes fail to explain.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, RunSpec, Spawned};
use crate::json::{self, map, seq, text, Value};
use crate::rep::{self, Rep};
use crate::setup::{self, Prepared, Reference};
use crate::spec::PER_LAYER;
use crate::stats;
use crate::workloads::Rng;

/// Seeks the read-side pass makes into the recording.
const SEEKS: usize = 200;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Units of work the span covered (events, calls, …).
    pub count: u64,
    /// Where the next lumped child starts, relative to `start_ns`.
    lumped_ns: u64,
}

/// An in-memory span recorder; written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name` covering `count` units.
    pub fn span<T>(&mut self, name: &str, count: u64, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            count,
            lumped_ns: 0,
        });
        self.open.push(id);
        let result = work(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Records time that was accumulated over many short calls inside the
    /// open span as one child of it, laid end to end after earlier lumps.
    pub fn lump(&mut self, name: &str, seconds: f64, count: u64) {
        let parent = *self.open.last().expect("a lump needs an open span");
        let start_ns = self.spans[parent].start_ns + self.spans[parent].lumped_ns;
        let ns = (seconds * 1e9) as u64;
        self.spans[parent].lumped_ns += ns;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            count,
            lumped_ns: 0,
        });
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e9
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Prints every span with its total and self time, children indented.
    pub fn report(&self) {
        eprintln!("{}: spans (total s, self s, count)", self.workload);
        for (id, span) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut at = span.parent;
            while let Some(parent) = at {
                depth += 1;
                at = self.spans[parent].parent;
            }
            eprintln!(
                "  {:indent$}{:<width$} {:>9.4} {:>9.4} {:>9}",
                "",
                span.name,
                (span.end_ns - span.start_ns) as f64 / 1e9,
                self.self_seconds(id),
                span.count,
                indent = 2 * depth,
                width = 32 - 2 * depth,
            );
        }
    }

    pub fn to_json(&self) -> Value {
        seq(self
            .spans
            .iter()
            .map(|s| {
                map([
                    ("name", text(&s.name)),
                    ("workload", text(self.workload)),
                    ("start_ns", Value::U64(s.start_ns)),
                    ("end_ns", Value::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("count", Value::U64(s.count)),
                ])
            })
            .collect())
    }

    pub fn write(&self, path: &Path) {
        if let Err(e) = std::fs::write(path, json::render(&self.to_json())) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
}

/// What the traced run hands back.
pub struct Traced {
    /// One value per entry of [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    /// The wrapped and the untraced end-to-end reps.
    pub reps: Vec<Rep>,
    /// Every isolated pass that produces reports produced the reference's.
    pub isolated_correct: bool,
    pub errors: Vec<String>,
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        seconds * 1e9 / count as f64
    }
}

fn same_reports(got: &[u64], expected: &[u64]) -> bool {
    got.len() == expected.len() && setup::matched(got, expected) == expected.len()
}

/// Feeds pre-augmented events closed loop through a spawned pipeline.
/// Returns (report keys, seconds inside `ingest_event`, deepest queue,
/// restarts).
fn spawned_pass(
    events: &[adapter::Event],
    recording: Option<&Path>,
) -> (Vec<u64>, f64, usize, u64) {
    let mut pipeline = Spawned::spawn(recording);
    let (mut keys, mut blocked, mut depth) = (Vec::new(), 0.0, 0);
    for (i, event) in events.iter().enumerate() {
        let entered = Instant::now();
        pipeline.ingest_event(event.clone());
        blocked += entered.elapsed().as_secs_f64();
        if i % 1024 == 0 {
            depth = depth.max(pipeline.queue_len());
            pipeline.poll_reports(&mut keys);
        }
    }
    let outcome = pipeline.finish();
    keys.extend(outcome.reports);
    (keys, blocked, depth, outcome.restarts)
}

pub fn run(prepared: &Prepared, reference: &Reference, seed: u64, rep_limit: Duration) -> Traced {
    let workload = prepared.workload;
    let dir = prepared.dir.as_path();
    let events = prepared.events() as u64;
    let augmented = &reference.augmented;
    let forwarded = augmented.len() as u64;
    let mut t = Tracer::new(workload.name);
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    };
    let mut isolated_correct = true;
    let mut errors = Vec::new();

    // ---- isolated pass: each layer alone over the same inputs ----------
    let stem_s = t.span("isolated", events, |t| {
        t.span("mrt.encode", events, |_| {
            for part in &prepared.parts {
                std::hint::black_box(part.encode());
            }
        });
        let decoded: u64 = t.span("mrt.decode", events, |_| {
            (0..prepared.parts.len())
                .map(|i| setup::decode_archive(dir, i).len() as u64)
                .sum()
        });
        set("mrt.decode.events", decoded as f64);
        set(
            "mrt.decode.ns_per_event",
            ns_per(t.seconds("mrt.decode"), decoded),
        );
        set(
            "mrt.decode.bytes_per_event",
            prepared.archive_bytes as f64 / events as f64,
        );
        set(
            "mrt.encode.ns_per_event",
            ns_per(t.seconds("mrt.encode"), events),
        );

        let generated = prepared.generated.len() as u64;
        let (out, filtered) = t.span("collector.augment", generated, |_| {
            adapter::augment(&prepared.generated)
        });
        isolated_correct &= out == *augmented;
        set(
            "collector.augment.ns_per_event",
            ns_per(t.seconds("collector.augment"), generated),
        );
        set("collector.augment.events_out", out.len() as f64);
        set("collector.augment.withdraws_filtered", filtered as f64);
        drop(out);

        let single = t.span("pipeline.detector", forwarded, |_| {
            adapter::oracle(augmented)
        });
        let detector_s = single.elapsed_s;
        let sizes: Vec<f64> = single
            .windows
            .iter()
            .map(|c| (c.end - c.start) as f64)
            .collect();
        set("stemming.windows", sizes.len() as f64);
        if !sizes.is_empty() {
            set(
                "stemming.window_events_p50",
                stats::percentile(&sizes, 50.0),
            );
            set(
                "stemming.window_events_max",
                stats::percentile(&sizes, 100.0),
            );
        }
        set(
            "pipeline.detector.ns_per_event",
            ns_per(detector_s, forwarded),
        );
        set("pipeline.sync_events_per_s", forwarded as f64 / detector_s);

        let costs = t.span("kernels", forwarded, |t| {
            let costs = adapter::kernels(augmented, &single.windows);
            t.lump("stemming.count", costs.count_s, costs.events);
            t.lump("stemming.decompose", costs.decompose_s, costs.events);
            t.lump("classify", costs.classify_s, costs.reports);
            costs
        });
        isolated_correct &= costs.reports == single.reports.len() as u64;
        set(
            "stemming.distinct_sequences",
            costs.distinct_sequences as f64,
        );
        set(
            "stemming.count.ns_per_event",
            ns_per(costs.count_s, costs.events),
        );
        set(
            "stemming.decompose.ns_per_event",
            ns_per(costs.decompose_s, costs.events),
        );
        set("stemming.decompose.rounds", costs.rounds as f64);
        set(
            "classify.ns_per_component",
            ns_per(costs.classify_s, costs.reports),
        );
        set("classify.reports", costs.reports as f64);
        set(
            "pipeline.window_assembly.ns_per_event",
            ns_per(detector_s - costs.decompose_s - costs.classify_s, forwarded),
        );

        t.span("checkpoint-cadence", forwarded, |t| {
            let (calls, cloned, inside) = adapter::checkpoint_cadence(augmented);
            t.lump("pipeline.checkpoint", inside, calls);
            set("pipeline.checkpoint.calls", calls as f64);
            set("pipeline.checkpoint.events_cloned", cloned as f64);
            set("pipeline.checkpoint.ns_per_call", ns_per(inside, calls));
        });

        let (keys, blocked, depth, restarts) = t.span("pipeline.spawned", forwarded, |_| {
            spawned_pass(augmented, None)
        });
        isolated_correct &= same_reports(&keys, &single.reports);
        let spawned_s = t.seconds("pipeline.spawned");
        set(
            "pipeline.envelope.ns_per_event",
            ns_per(spawned_s - detector_s, forwarded),
        );
        set("pipeline.producer_blocked_s", blocked);
        set("pipeline.queue_depth_max", depth as f64);
        set("pipeline.restarts", restarts as f64);
        let mut stem_s = spawned_s;

        if workload.shards > 1 {
            let counts = t.span("shard.route", forwarded, |_| {
                adapter::route_counts(augmented, workload.shards)
            });
            std::hint::black_box(counts);
            set(
                "shard.route.ns_per_event",
                ns_per(t.seconds("shard.route"), forwarded),
            );
            let (keys, _, merge_s) = t.span("shard.pipeline", forwarded, |_| {
                adapter::sharded_run(augmented, workload.shards)
            });
            isolated_correct &= same_reports(&keys, &reference.oracle.reports);
            set("shard.merge.ms", merge_s * 1e3);
            // The span also holds the benchmark's re-run of the merge.
            stem_s = t.seconds("shard.pipeline") - merge_s;
            set("shard.pipeline.ns_per_event", ns_per(stem_s, forwarded));
        }
        if workload.recorded {
            let recording = dir.join("isolated-recording");
            let (keys, ..) = t.span("pipeline.recorded", forwarded, |_| {
                spawned_pass(augmented, Some(&recording))
            });
            isolated_correct &= same_reports(&keys, &single.reports);
            let record_s = t.seconds("pipeline.recorded") - spawned_s;
            set("replay.record.ns_per_event", ns_per(record_s, forwarded));
            stem_s += record_s;
        }
        if workload.sources > 1 {
            let whole = dir.join("whole.mrt");
            let archive = adapter::Archive::from_events(prepared.generated.clone());
            std::fs::write(&whole, archive.encode()).expect("write whole.mrt");
            let mut unrecorded = |name: &str, archives: Vec<std::path::PathBuf>| {
                let outcome = t.span(name, events, |_| {
                    adapter::run_ingest(&RunSpec {
                        archives,
                        shards: workload.shards,
                        recording: None,
                    })
                });
                isolated_correct &= same_reports(&outcome.reports, &reference.oracle.reports);
            };
            unrecorded(
                "ingest.fanin",
                (0..workload.sources)
                    .map(|i| setup::archive_path(dir, i))
                    .collect(),
            );
            unrecorded("ingest.single", vec![whole]);
            set(
                "ingest.merge.ns_per_event",
                ns_per(
                    t.seconds("ingest.fanin") - t.seconds("ingest.single"),
                    events,
                ),
            );
        }
        stem_s
    });

    // ---- wrapped pass: the real end-to-end run, once under a span in
    // this process and once untraced in a process of its own -------------
    let wrapped = t.span("e2e", events, |_| {
        rep::run_here(workload, dir, events, forwarded)
    });
    set("trace.events_per_s", wrapped.events_per_s());
    let layers = &wrapped.layers;
    set("ingest.decode.busy_s", layers.decode_busy_s);
    set("ingest.decode.blocked_out_s", layers.decode_blocked_out_s);
    set("ingest.augment.busy_s", layers.augment_busy_s);
    set("ingest.augment.blocked_in_s", layers.augment_blocked_in_s);
    set("ingest.augment.blocked_out_s", layers.augment_blocked_out_s);
    let share = |counts: &[f64], pick: fn(f64, f64) -> f64| {
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        counts.iter().copied().reduce(pick).unwrap_or(0.0) / mean
    };
    if layers.source_events.len() > 1 {
        set(
            "ingest.source_share_min",
            share(&layers.source_events, f64::min),
        );
    }
    if layers.shard_events.len() > 1 {
        set("shard.skew", share(&layers.shard_events, f64::max));
    }
    let slowest_stage = t
        .seconds("mrt.decode")
        .max(t.seconds("collector.augment"))
        .max(stem_s);
    set(
        "ingest.residual_pct",
        100.0 * (wrapped.elapsed_s - slowest_stage) / wrapped.elapsed_s,
    );

    if workload.recorded && layers.shard_events.len() > 1 {
        // The read side, on what the wrapped run's busiest shard recorded.
        let busiest = (0..layers.shard_events.len())
            .max_by(|&a, &b| layers.shard_events[a].total_cmp(&layers.shard_events[b]))
            .expect("at least one shard");
        let recording = adapter::shard_recording(&setup::recording_path(dir), busiest);
        let mut rng = Rng(seed);
        let targets: Vec<f64> = (0..SEEKS).map(|_| rng.unit()).collect();
        let costs = t.span("replay.read", SEEKS as u64, |t| {
            let costs = adapter::replay_scrub(&recording, &targets);
            t.lump("replay.load", costs.load_s, 1);
            t.lump("replay.seek", costs.seeks_s.iter().sum(), SEEKS as u64);
            t.lump("replay.timeline", costs.timeline_s, 1);
            t.lump("replay.animation", costs.animation_s, 1);
            costs
        });
        isolated_correct &= costs.events_total == layers.shard_events[busiest] as u64;
        let seeks_ms: Vec<f64> = costs.seeks_s.iter().map(|s| s * 1e3).collect();
        set("replay.load.ms", costs.load_s * 1e3);
        set("replay.seek.p50_ms", stats::percentile(&seeks_ms, 50.0));
        set("replay.seek.max_ms", stats::percentile(&seeks_ms, 100.0));
        set("replay.timeline.ms", costs.timeline_s * 1e3);
        set("replay.animation.ms", costs.animation_s * 1e3);
        set("replay.record.frames", costs.frames as f64);
        set(
            "replay.record.bytes_per_event",
            adapter::recording_bytes(&recording) as f64 / costs.events_total.max(1) as f64,
        );
    }

    let mut reps = vec![wrapped];
    match rep::run_child(prepared, forwarded, rep_limit) {
        Ok(untraced) => {
            set(
                "trace.overhead_pct",
                100.0 * (untraced.events_per_s() - reps[0].events_per_s())
                    / untraced.events_per_s(),
            );
            if workload.open_loop_rate.is_some() {
                let live = &untraced.layers;
                if !stats::percentile_supported(live.latency_samples as usize, 99.0) {
                    eprintln!(
                        "{}: only {} report latencies; p99 needs ten samples beyond it",
                        workload.name, live.latency_samples
                    );
                }
                set("live.report_latency_p50_ms", live.latency_p50_ms);
                set("live.report_latency_p99_ms", live.latency_p99_ms);
                set("live.generator_late_p99_ms", live.generator_late_p99_ms);
                set("live.backlog_max", live.backlog_max);
                set("live.late_reports", live.late_reports);
            }
            reps.push(untraced);
        }
        Err(e) => errors.push(e),
    }
    if prepared.sim.wall_s > 0.0 {
        set("netsim.sim.wall_s", prepared.sim.wall_s);
        set(
            "netsim.sim.deliveries_per_s",
            prepared.sim.deliveries as f64 / prepared.sim.wall_s,
        );
    }

    Traced {
        metrics: m,
        tracer: t,
        reps,
        isolated_correct,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("test");
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            t.lump("lumped", 0.005, 3);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].start_ns, spans[0].start_ns);
        let outer = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        let children = t.seconds("inner") + t.seconds("lumped");
        assert!((t.self_seconds(0) - (outer - children).max(0.0)).abs() < 1e-6);
        assert!(t.seconds("inner") >= 0.02);
    }

    #[test]
    fn spans_render_as_json_that_parses() {
        let mut t = Tracer::new("test");
        t.span("outer", 7, |t| t.lump("part", 0.001, 2));
        let parsed = json::parse(&json::render(&t.to_json())).expect("span JSON parses");
        let Value::Seq(spans) = parsed else {
            panic!("spans are a list")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(json::string(&spans[1], "name"), Some("part"));
        assert_eq!(json::number(&spans[1], "parent"), Ok(0.0));
        assert_eq!(json::get(&spans[0], "parent"), Some(&Value::Null));
    }
}
