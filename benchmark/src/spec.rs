//! The benchmark's names: every metric with its unit, direction and bound,
//! and `BENCHMARK.json` rendered from these tables (`--spec`), so the file
//! at the repo root and the program cannot drift apart.

use serde_json::Value;

use crate::json::{map, seq, text};
use crate::workloads::WORKLOADS;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The directory that holds the benchmark (`paths`).
pub const PATH: &str = "benchmark";

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` the value `new` is worse (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

/// A metric a user of the system would see, measured with tracing off on
/// every workload. The bounds are as tight as the reference host allows:
/// README.md, "Sizing, spreads and bounds", has the measured spreads.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mevent",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (module), from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = the part of the name before the first dot = the module timed.
/// README.md says which end-to-end metric each should move, and where.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("mrt.decode.events", "count", Higher),
    layer("mrt.decode.ns_per_event", "ns", Lower),
    layer("mrt.decode.bytes_per_event", "B", Lower),
    layer("mrt.encode.ns_per_event", "ns", Lower),
    layer("collector.augment.ns_per_event", "ns", Lower),
    layer("collector.augment.events_out", "count", Higher),
    layer("collector.augment.withdraws_filtered", "count", Lower),
    layer("stemming.windows", "count", Lower),
    layer("stemming.window_events_p50", "count", Lower),
    layer("stemming.window_events_max", "count", Lower),
    layer("stemming.distinct_sequences", "count", Lower),
    layer("stemming.count.ns_per_event", "ns", Lower),
    layer("stemming.decompose.ns_per_event", "ns", Lower),
    layer("stemming.decompose.rounds", "count", Lower),
    layer("classify.ns_per_component", "ns", Lower),
    layer("classify.reports", "count", Higher),
    layer("pipeline.detector.ns_per_event", "ns", Lower),
    layer("pipeline.sync_events_per_s", "1/s", Higher),
    layer("pipeline.window_assembly.ns_per_event", "ns", Lower),
    layer("pipeline.checkpoint.calls", "count", Lower),
    layer("pipeline.checkpoint.events_cloned", "count", Lower),
    layer("pipeline.checkpoint.ns_per_call", "ns", Lower),
    layer("pipeline.envelope.ns_per_event", "ns", Lower),
    layer("pipeline.producer_blocked_s", "s", Lower),
    layer("pipeline.queue_depth_max", "count", Lower),
    layer("pipeline.restarts", "count", Lower),
    layer("shard.route.ns_per_event", "ns", Lower),
    layer("shard.skew", "ratio", Lower),
    layer("shard.merge.ms", "ms", Lower),
    layer("shard.pipeline.ns_per_event", "ns", Lower),
    layer("replay.record.ns_per_event", "ns", Lower),
    layer("replay.record.bytes_per_event", "B", Lower),
    layer("replay.record.frames", "count", Lower),
    layer("replay.load.ms", "ms", Lower),
    layer("replay.seek.p50_ms", "ms", Lower),
    layer("replay.seek.max_ms", "ms", Lower),
    layer("replay.timeline.ms", "ms", Lower),
    layer("replay.animation.ms", "ms", Lower),
    layer("ingest.decode.busy_s", "s", Lower),
    layer("ingest.decode.blocked_out_s", "s", Lower),
    layer("ingest.augment.busy_s", "s", Lower),
    layer("ingest.augment.blocked_in_s", "s", Lower),
    layer("ingest.augment.blocked_out_s", "s", Lower),
    layer("ingest.merge.ns_per_event", "ns", Lower),
    layer("ingest.source_share_min", "ratio", Higher),
    layer("ingest.residual_pct", "%", Lower),
    layer("netsim.sim.wall_s", "s", Lower),
    layer("netsim.sim.deliveries_per_s", "1/s", Higher),
    layer("live.report_latency_p50_ms", "ms", Lower),
    layer("live.report_latency_p99_ms", "ms", Lower),
    layer("live.generator_late_p99_ms", "ms", Lower),
    layer("live.backlog_max", "count", Lower),
    layer("live.late_reports", "count", Lower),
    layer("trace.events_per_s", "1/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// `BENCHMARK.json`, exactly the keys the contract prescribes.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| map([("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            map([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
                ("bound", Value::F64(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            map([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
            ])
        })
        .collect();
    let spec = map([
        ("command", seq(COMMAND.iter().map(|s| text(s)).collect())),
        ("paths", seq(vec![text(PATH)])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", seq(workloads)),
        ("end_to_end", seq(end_to_end)),
        ("per_layer", seq(per_layer)),
    ]);
    let mut out = serde_json::to_string_pretty(&spec).expect("the spec serializes");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && RUN_SECONDS <= 60);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark --spec`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let parsed: Value = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        let Value::Map(keys) = parsed else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
    }
}
