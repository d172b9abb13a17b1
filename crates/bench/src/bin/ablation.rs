//! The four ablation studies of the design choices called out in DESIGN.md
//! §4, each row the fastest of [`RUNS`] timed runs.
//!
//! ```text
//! cargo run --release -p bgpscope-bench --bin ablation
//! ```

use std::hint::black_box;
use std::time::Instant;

use bgpscope::prelude::*;
use bgpscope_bench::{berkeley_stream, fmt_secs};
use bgpscope_tamp::{AnimationConfig, EdgeState};

/// Timed runs per row; a row prints the fastest.
const RUNS: usize = 5;

fn main() {
    ranking();
    subseq_cap();
    flap_threshold();
    prune_schedule();
}

/// The fastest of [`RUNS`] timed calls of `f`, with the last call's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (String, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..RUNS {
        let started = Instant::now();
        let value = black_box(f());
        best = best.min(started.elapsed().as_secs_f64());
        result = Some(value);
    }
    (fmt_secs(best), result.expect("RUNS > 0"))
}

/// Ablation 1: the ranking rule. CountThenLength (the paper-faithful
/// default) vs CountOnly vs CoverageWeighted — the kind of winner they pick
/// differs, and the row shows whether their run time does.
fn ranking() {
    println!("== Ablation 1: Stemming ranking rule (12k-event Berkeley stream) ==");
    let stream = berkeley_stream(12_000, Timestamp::from_secs(600));
    for rule in RankingRule::ALL {
        let config = StemmingConfig {
            ranking: rule,
            ..StemmingConfig::default()
        };
        let (time, result) = fastest(|| Stemming::with_config(config.clone()).decompose(&stream));
        let top = result
            .components()
            .first()
            .expect("the stream's reset spike is a component");
        println!(
            "{:>18} {:>10}   ({} components; top winner {} symbols, stem {})",
            format!("{rule:?}"),
            time,
            result.components().len(),
            top.subsequence.len(),
            top.stem().display(result.symbols())
        );
    }
}

/// Ablation 2: capping enumerated sub-sequence length. AS paths are short,
/// so a small cap barely changes results but bounds the worst case.
fn subseq_cap() {
    println!("\n== Ablation 2: sub-sequence length cap (12k-event Berkeley stream; 0 = none) ==");
    let stream = berkeley_stream(12_000, Timestamp::from_secs(600));
    for cap in [0usize, 4, 6, 10] {
        let config = StemmingConfig {
            max_subseq_len: cap,
            ..StemmingConfig::default()
        };
        let (time, result) = fastest(|| Stemming::with_config(config.clone()).decompose(&stream));
        println!(
            "{cap:>18} {time:>10}   ({} components, {:.0}% coverage)",
            result.components().len(),
            result.coverage() * 100.0
        );
    }
}

/// Ablation 3: animation flap threshold — how the yellow cutoff affects
/// frame-generation cost (it should not; this guards against regressions
/// where state classification becomes the bottleneck).
fn flap_threshold() {
    println!("\n== Ablation 3: animation flap threshold (20k-event Berkeley stream) ==");
    let stream = berkeley_stream(20_000, Timestamp::from_secs(600));
    for threshold in [2u32, 4, 16] {
        let config = AnimationConfig {
            flap_threshold: threshold,
            ..AnimationConfig::default()
        };
        let (time, animation) = fastest(|| {
            Animator::with_config("ablation", Default::default(), config.clone()).animate(&stream)
        });
        let yellow = animation
            .frames()
            .iter()
            .flat_map(|f| &f.changed)
            .filter(|fe| fe.state == EdgeState::Flapping)
            .count();
        println!("{threshold:>18} {time:>10}   ({yellow} yellow edge-frames)");
    }
}

/// Ablation 4: hierarchical-pruning depth schedule vs flat.
fn prune_schedule() {
    println!("\n== Ablation 4: pruning schedule (full Berkeley graph) ==");
    let mut builder = GraphBuilder::new("ablation");
    for r in &Berkeley::with_scale(1.0).routes() {
        builder.add(RouteInput::from_route(r));
    }
    let graph = builder.finish();
    for (name, config) in [
        ("flat_5pct", PruneConfig::flat(0.05)),
        ("hier_default", PruneConfig::hierarchical(0.05)),
        (
            "hier_gradual",
            PruneConfig {
                thresholds_by_depth: vec![0.0, 0.01, 0.02, 0.05, 0.10],
            },
        ),
    ] {
        let (time, pruned) = fastest(|| prune_hierarchical(&graph, &config));
        println!(
            "{name:>18} {time:>10}   ({} nodes / {} edges kept)",
            pruned.node_count(),
            pruned.edge_count()
        );
    }
}
