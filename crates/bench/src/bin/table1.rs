//! Regenerates **Table I**: execution times of the TAMP and Stemming
//! algorithms on Berkeley- and ISP-Anon-sized workloads.
//!
//! ```text
//! cargo run --release -p bgpscope-bench --bin table1 [berkeley|isp-anon|all] [--full]
//! ```
//!
//! Without `--full` the largest rows are scaled down ~10× so the harness
//! finishes quickly; `--full` runs the paper-sized workloads (1.5M routes,
//! 1M-event animations). Absolute times will differ from the paper's 2005
//! Pentium 4 — the claims to check are the *scaling shape* and the
//! real-time margin (run time ≪ timerange). The margin is checked: after
//! printing the tables, the harness exits 1, naming the rows, when a TAMP
//! animation or Stemming row's RT ratio (timerange ÷ run time) is ≤ 1. The
//! scaling shape is printed, not asserted, since a ratio of two timings
//! varies with the host's load.

use std::process::ExitCode;
use std::time::Instant;

use bgpscope::prelude::*;
use bgpscope_bench::{berkeley_stream, fmt_secs, isp_stream};

struct Args {
    site: String,
    full: bool,
}

fn main() -> ExitCode {
    let mut args = Args {
        site: "all".to_owned(),
        full: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--full" => args.full = true,
            other => args.site = other.to_owned(),
        }
    }
    let f = if args.full { 1.0 } else { 0.1 };
    let mut slow = Vec::new();

    if args.site == "berkeley" || args.site == "all" {
        println!("== Table I(a): Berkeley ==  (scale factor {f})");
        slow.extend(table_for_site(
            "Berkeley",
            // Picture rows: scenario scale — paper rows: 230k, 115k, 23k
            // routes.
            &[10.0 * f, 5.0 * f, 1.0 * f],
            // Animation rows: (events, timerange secs) — paper: 1k/423s,
            // 10k/36min, 100k/7.6h, 1000k/33.6h.
            &[
                (1_000, 423.0),
                (10_000, 2_160.0),
                (100_000, 27_360.0),
                ((1_000_000f64 * f) as usize, 120_960.0 * f),
            ],
            // Stemming rows: paper 12k/189s, 57k/882s, 330k/16.3min.
            &[
                (12_000, 189.0),
                (57_000, 882.0),
                ((330_000f64 * f.max(0.05)) as usize, 978.0),
            ],
            berkeley_routes,
            berkeley_stream,
        ));
    }
    if args.site == "isp-anon" || args.site == "all" {
        println!("\n== Table I(b): ISP-Anon ==  (scale factor {f})");
        slow.extend(table_for_site(
            "ISP-Anon",
            // Paper rows: 1500k, 750k, 150k routes.
            &[1.0 * f, 0.5 * f, 0.1 * f],
            // Paper: 1k/226s, 10k/621s, 100k/2.3h, 1000k/20.5h.
            &[
                (1_000, 226.0),
                (10_000, 621.0),
                (100_000, 8_280.0),
                ((1_000_000f64 * f) as usize, 73_800.0 * f),
            ],
            // Paper: 214k/61.7min, 346k/51.7min, 791k/1.7h.
            &[
                ((214_000f64 * f.max(0.05)) as usize, 3_702.0),
                ((346_000f64 * f.max(0.05)) as usize, 3_102.0),
                ((791_000f64 * f.max(0.05)) as usize, 6_120.0),
            ],
            isp_routes,
            isp_stream,
        ));
    }
    if slow.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "table1: run time not below the timerange (RT ratio <= 1): {}",
        slow.join("; ")
    );
    ExitCode::FAILURE
}

/// Timerange ÷ run time: above 1 when the run keeps up with the events.
fn rt_ratio(stream: &EventStream, elapsed: f64) -> f64 {
    stream.timerange().as_secs_f64() / elapsed.max(1e-9)
}

fn berkeley_routes(scale: f64) -> Vec<RouteInput> {
    Berkeley::with_scale(scale)
        .routes()
        .iter()
        .map(RouteInput::from_route)
        .collect()
}

fn isp_routes(scale: f64) -> Vec<RouteInput> {
    IspAnon::with_scale(scale)
        .routes_iter()
        .map(|r| RouteInput::from_route(&r))
        .collect()
}

fn table_for_site(
    label: &str,
    picture_rows: &[f64],
    animation_rows: &[(usize, f64)],
    stemming_rows: &[(usize, f64)],
    make_routes: fn(f64) -> Vec<RouteInput>,
    make_stream: fn(usize, Timestamp) -> EventStream,
) -> Vec<String> {
    let mut slow = Vec::new();
    println!("-- TAMP picture --");
    println!("{:>12} {:>12}", "No. routes", "Run time");
    for &scale in picture_rows {
        let routes = make_routes(scale);
        let started = Instant::now();
        let mut builder = GraphBuilder::new(label);
        for r in &routes {
            builder.add(r.clone());
        }
        let graph = prune_flat(&builder.finish(), 0.05);
        let elapsed = started.elapsed().as_secs_f64();
        println!(
            "{:>12} {:>12}   ({} nodes / {} edges after pruning)",
            routes.len(),
            fmt_secs(elapsed),
            graph.node_count(),
            graph.edge_count()
        );
    }

    println!("-- TAMP animation --");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "No. events", "Timerange", "Run time", "RT ratio"
    );
    for &(n, span_secs) in animation_rows {
        if n == 0 {
            continue;
        }
        let stream = make_stream(n, Timestamp::from_secs(span_secs as u64));
        let started = Instant::now();
        let animation = Animator::new(label).animate(&stream);
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(animation.frame_count(), 750);
        let ratio = rt_ratio(&stream, elapsed);
        if ratio <= 1.0 {
            slow.push(format!("{label} TAMP animation, {} events", stream.len()));
        }
        println!(
            "{:>12} {:>12} {:>12} {:>9.0}x",
            stream.len(),
            fmt_secs(stream.timerange().as_secs_f64()),
            fmt_secs(elapsed),
            ratio
        );
    }

    println!("-- Stemming --");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "No. events", "Timerange", "Run time", "RT ratio"
    );
    for &(n, span_secs) in stemming_rows {
        if n == 0 {
            continue;
        }
        let stream = make_stream(n, Timestamp::from_secs(span_secs as u64));
        let started = Instant::now();
        let result = Stemming::new().decompose(&stream);
        let elapsed = started.elapsed().as_secs_f64();
        let ratio = rt_ratio(&stream, elapsed);
        if ratio <= 1.0 {
            slow.push(format!("{label} Stemming, {} events", stream.len()));
        }
        println!(
            "{:>12} {:>12} {:>12} {:>9.0}x   ({} components, {:.0}% coverage)",
            stream.len(),
            fmt_secs(stream.timerange().as_secs_f64()),
            fmt_secs(elapsed),
            ratio,
            result.components().len(),
            result.coverage() * 100.0
        );
    }
    slow
}
