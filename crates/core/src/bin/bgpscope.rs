//! The `bgpscope` command-line tool.
//!
//! ```text
//! bgpscope detect   <events.(mrt|txt)> [--json]   # Stemming + classification
//! bgpscope picture  <events.(mrt|txt)> [out.svg]  # TAMP picture of final state
//! bgpscope animate  <events.(mrt|txt)> <out-dir>  # frame SVGs of the incident
//! bgpscope rate     <events.(mrt|txt)> [bucket-secs]
//! bgpscope pipeline <events.(mrt|txt)> [--capacity N] [--policy P]
//!                   [--checkpoint-interval N]
//!                   [--adaptive [--target-depth N]]
//!                   [--shards N] [--quarantine-after R]
//!                   [--record PATH [--frames-per-segment N] [--label S]]
//! bgpscope ingest   <archive.mrt> [archive2.mrt …] [--lossy] [--passthrough]
//!                   [--buffer-capacity BYTES] [--batch N] [--channel-batches N]
//!                   [--capacity N] [--policy P] [--shards N] [--bench FILE]
//!                   [--retries N] [--backoff-ms N] [--stall-timeout-ms N]
//!                   [--poison-threshold N]
//! bgpscope record   <events.(mrt|txt)> <recording> [pipeline flags]
//!                   # = pipeline <events> --record <recording> [flags]
//! bgpscope replay   <recording> [--seek T|--hotspot N] [--step K] [--rate R]
//!                   [--frames DIR] [--timeline] [--span SECS]
//! bgpscope convert  <in.(mrt|txt)> <out.(mrt|txt)>
//! bgpscope demo     <out.mrt>                     # write a demo incident
//! ```
//!
//! Event files are either the binary MRT-style format (`.mrt`) or the
//! Figure-4-style text format (anything else). Text traces are read
//! lossily: corrupt lines are skipped with a warning (and counted in the
//! pipeline ledger) instead of failing the whole trace.
//!
//! `ingest` accepts several archives at once: each becomes a supervised
//! source decoded on its own worker and fanned deterministically into one
//! stem pipeline, with per-source retry/backoff, stall watchdogs, and
//! poison-record quarantine (see the `--retries`/`--backoff-ms`/
//! `--stall-timeout-ms`/`--poison-threshold` knobs). A source is supervised
//! as a `pipeline` shard is: `--retries` and `--quarantine-after` budget one
//! kind of restart policy, whose backoff doubles from its base
//! (`--backoff-ms`) up to 64× it, and both report one kind of health.
//!
//! Exit codes: 0 success, 1 usage error, 2 I/O or parse failure (including
//! every ingest source quarantined), 3 partial ingest — some sources were
//! quarantined but the survivors completed, so the printed result is valid
//! but incomplete.

use std::fs;
use std::num::NonZeroU64;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use bgpscope::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("detect") => with_stream(&args, 2, |stream, rest| {
            cmd_detect(stream, rest.iter().any(|a| a == "--json"))
        }),
        Some("picture") => with_stream(&args, 2, |stream, rest| {
            cmd_picture(stream, rest.first().map(String::as_str))
        }),
        Some("animate") => with_stream(&args, 3, |stream, rest| cmd_animate(stream, &rest[0])),
        Some("rate") => match args.get(2) {
            None => Ok(Seconds(60)),
            Some(_) => value(&mut args[2..].iter(), "bucket-s"),
        }
        .map_err(Into::into)
        .and_then(|bucket| with_stream(&args, 2, |stream, _| cmd_rate(stream, bucket))),
        Some("pipeline") => {
            if args.len() < 2 {
                return usage();
            }
            cmd_pipeline(&args[1], &args[2..])
        }
        Some("ingest") => {
            if args.len() < 2 {
                return usage();
            }
            // `ingest` owns its exit story: 0 clean, 2 failed, 3 partial
            // (some sources quarantined, results valid but incomplete).
            return cmd_ingest(&args[1..]);
        }
        Some("record") => {
            if args.len() < 3 {
                return usage();
            }
            let rest: Vec<String> = ["--record", &args[2]]
                .into_iter()
                .map(String::from)
                .chain(args[3..].iter().cloned())
                .collect();
            cmd_pipeline(&args[1], &rest)
        }
        Some("replay") => {
            if args.len() < 2 {
                return usage();
            }
            cmd_replay(&args[1], &args[2..])
        }
        Some("convert") => {
            if args.len() != 3 {
                return usage();
            }
            load(&args[1]).and_then(|s| save(&args[2], &s))
        }
        Some("demo") => {
            if args.len() != 2 {
                return usage();
            }
            cmd_demo(&args[1])
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bgpscope: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bgpscope <detect|picture|animate|rate|pipeline|ingest|record|replay|convert|demo> <args…>\n\
         \n\
         detect   <events>             decompose + classify anomalies\n\
         picture  <events> [out.svg]   TAMP picture of the final routing state\n\
         animate  <events> <out-dir>   write key animation frames as SVG\n\
         rate     <events> [bucket-s]  event-rate series + spikes\n\
         pipeline <events> [--capacity N] [--policy block|drop-newest|drop-oldest|degrade]\n\
         \u{20}                 [--checkpoint-interval N] [--adaptive [--target-depth N]]\n\
         \u{20}                 [--shards N] [--quarantine-after R]\n\
         \u{20}                 [--record PATH [--frames-per-segment N] [--label S]]\n\
         \u{20}                             replay through the supervised realtime pipeline;\n\
         \u{20}                             --shards N fans out over supervised shards with\n\
         \u{20}                             per-shard quarantine, --record PATH records the run\n\
         ingest   <archive.mrt> [archive2.mrt …] [--lossy] [--passthrough]\n\
         \u{20}                 [--buffer-capacity BYTES] [--batch N] [--channel-batches N]\n\
         \u{20}                 [--capacity N] [--policy P] [--shards N] [--bench FILE]\n\
         \u{20}                 [--retries N] [--backoff-ms N] [--stall-timeout-ms N]\n\
         \u{20}                 [--poison-threshold N]\n\
         \u{20}                             stream archive(s) through decode → augment → stem;\n\
         \u{20}                             several archives fan in as supervised sources\n\
         \u{20}                             (exit 3 = partial: some sources quarantined)\n\
         record   <events> <recording> [--capacity N] [--policy P]\n\
         \u{20}                 [--checkpoint-interval N] [--frames-per-segment N] [--label S]\n\
         \u{20}                             = pipeline <events> --record <recording>, which\n\
         \u{20}                             takes every pipeline flag\n\
         replay   <recording> [--seek T|--hotspot N] [--step K] [--rate R]\n\
         \u{20}                 [--frames DIR] [--timeline] [--span SECS]\n\
         \u{20}                             scrub a recording: seek a cursor (or hotspot),\n\
         \u{20}                             step events, play at a rate, print the ledger\n\
         \u{20}                             and reports at the cursor, export TAMP frames\n\
         convert  <in> <out>           convert between .mrt and text formats\n\
         demo     <out.mrt>            write a demo incident to analyze"
    );
    ExitCode::FAILURE
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The value of a value-taking flag: the next argument, parsed. The one
/// place the two flag errors are worded.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// A positive whole number of seconds whose microseconds fit a
/// [`Timestamp`]: `rate`'s bucket width and `replay --span`.
#[derive(Clone, Copy)]
struct Seconds(u64);

impl Seconds {
    fn timestamp(self) -> Timestamp {
        Timestamp::from_secs(self.0)
    }
}

impl FromStr for Seconds {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let secs = s.parse::<NonZeroU64>().map_err(|e| e.to_string())?.get();
        match secs.checked_mul(1_000_000) {
            Some(_) => Ok(Seconds(secs)),
            None => Err(format!(
                "{secs} s is longer than a timestamp holds ({} s)",
                u64::MAX / 1_000_000
            )),
        }
    }
}

/// A dead run is never a silent run: its final ledger goes to stderr.
fn eprint_ledger(stats: &impl std::fmt::Display, json: &str) {
    eprintln!("{stats}\nledger {json}");
}

fn with_stream(
    args: &[String],
    min_args: usize,
    f: impl FnOnce(EventStream, &[String]) -> CliResult,
) -> CliResult {
    if args.len() < min_args {
        return Err("missing arguments (run with no args for usage)".into());
    }
    let stream = load(&args[1])?;
    f(stream, &args[2..])
}

fn load(path: &str) -> Result<EventStream, Box<dyn std::error::Error>> {
    load_lossy(path).map(|(stream, _)| stream)
}

/// Loads a trace, skipping (and counting) corrupt text lines rather than
/// failing the whole file. Binary traces stay strict — a corrupt
/// length-prefixed record poisons everything after it anyway.
fn load_lossy(path: &str) -> Result<(EventStream, usize), Box<dyn std::error::Error>> {
    let p = Path::new(path);
    if p.extension().and_then(|e| e.to_str()) == Some("mrt") {
        let data = fs::read(p)?;
        Ok((read_events(data.as_slice())?, 0))
    } else {
        let text = fs::read_to_string(p)?;
        let (stream, errors) = text_to_events_lossy(&text);
        if !errors.is_empty() {
            eprintln!(
                "bgpscope: {path}: skipped {} corrupt line(s), first: {}",
                errors.len(),
                errors[0]
            );
        }
        Ok((stream, errors.len()))
    }
}

fn save(path: &str, stream: &EventStream) -> CliResult {
    let p = Path::new(path);
    if p.extension().and_then(|e| e.to_str()) == Some("mrt") {
        let mut buf = Vec::new();
        write_events(&mut buf, stream)?;
        fs::write(p, buf)?;
    } else {
        fs::write(p, bgpscope_mrt::events_to_text(stream))?;
    }
    println!("wrote {} events to {path}", stream.len());
    Ok(())
}

fn cmd_detect(stream: EventStream, json: bool) -> CliResult {
    if json {
        let result = Stemming::new().decompose(&stream);
        let reports: Vec<AnomalyReport> = result
            .components()
            .iter()
            .map(|c| AnomalyReport::new(c, classify(c, &stream), result.symbols()))
            .collect();
        println!("{}", serde_json::to_string_pretty(&reports)?);
        return Ok(());
    }
    println!(
        "{} events over {} ({} announce / {} withdraw)",
        stream.len(),
        stream.timerange(),
        stream.counts().0,
        stream.counts().1
    );
    let result = Stemming::new().decompose(&stream);
    if result.components().is_empty() {
        println!("no correlated components found");
        return Ok(());
    }
    for (i, component) in result.components().iter().enumerate() {
        let verdict = classify(component, &stream);
        let report = AnomalyReport::new(component, verdict, result.symbols());
        print!("component {i}:\n{report}");
    }
    println!(
        "residual: {} events ({:.0}% coverage)",
        result.residual_indices().len(),
        result.coverage() * 100.0
    );
    // Semantic scanners on top of the statistical decomposition.
    for conflict in scan_moas(&stream) {
        let origins: Vec<String> = conflict
            .origins
            .iter()
            .map(|(a, t)| format!("{a} (first seen {t})"))
            .collect();
        println!(
            "MOAS conflict on {}: {}",
            conflict.prefix,
            origins.join(", ")
        );
    }
    for burst in scan_deaggregation(&stream, 10) {
        println!(
            "deaggregation under {}: {} more-specifics between {} and {}",
            burst.aggregate,
            burst.specifics.len(),
            burst.start,
            burst.end
        );
    }
    Ok(())
}

fn cmd_picture(stream: EventStream, out: Option<&str>) -> CliResult {
    let mut builder = GraphBuilder::new("bgpscope");
    for event in &stream {
        builder.apply_event(event);
    }
    let graph = prune_flat(&builder.finish(), 0.05);
    println!(
        "final state: {} prefixes, {} nodes / {} edges after 5% pruning",
        graph.total_prefix_count(),
        graph.node_count(),
        graph.edge_count()
    );
    let out = out.unwrap_or("picture.svg");
    fs::write(out, render_svg(&graph, &RenderConfig::default()))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_animate(stream: EventStream, out_dir: &str) -> CliResult {
    fs::create_dir_all(out_dir)?;
    let animation = Animator::new("bgpscope").animate(&stream);
    for (name, idx) in [
        ("frame_000.svg", 0usize),
        ("frame_250.svg", 249),
        ("frame_500.svg", 499),
        ("frame_749.svg", 749),
    ] {
        fs::write(
            Path::new(out_dir).join(name),
            animation.render_frame_svg(idx),
        )?;
    }
    fs::write(
        Path::new(out_dir).join("animation.svg"),
        animation.render_animated_svg(64),
    )?;
    println!(
        "wrote 4 key frames + self-playing animation.svg of {} frames to {out_dir}/ (incident spans {})",
        animation.frame_count(),
        animation.timerange()
    );
    Ok(())
}

fn cmd_rate(stream: EventStream, bucket: Seconds) -> CliResult {
    let series = EventRateMeter::new(bucket.timestamp()).series(&stream);
    println!(
        "{} buckets of {}s; grass level {}, mean {:.1}, max {}",
        series.counts().len(),
        bucket.0,
        series.grass_level(),
        series.mean(),
        series.counts().iter().max().unwrap_or(&0)
    );
    for spike in series.spikes(3.0) {
        println!(
            "spike {} .. {}: {} events (peak {})",
            spike.start, spike.end, spike.events, spike.peak
        );
    }
    Ok(())
}

/// Replays a trace through the sharded supervised realtime pipeline
/// (`--shards`, default 1) behind bounded queues, then prints the merged
/// global incidents and the global plus per-shard event ledger
/// (human-readable plus one machine-readable JSON line). When every shard
/// dies mid-replay the final ledger still comes out — on stderr, with a
/// nonzero exit — so a crashed run is never a silent run.
///
/// `--record PATH` arms a recorder: every ingested event, restart,
/// emitted report and periodic ledger snapshot goes into an append-only
/// segmented recording (manifest at `PATH`, frames at `PATH.seg<k>`; with
/// more than one shard, one recording per shard at `PATH.shard<k>`), ready
/// for `bgpscope replay`. `record <events> <recording>` is this command.
fn cmd_pipeline(path: &str, rest: &[String]) -> CliResult {
    let mut capacity = 65_536usize;
    let mut policy = OverloadPolicy::Block;
    let mut checkpoint_interval = 256usize;
    let mut adaptive = false;
    let mut target_depth: Option<u64> = None;
    let mut shards = 1usize;
    let mut quarantine_after: Option<u32> = None;
    let mut recorder: Option<RecorderConfig> = None;
    let mut frames_per_segment: Option<usize> = None;
    let mut label: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--capacity" => capacity = value(&mut it, arg)?,
            "--policy" => policy = value(&mut it, arg)?,
            "--checkpoint-interval" => checkpoint_interval = value(&mut it, arg)?,
            "--adaptive" => adaptive = true,
            "--shards" => shards = value(&mut it, arg)?,
            "--quarantine-after" => quarantine_after = Some(value(&mut it, arg)?),
            "--target-depth" => target_depth = Some(value(&mut it, arg)?),
            "--record" => recorder = Some(RecorderConfig::new(value::<String>(&mut it, arg)?)),
            "--frames-per-segment" => frames_per_segment = Some(value(&mut it, arg)?),
            "--label" => label = Some(value(&mut it, arg)?),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if target_depth.is_some() && !adaptive {
        return Err("--target-depth requires --adaptive".into());
    }
    if recorder.is_none() && (frames_per_segment.is_some() || label.is_some()) {
        return Err("--frames-per-segment and --label require --record".into());
    }
    let (stream, parse_errors) = load_lossy(path)?;
    let mut supervisor = SupervisorConfig::default().with_checkpoint_interval(checkpoint_interval);
    if let Some(restarts) = quarantine_after {
        supervisor = supervisor.with_max_restarts(restarts);
    }
    let mut spawn = SpawnConfig::new(PipelineConfig::default())
        .with_capacity(capacity)
        .with_overload(policy)
        .with_supervisor(supervisor);
    if adaptive {
        // 0 means "derive from the queue capacity at spawn".
        spawn = spawn.with_adaptive(
            ControllerConfig::default().with_target_depth(target_depth.unwrap_or(0)),
        );
    }
    let recording = recorder.as_ref().map(|r| r.path.display().to_string());
    if let Some(mut recorder) = recorder {
        if let Some(frames) = frames_per_segment {
            recorder = recorder.with_frames_per_segment(frames);
        }
        if let Some(label) = label {
            recorder = recorder.with_label(label);
        }
        spawn = spawn.with_recorder(recorder);
    }
    let run = replay_trace(&stream, parse_errors, spawn, shards)?;
    for (i, incident) in run.incidents.iter().enumerate() {
        print!("incident {i}:\n{incident}");
    }
    for panic in &run.panics {
        println!("panic on {panic}");
    }
    let quarantined = run.stats.quarantined_shards();
    if !quarantined.is_empty() {
        println!("quarantined shards: {quarantined:?} — their keyspace is degraded, losses counted on the ledger");
    }
    println!(
        "{} global incident(s) over {} shard(s); policy {policy}, capacity {capacity}\n{}",
        run.incidents.len(),
        run.stats.shards.len(),
        run.stats
    );
    if let Some(path) = recording {
        let suffix = if shards > 1 { ".shard<k>" } else { "" };
        println!("recorded to {path}{suffix} (+ .seg* segments)");
    }
    println!("ledger {}", run.stats.to_json());
    Ok(())
}

/// Replays a loaded trace through the sharded supervised pipeline (one
/// shard is the unsharded run). A quarantined shard degrades its keyspace
/// (losses stay on the ledger); the replay fails — ledger on stderr — only
/// when *every* shard has quarantined.
fn replay_trace(
    stream: &EventStream,
    parse_errors: usize,
    spawn: SpawnConfig,
    shards: usize,
) -> Result<ShardedRun, Box<dyn std::error::Error>> {
    let mut pipeline = ShardedPipeline::spawn(ShardedConfig::new(shards, spawn));
    pipeline.record_parse_errors(parse_errors);
    for (i, event) in stream.events().iter().enumerate() {
        if pipeline.ingest_event(event.clone()).is_err() {
            eprintln!(
                "bgpscope: every shard quarantined at event {i}/{}",
                stream.len()
            );
            let run = pipeline.finish_merged();
            for panic in &run.panics {
                eprintln!("  {panic}");
            }
            eprint_ledger(&run.stats, &run.stats.to_json());
            return Err(PipelineClosed.into());
        }
    }
    Ok(pipeline.finish_merged())
}

/// Streams one or more MRT archives through the staged batch pipeline
/// (decode → augment → stem) in constant memory, then prints the reports,
/// the ingest summary and the exact event ledger. `--bench FILE` also
/// writes the machine-readable report (`IngestReport::bench_json`).
///
/// Every archive is one source of the same fan-in. A single archive with
/// no supervision flags is read once and fails on its first fault. With
/// several archives (or any of `--retries`, `--backoff-ms`,
/// `--stall-timeout-ms`, `--poison-threshold`) each archive becomes a
/// supervised source: transient read errors are retried with backoff,
/// stalled or poisoned sources are quarantined, and the survivors' merged
/// result still comes out. Exit codes: 0 clean, 2 hard
/// failure (including *every* source quarantined), 3 partial result —
/// some sources were quarantined but the rest completed.
fn cmd_ingest(args: &[String]) -> ExitCode {
    match run_ingest(args) {
        Ok(partial) if partial => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bgpscope: {e}");
            ExitCode::from(2)
        }
    }
}

/// The fallible body of `cmd_ingest`. `Ok(true)` means the run succeeded
/// but is partial (at least one source quarantined).
fn run_ingest(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let mut paths: Vec<String> = Vec::new();
    let mut config = IngestConfig::default();
    let mut source_policy = SourcePolicy::default();
    let mut supervised = false;
    let mut capacity = 65_536usize;
    let mut policy = OverloadPolicy::Block;
    let mut bench: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lossy" => config = config.lossy(),
            "--passthrough" => config = config.passthrough(),
            "--buffer-capacity" => config = config.with_buffer_capacity(value(&mut it, arg)?),
            "--batch" => config = config.with_batch_size(value(&mut it, arg)?),
            "--channel-batches" => config = config.with_channel_batches(value(&mut it, arg)?),
            "--capacity" => capacity = value(&mut it, arg)?,
            "--policy" => policy = value(&mut it, arg)?,
            "--shards" => config = config.with_shards(value(&mut it, arg)?),
            "--bench" => bench = Some(value(&mut it, arg)?),
            "--retries" => {
                supervised = true;
                source_policy = source_policy.with_max_retries(value(&mut it, arg)?);
            }
            "--backoff-ms" => {
                supervised = true;
                source_policy =
                    source_policy.with_backoff(Duration::from_millis(value(&mut it, arg)?));
            }
            "--stall-timeout-ms" => {
                supervised = true;
                // 0 would quarantine every source before it delivers.
                let ms = value::<NonZeroU64>(&mut it, arg)?.get();
                source_policy = source_policy.with_stall_timeout(Duration::from_millis(ms));
            }
            "--poison-threshold" => {
                supervised = true;
                source_policy = source_policy.with_poison_threshold(value(&mut it, arg)?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        return Err("ingest needs at least one archive path".into());
    }
    config = config.with_spawn(
        SpawnConfig::new(PipelineConfig::default())
            .with_capacity(capacity)
            .with_overload(policy),
    );
    // One fan-in either way: a single archive with no supervision flags is
    // its one source, read once and never retried; otherwise each archive
    // is a named source whose factory reopens the file on every retry
    // rebuild.
    let result = if paths.len() == 1 && !supervised {
        ingest(std::io::BufReader::new(fs::File::open(&paths[0])?), config)
    } else {
        let mut multi = MultiSourceIngest::new(config, source_policy);
        for path in &paths {
            let reopen = path.clone();
            multi = multi.source(SourceSpec::new(path.clone(), move || {
                fs::File::open(&reopen)
                    .map(|f| Box::new(std::io::BufReader::new(f)) as Box<dyn std::io::Read + Send>)
            }));
        }
        multi.run()
    };
    let report = match result {
        Ok(report) => report,
        Err(IngestError::Pipeline { cause, stats }) => {
            eprintln!("bgpscope: stem pipeline closed mid-ingest: {cause}");
            eprint_ledger(&stats, &stats.to_json());
            return Err(PipelineClosed.into());
        }
        Err(e) => {
            if let IngestError::AllSourcesQuarantined { sources, stats } = &e {
                for source in sources {
                    eprintln!("  {source}");
                }
                eprint_ledger(stats, &stats.to_json());
            }
            return Err(e.into());
        }
    };
    print_ingest_report(&report, bench.as_deref())?;
    Ok(report.is_partial())
}

/// Shared success-path output for both ingest legs: anomaly reports, the
/// ingest summary (including per-source ledgers and any PARTIAL RESULT
/// banner), the pipeline stats, the machine-readable ledger line, and the
/// optional bench file.
fn print_ingest_report(
    report: &IngestReport,
    bench: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    for (i, anomaly) in report.reports.iter().enumerate() {
        print!("report {i}:\n{anomaly}");
    }
    print!("{report}");
    println!("{}", report.stats);
    println!("ledger {}", report.stats.to_json());
    if let Some(out) = bench {
        fs::write(out, report.bench_json())?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Scrubs a recording: positions the cursor (`--seek T` seconds into the
/// recording, `--hotspot N` to the Nth densest timeline bucket, or the
/// end when neither is given), optionally steps `--step K` further events
/// and plays `--rate R` recording-seconds per wall-second, then prints
/// the reconstructed ledger and the reports emitted up to the cursor.
/// `--timeline` prints the bucketed anomaly-density histogram with its
/// top hotspots; `--frames DIR` exports the TAMP frame sequence of the
/// trailing `--span SECS` (default 30) window at the cursor.
fn cmd_replay(recording: &str, rest: &[String]) -> CliResult {
    let mut seek: Option<f64> = None;
    let mut hotspot: Option<usize> = None;
    let mut step: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut frames_dir: Option<String> = None;
    let mut timeline = false;
    let mut span = Seconds(30);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seek" => seek = Some(value(&mut it, arg)?),
            "--hotspot" => hotspot = Some(value(&mut it, arg)?),
            "--step" => step = Some(value(&mut it, arg)?),
            "--rate" => rate = Some(value(&mut it, arg)?),
            "--frames" => frames_dir = Some(value(&mut it, arg)?),
            "--timeline" => timeline = true,
            "--span" => span = value(&mut it, arg)?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if seek.is_some() && hotspot.is_some() {
        return Err("--seek and --hotspot are mutually exclusive".into());
    }
    let mut replay = Replay::load(recording)?;
    println!(
        "recording \"{}\": {} events, {} frames{}",
        replay.manifest().label,
        replay.events_total(),
        replay.frames_total(),
        if replay.truncated() {
            " [truncated — torn tail recovered to the last complete frame]"
        } else {
            ""
        }
    );
    if timeline {
        let tl = replay.timeline();
        print!("{}", tl.render());
        for h in tl.hotspots(5) {
            println!(
                "hotspot {}: {} .. {} — {} events, {} report(s), {} restart(s){}",
                h.rank,
                h.start,
                h.end,
                h.events,
                h.reports,
                h.restarts,
                if h.stems.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", h.stems.join(", "))
                }
            );
        }
    }
    if let Some(t) = seek {
        if !t.is_finite() || t < 0.0 {
            return Err("--seek: seconds must be finite and non-negative".into());
        }
        replay.seek_time(Timestamp::from_micros((t * 1e6) as u64))?;
    } else if let Some(i) = hotspot {
        let h = replay.seek_hotspot(i)?;
        println!(
            "seeked to hotspot {}: {} .. {} ({} events, {} report(s))",
            h.rank, h.start, h.end, h.events, h.reports
        );
    } else if step.is_none() && rate.is_none() {
        replay.to_end()?;
    }
    if let Some(k) = step {
        let applied = replay.step(k)?;
        println!("stepped {applied} event(s)");
    }
    if let Some(r) = rate {
        // Accelerated playback: each iteration advances one wall-second's
        // worth (`rate` recording-seconds); the playhead keeps moving
        // through quiet gaps until the cursor reaches the end.
        let mut played = 0u64;
        while replay.cursor_events() < replay.events_total() {
            let applied = replay.play(r, Duration::from_secs(1))?;
            if applied > 0 {
                played += applied;
                println!(
                    "play @{r}x: cursor {} ({} events)",
                    replay.cursor_time(),
                    replay.cursor_events()
                );
            }
        }
        println!("played {played} event(s) at {r}x");
    }
    println!(
        "cursor: event {}/{} at {}",
        replay.cursor_events(),
        replay.events_total(),
        replay.cursor_time()
    );
    for (t, cause, gave_up) in replay.restart_log() {
        println!(
            "restart at {t}: {cause}{}",
            if gave_up { " [gave up]" } else { "" }
        );
    }
    for (kind, detail) in replay.transitions() {
        println!("transition [{kind}]: {detail}");
    }
    let reports = replay.reports();
    for (i, report) in reports.iter().enumerate() {
        print!("report {i} (at cursor):\n{report}");
    }
    let stats = replay.stats();
    println!("{stats}");
    println!("ledger {}", stats.to_json());
    if let Some(dir) = frames_dir {
        let span_secs = span.0;
        match replay.animation_at_cursor(span.timestamp())? {
            None => println!("no events in the trailing {span_secs}s window — no frames written"),
            Some(animation) => {
                fs::create_dir_all(&dir)?;
                let count = animation.frame_count();
                for (name, idx) in [
                    ("frame_first.svg", 0usize),
                    ("frame_third.svg", count / 3),
                    ("frame_two_thirds.svg", count * 2 / 3),
                    ("frame_last.svg", count.saturating_sub(1)),
                ] {
                    fs::write(
                        Path::new(&dir).join(name),
                        animation.render_frame_svg(idx.min(count.saturating_sub(1))),
                    )?;
                }
                fs::write(
                    Path::new(&dir).join("animation.svg"),
                    animation.render_animated_svg(64),
                )?;
                println!(
                    "wrote 4 key frames + animation.svg ({count} frames over the trailing {span_secs}s) to {dir}/"
                );
            }
        }
    }
    Ok(())
}

fn cmd_demo(out: &str) -> CliResult {
    // A small simulated session reset, ready for `bgpscope detect`.
    let edge = RouterId::from_octets(10, 0, 0, 1);
    let provider = RouterId::from_octets(192, 0, 2, 1);
    let mut sim = SimBuilder::new(7)
        .router(edge, Asn(65000))
        .router(provider, Asn(701))
        .session(edge, provider, SessionKind::Ebgp)
        .monitor(edge)
        .build();
    for i in 0..120u32 {
        sim.originate(
            provider,
            Prefix::from_octets(20, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24),
            Timestamp::ZERO,
        );
    }
    sim.session_down(edge, provider, Timestamp::from_secs(300));
    sim.session_up(edge, provider, Timestamp::from_secs(360));
    sim.run_to_completion();
    let mut rex = Rex::new("demo");
    rex.ingest_feed(&sim.take_collector_feed());
    save(out, rex.history())
}
