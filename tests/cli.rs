//! Drives the `bgpscope` binary end to end: the self-contained
//! demo → convert → detect → pipeline → record → replay loop, the usage and
//! flag-error exits, and the `ingest --bench` file. Pins what a change to
//! the flag parser may not change: accepted flags, exit codes, the usage
//! text, and the `ledger {json}` line.
//!
//! Every flag `bgpscope` takes is passed by at least one test here whose
//! assertion fails when the flag is parsed and then ignored
//! (`scripts/flag-census.sh` checks that each one is passed at all).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use bgpscope::prelude::PipelineStats;

fn bgpscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpscope"))
        .args(args)
        .output()
        .expect("bgpscope runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch directory (tests run on parallel threads).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpscope-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_in(dir: &Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

/// Writes the demo incident into `dir`: 360 events, one session reset.
fn demo(dir: &Path) -> String {
    let mrt = path_in(dir, "d.mrt");
    let out = bgpscope(&["demo", &mrt]);
    assert!(out.status.success(), "{}", stderr(&out));
    mrt
}

/// [`demo`], converted to the text format.
fn demo_text(dir: &Path) -> String {
    let txt = path_in(dir, "d.txt");
    let out = bgpscope(&["convert", &demo(dir), &txt]);
    assert!(out.status.success(), "{}", stderr(&out));
    txt
}

/// The flat global ledger of the run's `ledger {json}` line.
fn ledger(out: &Output) -> PipelineStats {
    let text = stdout(out);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("ledger "))
        .unwrap_or_else(|| panic!("no ledger line in:\n{text}"));
    serde_json::from_str(line).unwrap_or_else(|e| panic!("ledger does not parse: {e}\n{line}"))
}

/// The JSON file an `ingest --bench` run wrote.
fn bench_file(path: &str) -> serde::Value {
    let json = std::fs::read_to_string(path).expect("bench file written");
    serde_json::from_str(&json).expect("bench file is JSON")
}

/// A list-valued field of a JSON map.
fn list<'a>(value: &'a serde::Value, key: &str) -> &'a [serde::Value] {
    match serde::map_field(value, key) {
        Ok(serde::Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

/// A count-valued field of a JSON map.
fn count(value: &serde::Value, key: &str) -> u64 {
    match serde::map_field(value, key) {
        Ok(serde::Value::U64(n)) => *n,
        other => panic!("{key}: {other:?}"),
    }
}

/// The demo archive with its first record one body byte longer, its
/// length field raised to match: strict decoding refuses the trailing byte.
fn archive_with_trailing_byte(dir: &Path) -> String {
    let mut bytes = std::fs::read(demo(dir)).expect("demo archive");
    let body_len = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(body_len + 1).to_be_bytes());
    bytes.insert(16 + body_len as usize, 0);
    let path = path_in(dir, "trailing.mrt");
    std::fs::write(&path, bytes).expect("write archive");
    path
}

/// The demo archive cut five bytes into its last record.
fn truncated_archive(dir: &Path) -> String {
    let mut bytes = std::fs::read(demo(dir)).expect("demo archive");
    bytes.truncate(bytes.len() - 5);
    let path = path_in(dir, "truncated.mrt");
    std::fs::write(&path, bytes).expect("write archive");
    path
}

#[test]
fn demo_loop_detects_pipelines_records_and_replays() {
    let dir = scratch("loop");
    let txt = demo_text(&dir);
    let rec = path_in(&dir, "d.rec");

    let detect = bgpscope(&["detect", &txt]);
    assert!(detect.status.success(), "{}", stderr(&detect));
    let text = stdout(&detect);
    assert_eq!(text.matches("[session reset]").count(), 1, "{text}");
    assert!(text.contains("component 0:"), "{text}");
    assert!(!text.contains("component 1:"), "{text}");

    let pipeline = bgpscope(&[
        "pipeline",
        &txt,
        "--capacity",
        "8",
        "--policy",
        "degrade",
        "--checkpoint-interval",
        "16",
        "--shards",
        "2",
    ]);
    assert!(pipeline.status.success(), "{}", stderr(&pipeline));
    let text = stdout(&pipeline);
    assert!(text.contains("incident 0:"), "{text}");
    assert!(
        text.contains("over 2 shard(s); policy degrade, capacity 8"),
        "{text}"
    );
    let stats = ledger(&pipeline);
    assert_eq!(stats.ingested, 360);
    assert!(stats.accounts_exactly(), "{stats}");
    assert!(stats.reports_account_exactly(), "{stats}");

    let record = bgpscope(&[
        "pipeline",
        &txt,
        "--record",
        &rec,
        "--checkpoint-interval",
        "16",
    ]);
    assert!(record.status.success(), "{}", stderr(&record));
    let replay = bgpscope(&["replay", &rec]);
    assert!(replay.status.success(), "{}", stderr(&replay));
    assert!(!stdout(&replay).contains("truncated"));
    assert_eq!(ledger(&replay), ledger(&record));
    assert_eq!(ledger(&record).ingested, 360);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_arguments_prints_usage_and_exits_1() {
    let out = bgpscope(&[]);
    assert_eq!(out.status.code(), Some(1));
    let text = stderr(&out);
    assert!(
        text.starts_with(
            "usage: bgpscope <detect|picture|animate|rate|pipeline|ingest|replay|convert|demo> <args…>\n"
        ),
        "{text}"
    );
    for line in [
        "pipeline <events> [--capacity N] [--policy block|drop-newest|drop-oldest|degrade]",
        "                  [--record PATH [--frames-per-segment N] [--label S]]",
        "                  [--retries N] [--backoff-ms N] [--stall-timeout-ms N]",
        "replay   <recording> [--seek T|--hotspot N] [--step K] [--rate R]",
        "demo     <out.mrt>            write a demo incident to analyze",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing {line:?} in\n{text}"
        );
    }
    assert!(!text.lines().any(|l| l.starts_with("record")), "{text}");
    assert_eq!(text.lines().count(), 26, "{text}");
}

#[test]
fn flag_errors_exit_2_with_their_message() {
    let out = bgpscope(&["pipeline", "x", "--capacity"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "bgpscope: --capacity needs a value\n");

    let out = bgpscope(&["pipeline", "x", "--shards", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).starts_with("bgpscope: --shards: "),
        "{}",
        stderr(&out)
    );

    // A zero stall timeout would quarantine every healthy source before it
    // delivers a record.
    let out = bgpscope(&["ingest", "x", "--stall-timeout-ms", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).starts_with("bgpscope: --stall-timeout-ms: "),
        "{}",
        stderr(&out)
    );

    // A bucket width is a positive number of seconds, checked before the
    // trace is read; it once fell back to 60 s or failed an assert.
    for bucket in ["0", "abc"] {
        let out = bgpscope(&["rate", "x", bucket]);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            stderr(&out).starts_with("bgpscope: bucket-s: "),
            "{}",
            stderr(&out)
        );
    }

    // Every subcommand rejects an argument it does not take, before it
    // reads a file: flags no subcommand has (timing-only knobs stay in the
    // library, where a test can vary them), and extra arguments to the
    // simple subcommands — `picture` must not take `--json` for its output
    // file.
    for args in [
        &["pipeline", "x", "--checkpoint-spill", "z"][..],
        &["pipeline", "x", "--adaptive"],
        &["pipeline", "x", "--target-depth", "4"],
        &["pipeline", "x", "--quarantine-after", "2"],
        &["ingest", "x", "--buffer-capacity", "4096"],
        &["ingest", "x", "--batch", "8"],
        &["ingest", "x", "--channel-batches", "2"],
        &["detect", "x", "--bogus"],
        &["picture", "x", "--json"],
        &["animate", "x", "out", "--x"],
        &["rate", "x", "60", "--foo"],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let out = bgpscope(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            stderr(&out),
            format!("bgpscope: unknown flag {flag}\n"),
            "{args:?}"
        );
    }

    // There is no `record` subcommand: `pipeline --record` records.
    let out = bgpscope(&["record", "x", "y"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("usage: "), "{}", stderr(&out));
}

#[test]
fn a_reversed_trace_loads_in_time_order() {
    let dir = scratch("reversed");
    let txt = demo_text(&dir);
    let reversed = path_in(&dir, "r.txt");
    let text = std::fs::read_to_string(&txt).expect("demo text");
    let lines: Vec<&str> = text.lines().rev().collect();
    std::fs::write(&reversed, lines.join("\n") + "\n").expect("write trace");

    for trace in [&txt, &reversed] {
        let detect = bgpscope(&["detect", trace]);
        assert!(detect.status.success(), "{}", stderr(&detect));
        assert!(
            stdout(&detect).starts_with("360 events over 360.001505s "),
            "{}",
            stdout(&detect)
        );

        let pipeline = bgpscope(&["pipeline", trace]);
        assert!(pipeline.status.success(), "{}", stderr(&pipeline));
        assert!(
            stdout(&pipeline).contains("0.011562s .. 360.013067s"),
            "{}",
            stdout(&pipeline)
        );
        let stats = ledger(&pipeline);
        assert_eq!(stats.clamped_events, 0, "{stats}");
        assert_eq!(stats.analyzed, 360, "{stats}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detect_json_prints_a_json_array() {
    let dir = scratch("json");
    let mrt = demo(&dir);
    let out = bgpscope(&["detect", &mrt, "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let reports: serde::Value = serde_json::from_str(&stdout(&out))
        .unwrap_or_else(|e| panic!("not JSON: {e}\n{}", stdout(&out)));
    let serde::Value::Seq(reports) = reports else {
        panic!("not a JSON array: {}", stdout(&out));
    };
    assert_eq!(reports.len(), 1, "{}", stdout(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_interval_changes_the_checkpoint_count() {
    let dir = scratch("checkpoint");
    let txt = demo_text(&dir);
    let default = bgpscope(&["pipeline", &txt]);
    let every_16 = bgpscope(&["pipeline", &txt, "--checkpoint-interval", "16"]);
    assert!(default.status.success(), "{}", stderr(&default));
    assert!(every_16.status.success(), "{}", stderr(&every_16));
    // A checkpoint every 16 events, and one at each of the two analysis
    // passes; the default interval (256) leaves only those two.
    assert_eq!(ledger(&default).checkpoints, 2);
    assert!(
        ledger(&every_16).checkpoints > ledger(&default).checkpoints,
        "{}",
        ledger(&every_16)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_flags_shape_the_recording() {
    let dir = scratch("record");
    let txt = demo_text(&dir);
    let rec = path_in(&dir, "d.rec");
    let segments = || {
        std::fs::read_dir(&dir)
            .expect("scratch dir")
            .filter(|e| {
                let name = e.as_ref().expect("entry").file_name();
                name.to_string_lossy().starts_with("d.rec.seg")
            })
            .count()
    };

    let out = bgpscope(&[
        "pipeline",
        &txt,
        "--record",
        &rec,
        "--frames-per-segment",
        "16",
        "--label",
        "reset probe",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // 360 events and their reports, snapshots and end frame, 16 a segment;
    // the default segment (8,192 frames) would hold them all.
    assert!(segments() > 20, "{} segment(s)", segments());
    let manifest = std::fs::read_to_string(&rec).expect("manifest");
    assert!(manifest.contains("\"label\":\"reset probe\""), "{manifest}");
    let replay = bgpscope(&["replay", &rec]);
    assert!(replay.status.success(), "{}", stderr(&replay));
    assert!(
        stdout(&replay).starts_with("recording \"reset probe\": 360 events, "),
        "{}",
        stdout(&replay)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_flags_move_the_cursor_and_write_frames() {
    let dir = scratch("replay");
    let txt = demo_text(&dir);
    let rec = path_in(&dir, "d.rec");
    let out = bgpscope(&["pipeline", &txt, "--record", &rec]);
    assert!(out.status.success(), "{}", stderr(&out));
    let replay = |flags: &[&str]| {
        let mut args = vec!["replay", rec.as_str()];
        args.extend_from_slice(flags);
        let out = bgpscope(&args);
        assert!(out.status.success(), "{flags:?}: {}", stderr(&out));
        stdout(&out)
    };
    let has = |text: &str, line: &str| {
        assert!(text.lines().any(|l| l == line), "no {line:?} in\n{text}");
    };

    // The demo announces 120 prefixes at once, withdraws them at 300 s
    // and announces them again at 360 s.
    has(&replay(&[]), "cursor: event 360/360 at 360.013067s");
    has(
        &replay(&["--seek", "100"]),
        "cursor: event 120/360 at 0.013060s",
    );
    let text = replay(&["--hotspot", "1"]);
    has(
        &text,
        "seeked to hotspot 1: 0.000000s .. 225.000000s (120 events, 0 report(s))",
    );
    has(&text, "cursor: event 120/360 at 0.013060s");
    let text = replay(&["--step", "5"]);
    has(&text, "stepped 5 event(s)");
    has(&text, "cursor: event 5/360 at 0.012060s");
    let text = replay(&["--rate", "100"]);
    has(&text, "play @100x: cursor 300.001000s (240 events)");
    has(&text, "played 360 event(s) at 100x");
    let text = replay(&["--timeline"]);
    assert!(
        text.contains(
            "hotspot 0: 225.000000s .. 450.000000s — 240 events, 1 report(s), 0 restart(s)"
        ),
        "{text}"
    );

    let frames = path_in(&dir, "frames");
    has(
        &replay(&["--frames", &frames]),
        &format!(
            "wrote 4 key frames + animation.svg (750 frames over the trailing 30s) to {frames}/"
        ),
    );
    for file in [
        "frame_first.svg",
        "frame_third.svg",
        "frame_two_thirds.svg",
        "frame_last.svg",
        "animation.svg",
    ] {
        assert!(Path::new(&frames).join(file).is_file(), "no {file}");
    }
    let wide = path_in(&dir, "wide");
    has(
        &replay(&["--frames", &wide, "--span", "400"]),
        &format!(
            "wrote 4 key frames + animation.svg (750 frames over the trailing 400s) to {wide}/"
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_bench_writes_stages_sources_and_ledger() {
    let dir = scratch("ingest");
    let mrt = demo(&dir);
    let bench = path_in(&dir, "b.json");

    let out = bgpscope(&["ingest", &mrt, "--bench", &bench]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("report 0:"), "{}", stdout(&out));
    assert!(ledger(&out).accounts_exactly());

    let value = bench_file(&bench);
    for key in ["stages", "sources", "ledger"] {
        let field = serde::map_field(&value, key).expect("bench JSON is a map");
        assert_ne!(field, &serde::Value::Null, "no {key:?} in {value:?}");
    }
    // One archive is one source, and its ledger closes.
    let sources = list(&value, "sources");
    assert_eq!(sources.len(), 1, "{value:?}");
    let source = &sources[0];
    assert!(count(source, "events_decoded") > 0, "{value:?}");
    assert_eq!(
        count(source, "events_decoded"),
        count(source, "events_merged") + count(source, "stall_shed") + count(source, "queued"),
        "{value:?}"
    );
    assert_eq!(
        count(source, "events_forwarded"),
        ledger(&out).ingested,
        "{value:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_lossy_and_poison_threshold_get_past_trailing_body_bytes() {
    let dir = scratch("trailing");
    let archive = archive_with_trailing_byte(&dir);

    let strict = bgpscope(&["ingest", &archive]);
    assert_eq!(strict.status.code(), Some(2), "{}", stdout(&strict));
    assert!(
        stderr(&strict).contains("trailing body bytes"),
        "{}",
        stderr(&strict)
    );

    let lossy = bgpscope(&["ingest", &archive, "--lossy"]);
    assert!(lossy.status.success(), "{}", stderr(&lossy));
    assert!(
        stdout(&lossy).contains("tolerated trailing bytes on 1"),
        "{}",
        stdout(&lossy)
    );

    // The breaker decodes the record `threshold` times, then skips it.
    for (threshold, retries) in [("3", 2), ("1", 0)] {
        let bench = path_in(&dir, &format!("poison-{threshold}.json"));
        let out = bgpscope(&[
            "ingest",
            &archive,
            "--poison-threshold",
            threshold,
            "--bench",
            &bench,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let value = bench_file(&bench);
        let source = &list(&value, "sources")[0];
        assert_eq!(count(source, "source_retries"), retries, "{value:?}");
        assert_eq!(count(source, "poison_skipped"), 1, "{value:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_passthrough_forwards_a_stale_withdrawal() {
    let dir = scratch("passthrough");
    let txt = demo_text(&dir);
    let mut text = std::fs::read_to_string(&txt).expect("demo text");
    text.push_str("T=400000000 W 10.0.0.1 NEXT_HOP: 192.0.2.1 ASPATH: 701 PREFIX: 30.0.0.0/24\n");
    let stale_txt = path_in(&dir, "stale.txt");
    let stale = path_in(&dir, "stale.mrt");
    std::fs::write(&stale_txt, text).expect("write trace");
    assert!(bgpscope(&["convert", &stale_txt, &stale]).status.success());

    let rebuild = bgpscope(&["ingest", &stale]);
    assert!(rebuild.status.success(), "{}", stderr(&rebuild));
    assert!(
        stdout(&rebuild).contains("filtered 1 stale withdrawal(s)"),
        "{}",
        stdout(&rebuild)
    );
    let passthrough = bgpscope(&["ingest", &stale, "--passthrough"]);
    assert!(passthrough.status.success(), "{}", stderr(&passthrough));
    assert!(
        stdout(&passthrough).contains("filtered 0 stale withdrawal(s)"),
        "{}",
        stdout(&passthrough)
    );
    assert_eq!(ledger(&passthrough).ingested, ledger(&rebuild).ingested + 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_retries_and_backoff_budget_a_truncated_archive() {
    let dir = scratch("truncated");
    let archive = truncated_archive(&dir);

    for (retries, attempts) in [("0", 1), ("1", 2)] {
        let out = bgpscope(&["ingest", &archive, "--retries", retries]);
        assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
        assert!(
            stderr(&out).contains(&format!("after {attempts} attempt(s)")),
            "{}",
            stderr(&out)
        );
    }

    // One retry sleeps the backoff, jittered to at least half of it. Only
    // a lower bound: a slow host cannot fail it.
    let start = Instant::now();
    let out = bgpscope(&["ingest", &archive, "--backoff-ms", "2000", "--retries", "1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(
        start.elapsed() >= Duration::from_secs(1),
        "{:?}",
        start.elapsed()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn ingest_stall_timeout_quarantines_a_source_that_never_opens() {
    let dir = scratch("stall");
    let mrt = demo(&dir);
    // Opening a FIFO for reading blocks until a writer opens it; none does.
    let fifo = path_in(&dir, "fifo");
    let made = Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
    assert!(made.success());

    let out = bgpscope(&["ingest", &mrt, &fifo, "--stall-timeout-ms", "100"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("stalled: no progress within 0.1s twice"),
        "{}",
        stdout(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_capacity_policy_and_shards_reach_the_stem_stage() {
    let dir = scratch("stem");
    let mrt = demo(&dir);

    // A batch of the trace's 360 events cannot fit a one-slot queue.
    let out = bgpscope(&["ingest", &mrt, "--capacity", "1", "--policy", "drop-newest"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stats = ledger(&out);
    assert!(stats.shed_events > 0, "{stats}");
    assert!(stats.accounts_exactly(), "{stats}");

    let bench = path_in(&dir, "b.json");
    let out = bgpscope(&["ingest", &mrt, "--shards", "2", "--bench", &bench]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value = bench_file(&bench);
    let ledger = serde::map_field(&value, "ledger").expect("bench JSON is a map");
    assert_eq!(list(ledger, "shards").len(), 2, "{value:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
