//! Drives the `bgpscope` binary end to end: the self-contained
//! demo → convert → detect → pipeline → record → replay loop, the usage and
//! flag-error exits, and the `ingest --bench` file. Pins what a change to
//! the flag parser may not change: accepted flags, exit codes, the usage
//! text, and the `ledger {json}` line.

use std::path::PathBuf;
use std::process::{Command, Output};

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

/// The flat global ledger of the run's `ledger {json}` line.
fn ledger(out: &Output) -> PipelineStats {
    let text = stdout(out);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("ledger "))
        .unwrap_or_else(|| panic!("no ledger line in:\n{text}"));
    serde_json::from_str(line).unwrap_or_else(|e| panic!("ledger does not parse: {e}\n{line}"))
}

#[test]
fn demo_loop_detects_pipelines_records_and_replays() {
    let dir = scratch("loop");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (mrt, txt, rec) = (path("d.mrt"), path("d.txt"), path("d.rec"));

    assert!(bgpscope(&["demo", &mrt]).status.success());
    let convert = bgpscope(&["convert", &mrt, &txt]);
    assert!(convert.status.success(), "{}", stderr(&convert));

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
    assert!(text.contains("over 2 shard(s); policy degrade"), "{text}");
    let stats = ledger(&pipeline);
    assert_eq!(stats.ingested, 360);
    assert!(stats.accounts_exactly(), "{stats}");
    assert!(stats.reports_account_exactly(), "{stats}");

    let record = bgpscope(&["record", &txt, &rec, "--checkpoint-interval", "16"]);
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
        text.starts_with("usage: bgpscope <detect|picture|animate|rate|pipeline|ingest|record|replay|convert|demo> <args…>\n"),
        "{text}"
    );
    for line in [
        "pipeline <events> [--capacity N] [--policy block|drop-newest|drop-oldest|degrade]",
        "                  [--retries N] [--backoff-ms N] [--stall-timeout-ms N]",
        "record   <events> <recording> [--capacity N] [--policy P]",
        "replay   <recording> [--seek T|--hotspot N] [--step K] [--rate R]",
        "demo     <out.mrt>            write a demo incident to analyze",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing {line:?} in\n{text}"
        );
    }
    assert_eq!(text.lines().count(), 32, "{text}");
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

    // Deleted by PR 23; every subcommand rejects flags it does not know.
    let out = bgpscope(&["record", "x", "y", "--checkpoint-spill", "z"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "bgpscope: unknown flag --checkpoint-spill\n");
}

#[test]
fn ingest_bench_writes_stages_sources_and_ledger() {
    let dir = scratch("ingest");
    let mrt = dir.join("d.mrt").to_string_lossy().into_owned();
    let bench = dir.join("b.json").to_string_lossy().into_owned();
    assert!(bgpscope(&["demo", &mrt]).status.success());

    let out = bgpscope(&["ingest", &mrt, "--bench", &bench]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("report 0:"), "{}", stdout(&out));
    assert!(ledger(&out).accounts_exactly());

    let json = std::fs::read_to_string(&bench).expect("bench file written");
    let value: serde::Value = serde_json::from_str(&json).expect("bench file is JSON");
    for key in ["stages", "sources", "ledger"] {
        let field = serde::map_field(&value, key).expect("bench JSON is a map");
        assert_ne!(field, &serde::Value::Null, "no {key:?} in {json}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
