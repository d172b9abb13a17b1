//! One rep = one run of the program over a workload's files, in a child
//! process of its own, so that peak memory and processor time belong to
//! the program and not to the generator or the reference computation.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::adapter::{self, RunOutcome, RunSpec};
use crate::live;
use crate::setup::{self, Prepared};
use crate::stats;
use crate::workloads::Workload;

/// A `live` report later than this counts as failed.
pub const LATE_REPORT_MS: f64 = 1_000.0;

/// What one rep measured. Everything is a plain number so that it crosses
/// the process boundary as one JSON line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Rep {
    /// Events the program was given.
    pub events: u64,
    /// Wall seconds, thread start-up and final drain included.
    pub elapsed_s: f64,
    /// User + system processor seconds of the process over the same span.
    pub cpu_s: f64,
    /// `VmHWM` of the process when the run ended.
    pub peak_rss_mb: f64,
    pub reports: u64,
    pub reports_expected: u64,
    pub reports_matched: u64,
    /// Shed, dropped and lost events, shed and digested reports, skipped
    /// records, events missing from the decode or forward counts, reports
    /// that match no reference report, and `live` reports later than
    /// [`LATE_REPORT_MS`].
    pub failed: u64,
    /// Every ledger the run exposes closes exactly.
    pub ledger_closed: bool,
    /// Layer-level extras for the traced run.
    pub layers: Layers,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Layers {
    pub decode_busy_s: f64,
    pub decode_blocked_out_s: f64,
    pub augment_busy_s: f64,
    pub augment_blocked_in_s: f64,
    pub augment_blocked_out_s: f64,
    pub source_events: Vec<f64>,
    pub shard_events: Vec<f64>,
    pub restarts: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_samples: f64,
    pub late_reports: f64,
    pub generator_late_p99_ms: f64,
    pub backlog_max: f64,
    pub producer_blocked_s: f64,
}

impl Rep {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }

    pub fn cpu_s_per_mevent(&self) -> f64 {
        self.cpu_s / (self.events as f64 / 1e6)
    }

    pub fn correct(&self) -> bool {
        self.ledger_closed && self.failed == 0 && self.reports_matched == self.reports_expected
    }
}

/// Processor seconds this process has used so far, over all its threads,
/// exited ones included (`CLOCK_PROCESS_CPUTIME_ID`). The scheduler's own
/// nanosecond accounting, not `/proc/self/stat`: `utime`/`stime` there are
/// sampled at 100 Hz, which on a 3 s rep that sleeps and wakes 2,000 times
/// a second (`live`) is ±10% of noise.
fn cpu_seconds() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux, the only platform the benchmark runs on — it also reads
    // `/proc`); `clock_gettime` writes it and keeps no pointer.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Runs one rep in this process. The program's work is between the two
/// processor-time samples; checking its output comes after the memory
/// sample, so the reference data never counts as the program's memory.
pub fn run_here(workload: &Workload, dir: &Path, events: u64, forwarded: u64) -> Rep {
    match workload.open_loop_rate {
        None => closed_loop(workload, dir, events, forwarded),
        Some(rate) => open_loop(dir, rate),
    }
}

fn closed_loop(workload: &Workload, dir: &Path, events: u64, forwarded: u64) -> Rep {
    let spec = RunSpec {
        archives: (0..workload.sources)
            .map(|i| setup::archive_path(dir, i))
            .collect(),
        shards: workload.shards,
        recording: workload.recorded.then(|| setup::recording_path(dir)),
    };
    let cpu_before = cpu_seconds();
    let began = Instant::now();
    let outcome = adapter::run_ingest(&spec);
    let elapsed_s = began.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = adapter::peak_rss_bytes() as f64 / 1e6;

    let expected = setup::load_expected(dir);
    let RunOutcome {
        reports,
        events_decoded,
        events_forwarded,
        records_skipped,
        events_failed,
        ..
    } = &outcome;
    let reports_matched = setup::matched(reports, &expected.keys) as u64;
    let failed = events_failed
        + records_skipped
        + events.abs_diff(*events_decoded)
        + forwarded.abs_diff(*events_forwarded)
        + (reports.len() as u64 - reports_matched);
    Rep {
        events,
        elapsed_s,
        cpu_s,
        peak_rss_mb,
        reports: reports.len() as u64,
        reports_expected: expected.keys.len() as u64,
        reports_matched,
        failed,
        ledger_closed: outcome.ledger_closed,
        layers: Layers {
            decode_busy_s: outcome.decode_busy_s,
            decode_blocked_out_s: outcome.decode_blocked_out_s,
            augment_busy_s: outcome.augment_busy_s,
            augment_blocked_in_s: outcome.augment_blocked_in_s,
            augment_blocked_out_s: outcome.augment_blocked_out_s,
            source_events: outcome.source_events.iter().map(|&n| n as f64).collect(),
            shard_events: outcome.shard_events.iter().map(|&n| n as f64).collect(),
            restarts: outcome.restarts as f64,
            ..Layers::default()
        },
    }
}

fn open_loop(dir: &Path, rate: f64) -> Rep {
    let feed = setup::decode_archive(dir, 0);
    let expected = setup::load_expected(dir);
    let events = feed.len() as u64;
    let owed = expected.keys.len() - expected.flush_reports;

    let cpu_before = cpu_seconds();
    let outcome = live::drive(feed, rate, owed);
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = adapter::peak_rss_bytes() as f64 / 1e6;

    // With one shard the reports arrive in the oracle's emission order, so
    // report k's trigger is the oracle's trigger k — but only as far as
    // the two sequences agree; a report past that point matches nothing.
    let agreeing = outcome
        .reports
        .iter()
        .zip(&expected.keys)
        .take_while(|(got, want)| got == want)
        .count();
    let latencies = live::latencies_ms(
        &outcome.received_s[..agreeing],
        &expected.triggers[..agreeing],
        rate,
    );
    let late = latencies.iter().filter(|&&ms| ms > LATE_REPORT_MS).count();
    let reports_matched = agreeing as u64;
    let (p50, p99) = if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::percentile(&latencies, 50.0),
            stats::percentile(&latencies, 99.0),
        )
    };
    Rep {
        events,
        elapsed_s: outcome.elapsed_s,
        cpu_s,
        peak_rss_mb,
        reports: outcome.reports.len() as u64,
        reports_expected: expected.keys.len() as u64,
        reports_matched,
        failed: outcome.pipeline.events_failed
            + (outcome.reports.len() as u64 - reports_matched)
            + late as u64,
        ledger_closed: outcome.pipeline.ledger_closed,
        layers: Layers {
            restarts: outcome.pipeline.restarts as f64,
            latency_p50_ms: p50,
            latency_p99_ms: p99,
            latency_samples: latencies.len() as f64,
            late_reports: late as f64,
            generator_late_p99_ms: stats::percentile(&outcome.generator_late_ms, 99.0),
            backlog_max: outcome.backlog_max as f64,
            producer_blocked_s: outcome.producer_blocked_s,
            ..Layers::default()
        },
    }
}

/// The child side: runs the rep and prints it as one JSON line.
pub fn child_main(workload: &Workload, dir: &Path, events: u64, forwarded: u64) {
    let rep = run_here(workload, dir, events, forwarded);
    println!("{}", serde_json::to_string(&rep).expect("a rep serializes"));
}

/// The parent side: re-executes this program for one rep under a
/// wall-clock watchdog. A rep that outlives `limit` is killed and reported
/// as an error naming the workload.
pub fn run_child(prepared: &Prepared, forwarded: u64, limit: Duration) -> Result<Rep, String> {
    let name = prepared.workload.name;
    let exe = std::env::current_exe().map_err(|e| format!("{name}: own path: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--rep")
        .args(["--workload", name])
        .arg("--data")
        .arg(&prepared.dir)
        .args(["--events", &prepared.events().to_string()])
        .args(["--forwarded", &forwarded.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{name}: spawn rep: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < limit => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{name}: rep still running after {:.0} s; killed",
                    limit.as_secs_f64()
                ));
            }
            Err(e) => return Err(format!("{name}: wait for rep: {e}")),
        }
    };
    let output = child
        .wait_with_output()
        .map_err(|e| format!("{name}: read rep output: {e}"))?;
    if !status.success() {
        return Err(format!("{name}: rep exited with {status}"));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: rep printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("{name}: rep output: {e}"))
}
