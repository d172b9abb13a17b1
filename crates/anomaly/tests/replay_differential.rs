//! Differential replay property tests — the recording analogue of
//! `checkpoint_differential.rs`.
//!
//! Three properties back the recorder's determinism claim:
//!
//! 1. **Record → replay ≡ live** — recording a supervised run (including
//!    runs with injected consumer crashes) and re-driving the frames
//!    through [`Replay::to_end`] reproduces the live run bit-identically:
//!    the rendered report stream, the final ledger, and the recomputed
//!    report stream all match.
//! 2. **Seek ≡ prefix replay** — for any cursor, [`Replay::seek_events`]
//!    (which jumps via the nearest snapshot) lands in exactly the state a
//!    from-scratch prefix replay reaches, including cursors that straddle
//!    snapshot frames.
//! 3. **Frame serde round-trip identity** — every frame line in every
//!    segment re-parses and re-serializes to the identical byte string,
//!    across chunk boundaries (tiny segments force many of them).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use bgpscope_anomaly::{
    AnomalyReport, Frame, OverloadPolicy, PanicInjection, PipelineConfig, RealtimeDetector,
    RecorderConfig, Replay, SpawnConfig, SupervisorConfig,
};
use bgpscope_bgp::{AsPath, Event, PathAttributes, PeerId, Prefix, RouterId, Timestamp};

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u64..100_000,
        1u8..4,
        1u8..6,
        proptest::collection::vec(1u32..30, 0..5),
        0u8..25,
        0u8..3,
        any::<bool>(),
    )
        .prop_map(|(t, peer, hop, path, pfx, len_class, announce)| {
            let attrs = PathAttributes::new(
                RouterId::from_octets(10, 0, 0, hop),
                AsPath::from_u32s(path),
            );
            let len = [16u8, 20, 24][len_class as usize];
            let prefix = Prefix::from_octets(10, pfx, 0, 0, len);
            let peer = PeerId::from_octets(192, 168, 0, peer);
            if announce {
                Event::announce(Timestamp::from_millis(t), peer, prefix, attrs)
            } else {
                Event::withdraw(Timestamp::from_millis(t), peer, prefix, attrs)
            }
        })
}

/// A randomized consumer-crash plan. `repeat` stays well under the restart
/// budget so the run never gives up (a give-up strands queued events whose
/// loss is decided by timing, not by the recording).
fn arb_fault() -> impl Strategy<Value = Option<PanicInjection>> {
    proptest::option::of(
        (10u64..60, 1u32..3).prop_map(|(after_events, repeat)| PanicInjection {
            after_events,
            repeat,
        }),
    )
}

/// The two lossless overload policies. Under `Degrade` the 4-slot queue
/// fills at once, so event frames carry the fidelity floor whenever the
/// producer happened to outrun the consumer — timing decides *which*
/// frames, the recording pins them either way.
fn arb_overload() -> impl Strategy<Value = OverloadPolicy> {
    proptest::sample::select(vec![OverloadPolicy::Block, OverloadPolicy::Degrade])
}

/// Small windows/thresholds so random streams rotate windows and emit
/// reports; a small checkpoint interval so recordings carry several
/// snapshots for seeks to straddle.
fn config() -> PipelineConfig {
    PipelineConfig {
        window: Timestamp::from_secs(10),
        min_events: 5,
        min_component_events: 5,
        max_carry_events: 20,
        max_carry_age: Timestamp::from_secs(60),
        ..PipelineConfig::default()
    }
}

fn spawn_config(
    base: &Path,
    fault: Option<PanicInjection>,
    overload: OverloadPolicy,
) -> SpawnConfig {
    let mut spawn = SpawnConfig::new(config())
        .with_capacity(4)
        .with_overload(overload)
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(32)
                .with_max_restarts(8),
        )
        .with_recorder(
            RecorderConfig::new(base)
                .with_frames_per_segment(16)
                .with_label("differential"),
        );
    if let Some(fault) = fault {
        spawn = spawn.with_fault(fault);
    }
    spawn
}

/// A collision-free per-process recording base under the system temp dir.
fn temp_base(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bgpscope-replay-diff-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn cleanup(base: &Path) {
    let _ = std::fs::remove_file(base);
    let mut k = 0;
    loop {
        let seg = base.with_file_name(format!(
            "{}.seg{k}",
            base.file_name().unwrap().to_string_lossy()
        ));
        if std::fs::remove_file(seg).is_err() {
            break;
        }
        k += 1;
    }
}

/// Reports carry floating-point confidence; their rendered form is the
/// bit-identity fingerprint (exactly what the CLI prints).
fn render(reports: &[AnomalyReport]) -> Vec<String> {
    reports.iter().map(ToString::to_string).collect()
}

proptest! {
    /// Record a live supervised run (with or without injected crashes),
    /// then re-drive it: rendered reports, the final ledger, and the
    /// independently recomputed report stream are bit-identical.
    #[test]
    fn record_then_replay_matches_live_run(
        events in proptest::collection::vec(arb_event(), 1..150),
        fault in arb_fault(),
        overload in arb_overload(),
    ) {
        let mut events = events;
        events.sort_by_key(|e| e.time);
        let base = temp_base("live");

        let mut handle = RealtimeDetector::spawn(spawn_config(&base, fault, overload));
        for event in &events {
            // Both policies are lossless: ingest never sheds, so the live
            // run is deterministic in its event sequence.
            prop_assert!(handle.ingest_event(event.clone()).is_ok());
        }
        let (live_reports, live_stats) = handle.finish();
        prop_assert!(live_stats.accounts_exactly());

        let mut replay = Replay::load(&base).expect("recording loads");
        prop_assert!(!replay.truncated());
        replay.to_end().expect("replay to end");

        // The recorded report stream is the live delivered stream.
        prop_assert_eq!(render(&replay.reports()), render(&live_reports));
        // The re-driven detector recomputes that same stream.
        prop_assert_eq!(render(replay.recomputed_reports()), render(&live_reports));
        // The reconstructed ledger is the live final ledger, and matches
        // the End frame the recorder sealed.
        prop_assert_eq!(replay.stats(), live_stats);
        prop_assert_eq!(replay.end_stats(), Some(live_stats));
        // Crash coverage is real: every restart the live supervisor
        // performed shows up in the recorded restart log (a short stream
        // may not pull enough fresh events to fire the whole plan).
        prop_assert_eq!(replay.restart_log().len() as u64, live_stats.restarts);
        cleanup(&base);
    }

    /// `seek_events(t)` ≡ replaying the prefix from scratch, for cursors
    /// landing anywhere relative to the recording's snapshot frames.
    #[test]
    fn seek_matches_prefix_replay_at_any_cursor(
        events in proptest::collection::vec(arb_event(), 1..150),
        fault in arb_fault(),
        overload in arb_overload(),
        cursors in proptest::collection::vec(0u64..200, 1..5),
    ) {
        let mut events = events;
        events.sort_by_key(|e| e.time);
        let base = temp_base("seek");

        let mut handle = RealtimeDetector::spawn(spawn_config(&base, fault, overload));
        for event in &events {
            prop_assert!(handle.ingest_event(event.clone()).is_ok());
        }
        let _ = handle.finish();

        let mut seeker = Replay::load(&base).expect("load");
        let mut stepper = Replay::load(&base).expect("load");
        for cursor in cursors {
            let target = cursor.min(seeker.events_total());
            seeker.seek_events(target).expect("seek");
            stepper.seek_events(0).expect("rewind");
            stepper.step(target).expect("step prefix");
            prop_assert_eq!(seeker.cursor_events(), target);
            prop_assert_eq!(seeker.detector_stats(), stepper.detector_stats());
            prop_assert_eq!(seeker.stats(), stepper.stats());
            prop_assert_eq!(render(&seeker.reports()), render(&stepper.reports()));
        }
        cleanup(&base);
    }

    /// Every frame line in every segment survives a serde round trip to
    /// the identical byte string — chunk boundaries included (16-frame
    /// segments make a 150-event run span many segments).
    #[test]
    fn frame_serde_round_trip_is_identity(
        events in proptest::collection::vec(arb_event(), 1..150),
        fault in arb_fault(),
        overload in arb_overload(),
    ) {
        let mut events = events;
        events.sort_by_key(|e| e.time);
        let base = temp_base("serde");

        let mut handle = RealtimeDetector::spawn(spawn_config(&base, fault, overload));
        for event in &events {
            prop_assert!(handle.ingest_event(event.clone()).is_ok());
        }
        let _ = handle.finish();

        let mut k = 0;
        let mut frames = 0u64;
        loop {
            let seg = base.with_file_name(format!(
                "{}.seg{k}",
                base.file_name().unwrap().to_string_lossy()
            ));
            let Ok(data) = std::fs::read_to_string(&seg) else {
                break;
            };
            for line in data.lines() {
                let frame: Frame = serde_json::from_str(line).expect("frame parses");
                let back = serde_json::to_string(&frame).expect("frame serializes");
                prop_assert_eq!(back, line, "segment {}", k);
                frames += 1;
            }
            k += 1;
        }
        // The recording really was chunked and non-trivial.
        prop_assert!(k >= 1);
        prop_assert!(frames > events.len() as u64);
        cleanup(&base);
    }
}
