//! Differential checkpoint/replay property tests (the pipeline analogue of
//! `crates/stemming/tests/differential.rs`).
//!
//! Three properties back the supervisor's crash-recovery claim:
//!
//! 1. **Round trip** — a [`PipelineCheckpoint`] survives serde_json
//!    unchanged, so the snapshot frame a recording holds really is the
//!    state the supervisor would restore.
//! 2. **Resume ≡ uninterrupted** — for *any* crash point in a random event
//!    stream, checkpointing there, restoring into a fresh detector, and
//!    replaying the suffix yields the exact report sequence of a run that
//!    never crashed. This is the oracle the supervised pipeline leans on:
//!    restore + replay is indistinguishable from no crash at all.
//! 3. **Cursor capture ≡ `checkpoint()`** — the supervisor does not call
//!    `checkpoint()`; it keeps one long-lived [`CheckpointSlot`], a cursor
//!    into the window the surviving detector holds, and a crash rewinds
//!    that detector to it. After every capture, at any cadence, across a
//!    rewind to that very slot, the materialised slot equals a from-empty
//!    `checkpoint()`, and the run's reports and ledger equal an
//!    uninterrupted one's. The streams here are
//!    *not* sorted: they reach what a by-reference window log would get
//!    wrong — clamped timestamps (the buffered event is not the fed one),
//!    carry-cap evictions out of the middle of the buffer, rotations and
//!    flushes that analyse nothing, spikes mid-window, merged weights.

use proptest::prelude::*;

use bgpscope_anomaly::pipeline::CheckpointSlot;
use bgpscope_anomaly::{
    AnomalyReport, PipelineCheckpoint, PipelineConfig, RealtimeDetector, WeightedEvent,
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

/// Small windows and thresholds so random streams actually rotate windows,
/// carry forward, and emit reports — the state a checkpoint must capture.
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

/// Reports carry no `PartialEq` (floating-point confidence); their rendered
/// form is a faithful fingerprint for equality purposes.
fn render(reports: &[AnomalyReport]) -> Vec<String> {
    reports.iter().map(ToString::to_string).collect()
}

/// The carry caps bite (a carried buffer holds up to `min_events - 1` = 7
/// events, the count cap keeps 4; the age cap is 1.5 windows) and the spike
/// fast path fires inside a window.
fn capture_config(spike_events: usize) -> PipelineConfig {
    PipelineConfig {
        window: Timestamp::from_secs(10),
        min_events: 8,
        min_component_events: 5,
        spike_events,
        max_carry_events: 4,
        max_carry_age: Timestamp::from_secs(15),
        ..PipelineConfig::default()
    }
}

/// One step of an unsorted stream: the gap to the previous step's nominal
/// time, how far behind that nominal time this event is stamped, its merge
/// weight, and the event itself (its own timestamp is overwritten).
fn arb_step() -> impl Strategy<Value = (u64, u64, u64, Event)> {
    (
        prop_oneof![8 => 0u64..400, 1 => 4_000u64..30_000],
        prop_oneof![3 => Just(0u64), 1 => 0u64..20_000],
        prop_oneof![4 => Just(1u64), 1 => 2u64..6],
        arb_event(),
    )
}

/// Bursts a few hundred milliseconds apart separated by gaps of up to
/// three windows, with a quarter of the events stamped up to two windows
/// late: late events inside the current window leave the buffer unsorted,
/// later ones are clamped.
fn stream(steps: Vec<(u64, u64, u64, Event)>) -> Vec<WeightedEvent> {
    let mut nominal = 0u64;
    steps
        .into_iter()
        .map(|(gap, late, weight, mut event)| {
            nominal += gap;
            event.time = Timestamp::from_millis(nominal.saturating_sub(late));
            WeightedEvent { event, weight }
        })
        .collect()
}

/// What the supervisor does around a detector, minus the threads: a ring of
/// events fed since the last capture, a capture into one long-lived slot
/// after every pass that analysed something and otherwise at the drawn
/// cadence, and a crash that rewinds the surviving detector to the slot
/// and replays the ring.
struct Supervised {
    detector: RealtimeDetector,
    slot: CheckpointSlot,
    ring: Vec<WeightedEvent>,
    cadence: Vec<usize>,
    captures: usize,
    reports: Vec<AnomalyReport>,
}

impl Supervised {
    fn new(config: PipelineConfig, cadence: Vec<usize>) -> Self {
        Supervised {
            detector: RealtimeDetector::new(config),
            slot: CheckpointSlot::default(),
            ring: Vec::new(),
            cadence,
            captures: 0,
            reports: Vec::new(),
        }
    }

    fn feed(&mut self, weighted: WeightedEvent) {
        self.ring.push(weighted.clone());
        let analyzed = self.detector.stats().analyzed;
        self.reports.extend(self.detector.ingest_weighted(weighted));
        let due = self.cadence[self.captures % self.cadence.len()];
        if self.detector.stats().analyzed != analyzed || self.ring.len() >= due {
            self.capture();
        }
    }

    fn flush(&mut self) {
        self.reports.extend(self.detector.flush());
        self.capture();
    }

    /// The property: the slot, however many captures and rewinds old,
    /// materialises as what a from-empty `checkpoint()` returns.
    fn capture(&mut self) {
        self.slot.capture(&mut self.detector);
        assert_eq!(
            self.slot.checkpoint(&self.detector),
            self.detector.checkpoint()
        );
        self.ring.clear();
        self.captures += 1;
    }

    /// No report is lost or doubled across a crash: a pass that emits
    /// reports changes `analyzed`, so a capture follows it immediately.
    fn crash(&mut self) {
        self.slot.rewind(&mut self.detector);
        for weighted in std::mem::take(&mut self.ring) {
            self.feed(weighted);
        }
    }
}

/// Runs `events` through an uninterrupted oracle and through a
/// [`Supervised`] detector that crashes before event `crash_at`; both flush
/// before event `flush_at` (a flush that is not terminal) and at the end.
/// Returns the oracle for the caller's own assertions.
fn check_incremental_capture(
    config: PipelineConfig,
    events: &[WeightedEvent],
    cadence: Vec<usize>,
    crash_at: usize,
    flush_at: usize,
) -> RealtimeDetector {
    let mut oracle = RealtimeDetector::new(config.clone());
    let mut oracle_reports = Vec::new();
    let mut subject = Supervised::new(config, cadence);
    for i in 0..=events.len() {
        if i == flush_at {
            oracle_reports.extend(oracle.flush());
            subject.flush();
        }
        if i == crash_at {
            subject.crash();
        }
        // Position `events.len()` is a crash (or flush) between the last
        // event and the terminal flush.
        let Some(weighted) = events.get(i) else { break };
        oracle_reports.extend(oracle.ingest_weighted(weighted.clone()));
        subject.feed(weighted.clone());
    }
    oracle_reports.extend(oracle.flush());
    subject.flush();
    assert_eq!(render(&subject.reports), render(&oracle_reports));
    assert_eq!(subject.detector.stats(), oracle.stats());
    oracle
}

fn withdraw(t_millis: u64, pfx: u8) -> WeightedEvent {
    WeightedEvent::unit(Event::withdraw(
        Timestamp::from_millis(t_millis),
        PeerId::from_octets(192, 168, 0, 1),
        Prefix::from_octets(10, pfx, 0, 0, 16),
        PathAttributes::new(
            RouterId::from_octets(10, 0, 0, 1),
            AsPath::from_u32s([7, 8, 9]),
        ),
    ))
}

/// A fixed stream that provably reaches each case the random streams are
/// drawn to reach, crashed at every position.
#[test]
fn incremental_capture_survives_the_hard_cases_at_every_crash_point() {
    let mut events = vec![
        // Window [20 s, 30 s): unsorted, and two events clamped to 20 s.
        withdraw(20_000, 0),
        withdraw(29_000, 1),
        withdraw(5_000, 2),
        withdraw(28_000, 3),
        withdraw(21_000, 4),
        withdraw(1_000, 5),
        // Rotation below `min_events` (analyses nothing); cutoff 26 s keeps
        // 29 s and 28 s — positions 1 and 3, not a prefix.
        withdraw(41_000, 6),
    ];
    // Spike mid-window: the tenth buffered event triggers the fast path.
    events.extend((0..7).map(|i| withdraw(42_000 + i, 10 + i as u8)));
    // A merged representative among eight events that the next rotation
    // analyses, then a tail of three that the terminal flush drops.
    events.push(WeightedEvent {
        weight: 5,
        ..withdraw(43_000, 30)
    });
    events.extend((0..7).map(|i| withdraw(44_000 + i, 40 + i as u8)));
    events.extend((0..3).map(|i| withdraw(60_000 + i, 50 + i as u8)));

    let config = capture_config(10);
    for crash_at in 0..=events.len() {
        for cadence in [vec![1], vec![3], vec![8], vec![2, 5, 1]] {
            let oracle =
                check_incremental_capture(config.clone(), &events, cadence, crash_at, usize::MAX);
            let stats = oracle.stats();
            assert_eq!(stats.clamped_events, 2, "{stats}");
            assert_eq!(stats.carry_forward_evictions, 4, "{stats}");
            assert_eq!(stats.dropped_events, 4 + 3, "{stats}");
            assert_eq!(stats.analyzed, 10 + 8, "{stats}");
        }
    }

    // The eviction really is out of the middle: what is left after the
    // rotation is the 29 s and 28 s events plus the one that rotated.
    let mut det = RealtimeDetector::new(config);
    for weighted in &events[..7] {
        det.ingest_weighted(weighted.clone());
    }
    let kept: Vec<u64> = det
        .checkpoint()
        .buffer
        .iter()
        .map(|w| w.event.time.as_micros() / 1_000)
        .collect();
    assert_eq!(kept, [29_000, 28_000, 41_000]);
}

proptest! {
    /// Cursor capture ≡ `checkpoint()` on unsorted, weighted streams
    /// (see [`Supervised`]), and resuming from the long-lived slot ≡ the
    /// uninterrupted run.
    #[test]
    fn incremental_capture_matches_checkpoint_across_restore(
        steps in proptest::collection::vec(arb_step(), 0..200),
        spike_events in 8usize..40,
        cadence in proptest::collection::vec(1usize..=8, 1..6),
        crash_at in 0usize..200,
        flush_at in 0usize..400,
    ) {
        let events = stream(steps);
        check_incremental_capture(
            capture_config(spike_events),
            &events,
            cadence,
            crash_at.min(events.len()),
            flush_at,
        );
    }

    /// serde_json round-trips any reachable checkpoint to an identical
    /// value.
    #[test]
    fn checkpoint_serde_round_trip_is_identity(
        events in proptest::collection::vec(arb_event(), 0..150),
        cut in 0usize..150,
    ) {
        let mut events = events;
        events.sort_by_key(|e| e.time);
        let mut det = RealtimeDetector::new(config());
        for event in events.iter().take(cut.min(events.len())) {
            det.ingest_event(event.clone());
        }
        let checkpoint = det.checkpoint();
        let json = serde_json::to_string(&checkpoint).expect("checkpoint serializes");
        let back: PipelineCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
        prop_assert_eq!(back, checkpoint);
    }

    /// Crash-at-any-point equivalence: checkpoint after `cut` events,
    /// restore into a fresh detector, replay the suffix — the combined
    /// report sequence and final counters match the uninterrupted run
    /// exactly.
    #[test]
    fn restore_then_replay_matches_uninterrupted_run(
        events in proptest::collection::vec(arb_event(), 0..150),
        cut in 0usize..150,
    ) {
        let mut events = events;
        events.sort_by_key(|e| e.time);
        let cut = cut.min(events.len());

        // Oracle: one detector, no interruption.
        let mut oracle = RealtimeDetector::new(config());
        let mut oracle_reports = Vec::new();
        for event in &events {
            oracle_reports.extend(oracle.ingest_event(event.clone()));
        }
        oracle_reports.extend(oracle.flush());

        // Subject: crash (well, stop) after `cut` events, restore from the
        // checkpoint, replay the rest.
        let mut first = RealtimeDetector::new(config());
        let mut subject_reports = Vec::new();
        for event in events.iter().take(cut) {
            subject_reports.extend(first.ingest_event(event.clone()));
        }
        let checkpoint = first.checkpoint();
        drop(first); // the "crash"
        let mut resumed = RealtimeDetector::restore(config(), checkpoint);
        for event in events.iter().skip(cut) {
            subject_reports.extend(resumed.ingest_event(event.clone()));
        }
        subject_reports.extend(resumed.flush());

        prop_assert_eq!(render(&subject_reports), render(&oracle_reports));
        let final_stats = resumed.stats();
        let oracle_stats = oracle.stats();
        prop_assert_eq!(final_stats, oracle_stats);
    }
}
