//! The realtime detection pipeline.
//!
//! §III-C's claim is that the algorithms "can be used to detect routing
//! anomalies in real-time on a modern processor": run times for a window of
//! events are far below the window's wall-clock span. The pipeline here is
//! that loop: raw updates arrive, the collector augments them, events buffer
//! into a tumbling analysis window, and at each window boundary (or
//! immediately on a rate spike) Stemming decomposes the window and every
//! sufficiently large component is classified and reported.
//!
//! [`RealtimeDetector`] is the synchronous core; [`RealtimeDetector::spawn`]
//! runs it on its own thread behind a crossbeam channel for live feeds.
//!
//! # Overload robustness
//!
//! A detector that ran for months inside Berkeley and a Tier-1 ISP had to
//! survive update storms orders of magnitude above baseline, malformed
//! records, and slow consumers. The spawned pipeline is therefore *bounded*:
//! [`SpawnConfig::capacity`] caps the ingest queue, and
//! [`SpawnConfig::overload`] picks what happens when analysis falls behind
//! the feed ([`OverloadPolicy`]). Nothing is ever lost silently — every
//! shed, dropped, evicted, or clamped event lands in a [`PipelineStats`]
//! counter, and the snapshot closes exactly:
//!
//! ```text
//! ingested == analyzed + shed_events + dropped_events + carried + queued
//!             + replayed_in_flight + coalesced_events
//! ```
//!
//! # Adaptive overload control
//!
//! [`OverloadPolicy::Degrade`] pins analysis at [`FidelityLevel::Floor`]
//! while the queue is under pressure; [`SpawnConfig::adaptive`] steers the
//! level continuously with a closed-loop controller (see
//! [`crate::control`]): the supervisor samples
//! the ingest-queue depth per pull and steers a [`FidelityLevel`] that
//! continuously scales the Stemming knobs between full fidelity and the
//! [`DegradeConfig`] floor. The controller steers fidelity only — the
//! checkpoint cadence below is the same in every mode. Under
//! [`OverloadPolicy::DropOldest`], adaptive mode
//! also turns sheds into merges: the stolen event is coalesced into a
//! weighted representative ([`WeightedEvent`]) that re-enters the queue
//! later, its weight flowing through the weighted Stemming pass — counted
//! as `coalesced_events`, never silently lost.
//!
//! # Crash recovery
//!
//! The spawned pipeline is *supervised*: the detector runs inside
//! [`std::panic::catch_unwind`] under a supervisor loop that checkpoints the
//! detector's recoverable state every
//! [`SupervisorConfig::checkpoint_interval`] events and at every analysis
//! pass — adaptive or not. The detector outlives a panic, so a checkpoint
//! is a cursor into the window it holds and copies no event (see
//! `CheckpointSlot`). It lives in memory; the one form of it the program
//! puts on disk is the [`PipelineCheckpoint`] of a recording's
//! [`Frame::Snapshot`] ([`SpawnConfig::recorder`]). Events pulled off the
//! ingest queue are held in an in-flight ring until the next checkpoint
//! acknowledges them; when the detector panics, the supervisor rewinds it
//! to the last checkpoint, replays the ring, and resumes — as often as its
//! [`RestartPolicy`] allows. At most `checkpoint_interval` events can be
//! lost, and only when the supervisor gives up entirely
//! ([`PipelineStats::lost_events`] counts them, folded into `dropped_events`
//! so the ledger still closes).
//!
//! Report delivery is *at-least-once*: reports are egressed before the
//! checkpoint that acknowledges the events behind them, so a crash between
//! egress and checkpoint re-emits rather than loses them.
//!
//! Each thread owns its state. The supervisor's — detector, slot, ring,
//! controller, the recording's write half — is one struct it alone
//! touches, and one loop feeds the detector from the ring (a replay) and
//! then from the queue. What other threads see of it is one set of
//! counters published under one mutex, once per event; the producer's
//! four counters are atomics only it writes. A ledger sample reads the
//! first, then the second, which is why it closes at every instant (see
//! `stats_from`).
//!
//! The report channel out of the detector may be bounded too
//! ([`SpawnConfig::report_capacity`]). A full report queue blocks the
//! detector until the subscriber drains it: no report is ever dropped or
//! thinned, and a stalled subscriber stalls analysis, which fills the
//! ingest queue, where the [`OverloadPolicy`] governs. Only a subscriber
//! that hung up loses reports, each counted in `report_shed`:
//!
//! ```text
//! reports_emitted == reports_delivered + report_shed + reports_digested
//! ```
//!
//! (`reports_digested` stays in the ledger for recordings made when a
//! report queue could coalesce its overflow; a live run leaves it 0.)

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{
    bounded, unbounded, Receiver, SendTimeoutError, Sender, TryRecvError, TrySendError,
};
use serde::{Deserialize, Serialize};

use bgpscope_bgp::{Event, EventStream, Timestamp, UpdateMessage};
use bgpscope_collector::Collector;
use bgpscope_stemming::{EncodingCache, Stemming, StemmingConfig};

use crate::classify::classify;
use crate::control::{
    stemming_at_level, CoalesceBuffer, Controller, ControllerConfig, FidelityLevel, Fold,
};
use crate::replay::{create_recording, Frame, FrameWriter, Overlay, RecorderConfig, RecordingSeal};
use crate::report::AnomalyReport;
use crate::supervision::{Health, HealthCell, RestartPolicy, Signal};

/// An event with a multiplicity: the unit the spawned pipeline's queue,
/// in-flight ring, and analysis window carry. Every event enters with
/// weight 1; merge-on-shed (see [`CoalesceBuffer`]) folds same-sequence
/// events into one representative with their summed weight, which the
/// analysis pass feeds through the weighted Stemming counts so the merged
/// evidence still supports the correlations it belonged to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedEvent {
    /// The event (the representative of a merged set keeps the earliest
    /// timestamp).
    pub event: Event,
    /// How many original events this one stands for in the sub-sequence
    /// counts.
    pub weight: u64,
}

impl WeightedEvent {
    /// An unmerged event (weight 1).
    pub fn unit(event: Event) -> Self {
        WeightedEvent { event, weight: 1 }
    }
}

// Hand-written serialization: the weight-1 case (every event that was
// never merge-coalesced — the overwhelming bulk of a recording) encodes
// as the bare event map, dropping the `{"event":…,"weight":1}` wrapper.
// The two forms are unambiguous because an [`Event`] map has no `event`
// key. Merged events keep the explicit wrapper.
impl ::serde::Serialize for WeightedEvent {
    fn to_value(&self) -> ::serde::Value {
        if self.weight == 1 {
            self.event.to_value()
        } else {
            ::serde::Value::Map(vec![
                (::std::borrow::Cow::Borrowed("event"), self.event.to_value()),
                (
                    ::std::borrow::Cow::Borrowed("weight"),
                    ::serde::Serialize::to_value(&self.weight),
                ),
            ])
        }
    }

    fn write_json(&self, out: &mut String) {
        if self.weight == 1 {
            self.event.write_json(out);
        } else {
            out.push_str("{\"event\":");
            self.event.write_json(out);
            out.push_str(",\"weight\":");
            ::serde::write_u64_json(out, self.weight);
            out.push('}');
        }
    }
}

impl ::serde::Deserialize for WeightedEvent {
    fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {
        if matches!(::serde::map_field(v, "event")?, ::serde::Value::Null) {
            Ok(WeightedEvent {
                event: ::serde::Deserialize::from_value(v)?,
                weight: 1,
            })
        } else {
            Ok(WeightedEvent {
                event: ::serde::Deserialize::from_value(::serde::map_field(v, "event")?)?,
                weight: ::serde::Deserialize::from_value(::serde::map_field(v, "weight")?)?,
            })
        }
    }
}

/// Pipeline tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Tumbling analysis window width.
    pub window: Timestamp,
    /// Minimum events in a window before Stemming runs.
    pub min_events: usize,
    /// Minimum component size (events) worth reporting.
    pub min_component_events: usize,
    /// Stemming configuration.
    pub stemming: StemmingConfig,
    /// If a single window accumulates this many events, analyze immediately
    /// instead of waiting for the boundary (spike fast-path).
    pub spike_events: usize,
    /// Carry-forward count cap: at a window rotation that carries a
    /// below-`min_events` buffer forward, the oldest events beyond this
    /// many are evicted (counted in
    /// [`PipelineStats::carry_forward_evictions`], never silent).
    /// `0` = unlimited.
    pub max_carry_events: usize,
    /// Carry-forward age cap: at a window rotation, carried events older
    /// than this (relative to the new window start) are evicted.
    /// [`Timestamp::ZERO`] = unlimited.
    pub max_carry_age: Timestamp,
    /// How Stemming is coarsened while the pipeline is in degraded mode
    /// (see [`OverloadPolicy::Degrade`]).
    pub degrade: DegradeConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: Timestamp::from_secs(15 * 60),
            min_events: 50,
            min_component_events: 10,
            stemming: StemmingConfig::default(),
            spike_events: 100_000,
            max_carry_events: 10_000,
            max_carry_age: Timestamp::from_secs(6 * 3600),
            degrade: DegradeConfig::default(),
        }
    }
}

/// How Stemming is coarsened in degraded mode: the point is to make each
/// analysis pass cheap enough for the queue to drain, at the cost of
/// finding only the strongest correlations.
///
/// Each analysis pass — degraded or not — builds one sub-sequence counter
/// per window and *subtracts* per extracted component (see
/// [`Stemming::decompose_weighted`]), so the `max_components` cap here
/// bounds cheap decremental rounds, not full recounts of the window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// `min_support` is multiplied by this (weaker correlations are noise
    /// we cannot afford to chase under overload).
    pub min_support_multiplier: u64,
    /// Per-window component budget is capped at this many components.
    pub max_components: usize,
    /// Sub-sequence enumeration is capped at this length (an unlimited
    /// `max_subseq_len` is lowered to it; a tighter one is kept).
    pub max_subseq_len: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            min_support_multiplier: 4,
            max_components: 4,
            max_subseq_len: 6,
        }
    }
}

/// What the spawned pipeline does when its bounded ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverloadPolicy {
    /// Apply backpressure: the producer blocks until the queue drains.
    /// Lossless, but a slow consumer stalls the feed.
    Block,
    /// Shed the incoming event (the queue keeps the older, already-accepted
    /// ones). Bounds both memory and producer latency.
    DropNewest,
    /// Shed the oldest queued event to make room for the incoming one —
    /// under a storm the analysis window slides toward "now".
    DropOldest,
    /// Lossless like [`OverloadPolicy::Block`], but a full queue switches
    /// the detector into degraded mode — coarser Stemming per
    /// [`DegradeConfig`] — until the queue drains. Each analysis run in
    /// that state is counted in [`PipelineStats::degraded_windows`].
    Degrade,
}

impl OverloadPolicy {
    /// All four policies, for exhaustive testing.
    pub const ALL: [OverloadPolicy; 4] = [
        OverloadPolicy::Block,
        OverloadPolicy::DropNewest,
        OverloadPolicy::DropOldest,
        OverloadPolicy::Degrade,
    ];
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::DropNewest => "drop-newest",
            OverloadPolicy::DropOldest => "drop-oldest",
            OverloadPolicy::Degrade => "degrade",
        })
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "drop-newest" => Ok(OverloadPolicy::DropNewest),
            "drop-oldest" => Ok(OverloadPolicy::DropOldest),
            "degrade" => Ok(OverloadPolicy::Degrade),
            other => Err(format!(
                "unknown overload policy {other:?} (expected block, drop-newest, drop-oldest, or degrade)"
            )),
        }
    }
}

/// How the supervisor around the spawned detector behaves.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The restart budget and backoff. Its fault count is the run's
    /// restarts, never reset: a panic is a bug the replay meets again. Once
    /// it is spent the pipeline closes, the in-flight ring counted in
    /// [`PipelineStats::lost_events`].
    pub restart: RestartPolicy,
    /// Events between checkpoints. A checkpoint is *also* taken at every
    /// analysis pass (window rotation, spike, terminal flush), so this
    /// bounds both replay work and the worst-case loss when the supervisor
    /// gives up: `lost_events <= checkpoint_interval`, in every mode — the
    /// adaptive controller steers fidelity, never this cadence. It bounds
    /// nothing else: a checkpoint is a cursor into the window the detector
    /// holds and copies no event, so a shorter interval costs cheap
    /// captures, not copies.
    pub checkpoint_interval: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            restart: RestartPolicy {
                budget: 3,
                backoff: Duration::from_millis(25),
            },
            checkpoint_interval: 256,
        }
    }
}

impl SupervisorConfig {
    /// Sets the checkpoint interval (clamped to ≥ 1).
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval.max(1);
        self
    }

    /// Sets the restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.restart.budget = max_restarts;
        self
    }

    /// Sets the initial restart backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.restart.backoff = backoff;
        self
    }
}

/// Fault injection for crash-recovery testing: makes the consumer panic
/// after pulling `after_events` events off the ingest queue, re-armed
/// `repeat` times (each trigger re-arms `after_events` further pulls out).
/// Replayed events do not count as pulls, so an injection can never turn
/// into a poison-pill loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Fresh queue pulls between injected panics.
    pub after_events: u64,
    /// Total panics to inject.
    pub repeat: u32,
}

/// The detector's recoverable state, as captured by
/// [`RealtimeDetector::checkpoint`] and restored by
/// [`RealtimeDetector::restore`].
///
/// Covers everything the window machinery needs to resume bit-identically:
/// the current window/carry-forward buffer, the window clock, and every
/// ledger counter. The collector (RIB state) is *not* checkpointed — in
/// the spawned pipeline it lives on the producer side of the queue and
/// survives a consumer crash untouched.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineCheckpoint {
    /// Buffered (not yet analyzed) events — the current window plus any
    /// carry-forward — with their merge weights.
    pub buffer: Vec<WeightedEvent>,
    /// Start of the current analysis window (`None` before the first
    /// event).
    pub window_start: Option<Timestamp>,
    /// Every ledger counter, as the detector held them.
    pub counters: DetectorCounters,
}

/// The detector's ledger counters, declared once: the detector counts in
/// this struct, a [`PipelineCheckpoint`] embeds it, and the spawned
/// pipeline's consumer publishes it — so a capture, a restore and a publish
/// each move all of them with one assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorCounters {
    /// Reports emitted so far.
    pub reports_emitted: u64,
    /// Events ingested so far.
    pub ingested: u64,
    /// Events analyzed so far.
    pub analyzed: u64,
    /// Events dropped so far.
    pub dropped_events: u64,
    /// Carry-forward evictions so far (subset of `dropped_events`).
    pub carry_forward_evictions: u64,
    /// Degraded analysis passes so far.
    pub degraded_windows: u64,
    /// Out-of-order clamps so far.
    pub clamped_events: u64,
    /// Upstream parse errors recorded so far.
    pub parse_errors: u64,
}

/// Configuration for [`RealtimeDetector::spawn`].
#[derive(Debug, Clone)]
pub struct SpawnConfig {
    /// The detector configuration.
    pub pipeline: PipelineConfig,
    /// Ingest-queue bound in events (`0` = unbounded, the pre-backpressure
    /// behavior — a slow consumer can then grow the queue without limit).
    pub capacity: usize,
    /// What to do when the bounded queue is full. Ignored when
    /// `capacity == 0`.
    pub overload: OverloadPolicy,
    /// Report-queue bound in reports (`0` = unbounded — a stalled
    /// subscriber can then grow the backlog without limit). A full queue
    /// blocks the detector until the subscriber takes a report; nothing is
    /// dropped. A shard of a [`crate::ShardedPipeline`] has no subscriber
    /// and ignores it.
    pub report_capacity: usize,
    /// Crash-recovery supervision around the detector thread.
    pub supervisor: SupervisorConfig,
    /// Optional consumer-panic fault injection (soak testing).
    pub fault: Option<PanicInjection>,
    /// Closed-loop overload control (see [`crate::control`]): when set, a
    /// [`Controller`] with these tunables continuously scales Stemming
    /// fidelity with queue depth, and — under [`OverloadPolicy::DropOldest`]
    /// — sheds become merges: the stolen event is folded into one of up to
    /// 64 weighted representatives ([`CoalesceBuffer`]) instead of
    /// discarded, counted as `coalesced_events`. `None` keeps full fidelity
    /// (floor fidelity under [`OverloadPolicy::Degrade`] pressure).
    pub adaptive: Option<ControllerConfig>,
    /// When set, the run is recorded as a replayable frame log (see
    /// [`crate::replay`]): every ingest with the fidelity level in force,
    /// every emitted report, restart, and checkpoint snapshot. Recording is
    /// best-effort — an I/O failure disables it (reported on stderr)
    /// without touching the pipeline.
    pub recorder: Option<RecorderConfig>,
}

impl Default for SpawnConfig {
    fn default() -> Self {
        SpawnConfig {
            pipeline: PipelineConfig::default(),
            capacity: 65_536,
            overload: OverloadPolicy::Block,
            report_capacity: 1_024,
            supervisor: SupervisorConfig::default(),
            fault: None,
            adaptive: None,
            recorder: None,
        }
    }
}

impl SpawnConfig {
    /// A spawn configuration around the given pipeline config.
    pub fn new(pipeline: PipelineConfig) -> Self {
        SpawnConfig {
            pipeline,
            ..SpawnConfig::default()
        }
    }

    /// Sets the ingest-queue capacity (`0` = unbounded).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the overload policy.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Sets the report-queue capacity (`0` = unbounded).
    pub fn with_report_capacity(mut self, capacity: usize) -> Self {
        self.report_capacity = capacity;
        self
    }

    /// Sets the supervision configuration.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Injects consumer panics (crash-recovery soak testing).
    pub fn with_fault(mut self, fault: PanicInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables closed-loop overload control (see [`SpawnConfig::adaptive`]).
    pub fn with_adaptive(mut self, adaptive: ControllerConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Records the run as a replayable frame log (see [`crate::replay`]).
    pub fn with_recorder(mut self, recorder: RecorderConfig) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// A point-in-time accounting snapshot of a pipeline.
///
/// The invariant — checked by [`PipelineStats::accounts_exactly`] and
/// asserted continuously by the soak test — is that no event is ever lost
/// without being counted:
///
/// ```text
/// ingested == analyzed + shed_events + dropped_events + carried + queued
///             + replayed_in_flight + coalesced_events
/// ```
///
/// and, on the report side ([`PipelineStats::reports_account_exactly`]):
///
/// ```text
/// reports_emitted == reports_delivered + report_shed + reports_digested
/// ```
///
/// After a terminal flush (`finish`), `carried`, `queued`, and
/// `replayed_in_flight` are all zero, so the event ledger closes as
/// `ingested == analyzed + shed_events + dropped_events`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Events offered to the pipeline (post-collector augmentation).
    pub ingested: u64,
    /// Events that went through a Stemming analysis pass.
    pub analyzed: u64,
    /// Events shed by the overload policy before reaching the detector.
    pub shed_events: u64,
    /// Events discarded by the detector: terminal flushes of
    /// below-`min_events` buffers, carry-forward evictions, and events lost
    /// to a terminal consumer failure (`lost_events`).
    pub dropped_events: u64,
    /// Carry-forward cap evictions (a subset of `dropped_events`).
    pub carry_forward_evictions: u64,
    /// Analysis passes run in degraded mode.
    pub degraded_windows: u64,
    /// Out-of-order events clamped forward into the current window.
    pub clamped_events: u64,
    /// Unparseable feed records skipped upstream (see
    /// `bgpscope_mrt::text_to_events_lossy`).
    pub parse_errors: u64,
    /// Events currently buffered in the detector's analysis window.
    pub carried: u64,
    /// Events currently in flight in the spawn queue (always 0 for the
    /// synchronous detector).
    pub queued: u64,
    /// Consumer restarts performed by the supervisor.
    pub restarts: u64,
    /// Checkpoints taken by the supervisor (always 0 for the synchronous
    /// detector).
    pub checkpoints: u64,
    /// Events replayed from the in-flight ring across all restarts.
    pub replayed_events: u64,
    /// Events pulled off the queue but not yet (re-)processed by the
    /// current detector incarnation — nonzero only in the middle of a
    /// restart's replay, always 0 at quiescence.
    pub replayed_in_flight: u64,
    /// Events lost because the supervisor exhausted its restart budget with
    /// un-replayed events in flight. Provably `<=`
    /// [`SupervisorConfig::checkpoint_interval`] — adaptive control or not —
    /// and a subset of `dropped_events`.
    pub lost_events: u64,
    /// Reports produced by analysis passes and offered to the report
    /// queue (at-least-once across restarts).
    pub reports_emitted: u64,
    /// Reports that reached (or will reach) the subscriber:
    /// `reports_emitted - report_shed - reports_digested`.
    pub reports_delivered: u64,
    /// Reports undeliverable because the subscriber hung up (in a
    /// recording of an older build, also reports its full report queue
    /// shed).
    pub report_shed: u64,
    /// Reports an older build's full report queue coalesced into counts
    /// instead of delivering. A live run never does that, so this is 0
    /// except when replaying such a recording; it stays in the ledger (and
    /// the [`Overlay`]) so those recordings still replay with a closed
    /// ledger.
    pub reports_digested: u64,
    /// Events absorbed into a weighted representative by adaptive
    /// merge-on-shed instead of being dropped (see
    /// [`SpawnConfig::adaptive`]). The representative carries their summed
    /// weight through analysis; an absorbed event stays on this counter
    /// even if its representative is later shed.
    pub coalesced_events: u64,
    /// Current [`FidelityLevel`] as a coarsening index (0 = full,
    /// [`FidelityLevel::STEPS`] = the Degrade floor). Always 0 without
    /// adaptive control.
    pub fidelity_level: u64,
}

impl PipelineStats {
    /// True when the event accounting ledger closes exactly (see the type
    /// docs).
    pub fn accounts_exactly(&self) -> bool {
        self.ingested
            == self.analyzed
                + self.shed_events
                + self.dropped_events
                + self.carried
                + self.queued
                + self.replayed_in_flight
                + self.coalesced_events
    }

    /// True when the report accounting ledger closes exactly (see the type
    /// docs).
    pub fn reports_account_exactly(&self) -> bool {
        self.reports_emitted == self.reports_delivered + self.report_shed + self.reports_digested
    }

    /// The one derivation of a spawned pipeline's ledger, shared by the
    /// live handle and [`crate::replay::Replay`]: the consumer's counters,
    /// the producer-side [`Overlay`] and the supervision counts, with
    /// `queued`, `dropped_events` and `reports_delivered` derived as the
    /// remainders that make both equations close.
    pub(crate) fn from_ledger(
        consumer: ConsumerCounters,
        overlay: Overlay,
        supervision: SupervisionCounts,
    ) -> Self {
        let lost = supervision.lost_events;
        let detector = consumer.counters;
        PipelineStats {
            ingested: overlay.ingested,
            analyzed: detector.analyzed,
            shed_events: overlay.shed_events,
            dropped_events: detector.dropped_events + lost,
            carry_forward_evictions: detector.carry_forward_evictions,
            degraded_windows: detector.degraded_windows,
            clamped_events: detector.clamped_events,
            parse_errors: overlay.parse_errors,
            carried: consumer.carried,
            queued: overlay
                .ingested
                .saturating_sub(overlay.shed_events)
                .saturating_sub(overlay.coalesced_events)
                .saturating_sub(detector.ingested)
                .saturating_sub(consumer.replayed_in_flight)
                .saturating_sub(lost),
            restarts: supervision.restarts,
            checkpoints: overlay.checkpoints,
            replayed_events: supervision.replayed_events,
            replayed_in_flight: consumer.replayed_in_flight,
            lost_events: lost,
            reports_emitted: supervision.reports_emitted,
            reports_delivered: supervision
                .reports_emitted
                .saturating_sub(overlay.report_shed)
                .saturating_sub(overlay.reports_digested),
            report_shed: overlay.report_shed,
            reports_digested: overlay.reports_digested,
            coalesced_events: overlay.coalesced_events,
            fidelity_level: overlay.fidelity_level,
        }
    }

    /// Folds another pipeline's ledger into this one (the cross-shard
    /// global): counters add, the `fidelity_level` gauge takes the max, the
    /// worst-off shard.
    pub(crate) fn absorb(&mut self, other: &PipelineStats) {
        self.ingested += other.ingested;
        self.analyzed += other.analyzed;
        self.shed_events += other.shed_events;
        self.dropped_events += other.dropped_events;
        self.carry_forward_evictions += other.carry_forward_evictions;
        self.degraded_windows += other.degraded_windows;
        self.clamped_events += other.clamped_events;
        self.parse_errors += other.parse_errors;
        self.carried += other.carried;
        self.queued += other.queued;
        self.restarts += other.restarts;
        self.checkpoints += other.checkpoints;
        self.replayed_events += other.replayed_events;
        self.replayed_in_flight += other.replayed_in_flight;
        self.lost_events += other.lost_events;
        self.reports_emitted += other.reports_emitted;
        self.reports_delivered += other.reports_delivered;
        self.report_shed += other.report_shed;
        self.reports_digested += other.reports_digested;
        self.coalesced_events += other.coalesced_events;
        self.fidelity_level = self.fidelity_level.max(other.fidelity_level);
    }

    /// Stable machine-readable serialization of the ledger (field names are
    /// part of the schema; soak runs and the CLI emit this).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("PipelineStats is always serializable")
    }
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ingested {} = analyzed {} + shed {} + dropped {} + carried {} + queued {} + in-flight {} + coalesced {}",
            self.ingested,
            self.analyzed,
            self.shed_events,
            self.dropped_events,
            self.carried,
            self.queued,
            self.replayed_in_flight,
            self.coalesced_events
        )?;
        writeln!(
            f,
            "  carry evictions {}, degraded windows {}, clamped {}, parse errors {}",
            self.carry_forward_evictions,
            self.degraded_windows,
            self.clamped_events,
            self.parse_errors
        )?;
        writeln!(
            f,
            "  restarts {}, checkpoints {}, replayed {}, lost {}, fidelity {}",
            self.restarts,
            self.checkpoints,
            self.replayed_events,
            self.lost_events,
            self.fidelity_level
        )?;
        write!(
            f,
            "  reports {} = delivered {} + shed {} + digested {}",
            self.reports_emitted, self.reports_delivered, self.report_shed, self.reports_digested
        )
    }
}

/// The buffered analysis window as Stemming reads it: the events, and
/// index for index their merge weights.
#[derive(Debug, Clone, Default)]
struct Window {
    events: EventStream,
    weights: Vec<u64>,
}

impl Window {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn push(&mut self, weighted: WeightedEvent) {
        self.events.push(weighted.event);
        self.weights.push(weighted.weight);
    }

    /// Keeps, in order, the events `keep` accepts; it sees each once,
    /// oldest first. Moves the survivors, cloning none.
    fn retain(&mut self, mut keep: impl FnMut(&Event) -> bool) {
        let events = std::mem::take(&mut self.events).into_events();
        (self.events, self.weights) = events
            .into_iter()
            .zip(std::mem::take(&mut self.weights))
            .filter(|(event, _)| keep(event))
            .unzip();
    }

    /// The first `len` events with their weights, as a checkpoint holds
    /// them.
    fn weighted(&self, len: usize) -> Vec<WeightedEvent> {
        self.events.events()[..len]
            .iter()
            .zip(&self.weights)
            .map(|(event, &weight)| WeightedEvent {
                event: event.clone(),
                weight,
            })
            .collect()
    }
}

/// What a [`CheckpointSlot`] needs of the detector to rewind it to the
/// last capture once the window changed other than by `push` (see
/// [`CheckpointSlot::rewind`]).
#[derive(Debug, Default)]
enum Rewind {
    /// No slot captured this detector: it keeps nothing.
    #[default]
    Off,
    /// Captured, and the window has only grown since: the live window
    /// still holds the captured one as a prefix.
    Armed,
    /// The window as it stood when it first changed other than by `push`
    /// after the capture — taken by an analysis or a flush, copied by an
    /// eviction — kept until the next capture.
    Retired(Window),
}

/// The streaming detector.
#[derive(Debug)]
pub struct RealtimeDetector {
    config: PipelineConfig,
    collector: Collector,
    window: Window,
    rewind: Rewind,
    window_start: Option<Timestamp>,
    fidelity: FidelityLevel,
    // Accounting (see PipelineStats).
    counters: DetectorCounters,
    /// Each (peer, nexthop, AS path) encoded once for Stemming, across
    /// windows. Not state: no result depends on it, so it is neither
    /// checkpointed nor recorded, and a restored or rewound detector
    /// starts cold.
    encoding: EncodingCache,
    /// Events cloned to keep a rewind point (see `tests::CaptureAudit`).
    #[cfg(test)]
    rewind_copies: u64,
}

impl RealtimeDetector {
    /// A detector with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        RealtimeDetector {
            config,
            collector: Collector::new(),
            window: Window::default(),
            rewind: Rewind::Off,
            window_start: None,
            fidelity: FidelityLevel::Full,
            counters: DetectorCounters::default(),
            encoding: EncodingCache::new(),
            #[cfg(test)]
            rewind_copies: 0,
        }
    }

    /// Total reports emitted so far.
    pub fn reports_emitted(&self) -> usize {
        self.counters.reports_emitted as usize
    }

    /// The accounting snapshot: the spawned pipeline's ledger derivation
    /// with the detector as its own producer and subscriber — everything
    /// ingested reached it (`queued` is always 0 here) and every report is
    /// returned directly to the caller (all delivered, none shed).
    pub fn stats(&self) -> PipelineStats {
        PipelineStats::from_ledger(
            self.consumer_counters(0),
            Overlay {
                ingested: self.counters.ingested,
                parse_errors: self.counters.parse_errors,
                fidelity_level: u64::from(self.fidelity.index()),
                ..Overlay::default()
            },
            SupervisionCounts {
                reports_emitted: self.counters.reports_emitted,
                ..SupervisionCounts::default()
            },
        )
    }

    /// The counters a spawned pipeline's consumer publishes, plus the
    /// caller's current replay debt (0 outside a restart).
    pub(crate) fn consumer_counters(&self, replayed_in_flight: u64) -> ConsumerCounters {
        ConsumerCounters {
            counters: self.counters,
            carried: self.window.len() as u64,
            replayed_in_flight,
        }
    }

    /// Captures the detector's recoverable state. Restoring the returned
    /// checkpoint with [`RealtimeDetector::restore`] (same config) and
    /// re-ingesting every event seen since yields bit-identical reports and
    /// counters to an uninterrupted run — the property the checkpoint
    /// differential proptest pins.
    pub fn checkpoint(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            buffer: self.window.weighted(self.window.len()),
            window_start: self.window_start,
            counters: self.counters,
        }
    }

    /// Rebuilds a detector from a checkpoint. The collector starts fresh —
    /// RIB state is not part of the checkpoint (in the spawned pipeline it
    /// lives producer-side and survives a consumer crash); callers replaying
    /// pre-augmented events via [`RealtimeDetector::ingest_event`] are
    /// unaffected.
    pub fn restore(config: PipelineConfig, checkpoint: PipelineCheckpoint) -> Self {
        let (events, weights) = (checkpoint.buffer.into_iter())
            .map(|weighted| (weighted.event, weighted.weight))
            .unzip();
        RealtimeDetector {
            window: Window { events, weights },
            window_start: checkpoint.window_start,
            counters: checkpoint.counters,
            ..RealtimeDetector::new(config)
        }
    }

    /// Sets the fidelity level the next analysis pass runs at (see
    /// [`stemming_at_level`]). Any pass below [`FidelityLevel::Full`] is
    /// counted in [`PipelineStats::degraded_windows`] and marks its
    /// reports degraded. The supervisor drives this before every event —
    /// [`FidelityLevel::Floor`] while [`OverloadPolicy::Degrade`] sees
    /// queue pressure, the [`Controller`]'s level otherwise; callers of the
    /// synchronous detector may drive it from any overload signal they
    /// have. Fidelity is *not* checkpointed: it is external pressure,
    /// re-applied by whoever drives the detector.
    pub fn set_fidelity(&mut self, fidelity: FidelityLevel) {
        self.fidelity = fidelity;
    }

    /// Records feed records that were skipped as unparseable upstream (e.g.
    /// by `bgpscope_mrt::text_to_events_lossy`), so the loss shows in
    /// [`PipelineStats::parse_errors`].
    pub fn record_parse_errors(&mut self, n: usize) {
        self.counters.parse_errors += n as u64;
    }

    /// Ingests one raw update; returns any reports completed by it.
    pub fn ingest_update(&mut self, msg: &UpdateMessage, time: Timestamp) -> Vec<AnomalyReport> {
        let events = self.collector.apply_update(msg, time);
        let mut out = Vec::new();
        for e in events {
            out.extend(self.ingest_event(e));
        }
        out
    }

    /// Ingests one already-augmented event.
    ///
    /// # Out-of-order timestamps
    ///
    /// An event whose timestamp is earlier than the current window start
    /// (late delivery, clock skew between feeds) is *clamped forward* to the
    /// window start and counted in [`PipelineStats::clamped_events`]: it
    /// still contributes its evidence to the window being built, but can
    /// neither re-open a closed window nor stall the window clock.
    pub fn ingest_event(&mut self, event: Event) -> Vec<AnomalyReport> {
        self.ingest_weighted(WeightedEvent::unit(event))
    }

    /// Ingests a weighted event — a merge-on-shed representative standing
    /// for `weight` original events (see [`WeightedEvent`]). Counts as one
    /// ingested event on the ledger (its absorbed events were counted as
    /// `coalesced_events` when they merged); its weight flows through the
    /// weighted Stemming pass.
    pub fn ingest_weighted(&mut self, mut weighted: WeightedEvent) -> Vec<AnomalyReport> {
        self.counters.ingested += 1;
        let event = &mut weighted.event;
        let start = *self.window_start.get_or_insert(event.time);
        if event.time < start {
            event.time = start;
            self.counters.clamped_events += 1;
        }
        let event_time = event.time;
        let mut reports = Vec::new();
        if event_time.saturating_since(start) >= self.config.window {
            // Window boundary: analyze the closed window (carrying a
            // too-small buffer forward), then start the new window at the
            // event that crossed the boundary.
            reports = self.rotate_window();
            self.window_start = Some(event_time);
            self.enforce_carry_cap(event_time);
        }
        self.window.push(weighted);
        if self.window.len() >= self.config.spike_events {
            // Spike fast-path: analyze immediately, *including* the event
            // that breached the threshold. The window clock keeps running —
            // a spike is an early analysis, not a new window.
            reports.extend(self.rotate_window());
        }
        reports
    }

    /// Analyzes the buffer at a window boundary. A buffer below
    /// `min_events` is kept and carries into the next window instead of
    /// being discarded — a slow trickle must still accumulate evidence.
    fn rotate_window(&mut self) -> Vec<AnomalyReport> {
        if self.window.len() < self.config.min_events {
            return Vec::new();
        }
        self.analyze()
    }

    /// Bounds the carried buffer after a rotation that kept it: a
    /// pathological trickle must not accumulate an unbounded buffer across
    /// many windows. Evicts (oldest first) events past `max_carry_events`
    /// and events older than `max_carry_age` before the new window start;
    /// every eviction is counted.
    ///
    /// A carried buffer is below `min_events`, so when a slot captured the
    /// window since it last changed other than by `push`, copying it whole
    /// before the first eviction is what keeps that capture's rewind point.
    fn enforce_carry_cap(&mut self, new_start: Timestamp) {
        let cutoff = Timestamp(
            new_start
                .as_micros()
                .saturating_sub(self.config.max_carry_age.as_micros()),
        );
        let stale = |e: &Event| self.config.max_carry_age > Timestamp::ZERO && e.time < cutoff;
        let fresh = self.window.events.iter().filter(|e| !stale(e)).count();
        let excess = match self.config.max_carry_events {
            0 => 0,
            cap => fresh.saturating_sub(cap),
        };
        let evicted = self.window.len() - fresh + excess;
        if evicted == 0 {
            return;
        }
        if matches!(self.rewind, Rewind::Armed) {
            #[cfg(test)]
            {
                self.rewind_copies += self.window.len() as u64;
            }
            self.rewind = Rewind::Retired(self.window.clone());
        }
        // The oldest `excess` of the fresh events go too.
        let mut fresh_seen = 0;
        self.window.retain(|e| {
            fresh_seen += usize::from(!stale(e));
            !stale(e) && fresh_seen > excess
        });
        self.counters.carry_forward_evictions += evicted as u64;
        self.counters.dropped_events += evicted as u64;
    }

    /// Analyzes and clears the current buffer (terminal flush). A buffer
    /// below `min_events` is discarded and counted in
    /// [`PipelineStats::dropped_events`].
    pub fn flush(&mut self) -> Vec<AnomalyReport> {
        if self.window.len() < self.config.min_events {
            self.counters.dropped_events += self.window.len() as u64;
            self.retire_window();
            return Vec::new();
        }
        self.analyze()
    }

    /// Empties the window, keeping the old one for a rewind when it is the
    /// first change other than by `push` since a slot's capture.
    fn retire_window(&mut self) {
        let old = std::mem::take(&mut self.window);
        if matches!(self.rewind, Rewind::Armed) {
            self.rewind = Rewind::Retired(old);
        }
    }

    fn analyze(&mut self) -> Vec<AnomalyReport> {
        // Any reduced-fidelity pass counts as a degraded window and marks
        // its reports.
        let reduced = self.fidelity != FidelityLevel::Full;
        let stemming_config =
            stemming_at_level(&self.config.stemming, &self.config.degrade, self.fidelity);
        if reduced {
            self.counters.degraded_windows += 1;
        }
        self.counters.analyzed += self.window.len() as u64;
        // Stemming borrows the window in place; it is retired only once
        // the pass is done, so a panic inside the pass leaves it whole.
        let window = &self.window;
        let stemming = Stemming::with_config(stemming_config);
        let result =
            stemming.decompose_cached(&mut self.encoding, &window.events, |i, _| window.weights[i]);
        #[cfg(test)]
        tests::crash_hook::reach(tests::crash_hook::Site::Analyze);
        let mut reports = Vec::new();
        for component in result.components() {
            if component.event_count() < self.config.min_component_events {
                continue;
            }
            let verdict = classify(component, &window.events);
            let report = AnomalyReport::new(component, verdict, result.symbols());
            reports.push(if reduced {
                report.mark_degraded()
            } else {
                report
            });
        }
        self.counters.reports_emitted += reports.len() as u64;
        self.retire_window();
        reports
    }

    /// Flushes any remaining window and returns the final reports.
    pub fn finish(mut self) -> Vec<AnomalyReport> {
        self.flush()
    }

    /// Runs a detector on its own supervised thread behind a bounded queue.
    /// Feed raw updates (or pre-augmented events) through the returned
    /// [`PipelineHandle`]; completed reports stream from
    /// [`PipelineHandle::reports`] (bounded by
    /// [`SpawnConfig::report_capacity`]). Call [`PipelineHandle::finish`] (or
    /// drop the handle) to end the run — the final window flushes on
    /// shutdown.
    ///
    /// A detector panic does not kill the pipeline: the supervisor rewinds
    /// the surviving detector to the last checkpoint, replays the
    /// un-acknowledged in-flight events, and resumes, as often as
    /// [`SupervisorConfig::restart`] allows.
    pub fn spawn(config: SpawnConfig) -> PipelineHandle {
        Self::spawn_with(config, |mut supervisor| supervisor.run())
    }

    /// [`RealtimeDetector::spawn`], with the supervisor thread's body
    /// given: tests wrap [`Supervisor::run`] to arm a crash or to read the
    /// supervisor's state once it returns.
    fn spawn_with(
        config: SpawnConfig,
        body: impl FnOnce(Supervisor) + Send + 'static,
    ) -> PipelineHandle {
        let (event_tx, event_rx) = if config.capacity == 0 {
            unbounded::<WeightedEvent>()
        } else {
            bounded::<WeightedEvent>(config.capacity)
        };
        let (report_tx, report_rx) = if config.report_capacity == 0 {
            unbounded::<AnomalyReport>()
        } else {
            bounded::<AnomalyReport>(config.report_capacity)
        };
        let shared = Arc::new(SharedStats::default());

        let (writer, recorder) = match &config.recorder {
            Some(rc) => match create_recording(rc, &config.pipeline) {
                Ok((writer, seal)) => (Some(writer), Some(seal)),
                Err(e) => {
                    eprintln!(
                        "recording disabled: cannot create {}: {e}",
                        rc.path.display()
                    );
                    (None, None)
                }
            },
            None => (None, None),
        };

        let controller = config
            .adaptive
            .map(|c| c.resolved_against_capacity(config.capacity));
        let coalesce = (controller.is_some() && config.overload == OverloadPolicy::DropOldest)
            .then(|| CoalesceBuffer::new(COALESCE_CAPACITY));

        let supervisor = Supervisor {
            sup: config.supervisor.clone(),
            shared: Arc::clone(&shared),
            event_rx: event_rx.clone(),
            report_tx,
            state: SupervisorState {
                detector: RealtimeDetector::new(config.pipeline.clone()),
                slot: CheckpointSlot::default(),
                ring: VecDeque::new(),
                inbox: VecDeque::with_capacity(PULL_BATCH),
                fault: FaultState::new(config.fault),
                controller: controller.map(Controller::new),
                fidelity: FidelityLevel::Full,
                recorder: writer,
            },
        };
        let join = std::thread::spawn(move || body(supervisor));

        PipelineHandle {
            collector: Collector::new(),
            tx: Some(event_tx),
            steal_rx: event_rx,
            reports: report_rx,
            join: Some(join),
            shared,
            overload: config.overload,
            coalesce,
            recorder,
            batch: VecDeque::new(),
        }
    }
}

/// The supervisor's checkpoint slot: a cursor into the window the
/// detector already holds, not a copy of it. It records how many events
/// the window held at capture, the window clock and the counters; the
/// events themselves stay with the detector, which outlives a panic.
///
/// Between two captures the detector's window changes in one of two ways.
/// Pushes only grow it, so the captured window is still its prefix. Any
/// other change — an analysis pass takes it, a terminal flush drops it, a
/// carry cap evicts from it — first retires the window as it stood into
/// the detector ([`RealtimeDetector`] keeps it until the next capture):
/// an analysis or a flush moves it there, an eviction copies it, and a
/// window that carries is below `min_events`. A capture therefore clones
/// no event, and [`CheckpointSlot::rewind`] truncates whichever window
/// holds the captured one.
///
/// [`CheckpointSlot::checkpoint`] materialises the cursor as the
/// [`PipelineCheckpoint`] a from-empty [`RealtimeDetector::checkpoint`]
/// returned at capture; a recorded [`Frame::Snapshot`] is that form.
/// Public only so `tests/checkpoint_differential.rs` can drive the
/// capture the supervisor runs; not part of the crate's API.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct CheckpointSlot {
    /// Events the window held at capture.
    len: usize,
    window_start: Option<Timestamp>,
    counters: DetectorCounters,
    #[cfg(test)]
    audit: tests::CaptureAudit,
}

impl CheckpointSlot {
    /// Moves the cursor to `detector`'s current state, releases any window
    /// it retired since the last capture and arms it to retire the next
    /// one. The slot must have been captured from this detector (or be
    /// empty).
    pub fn capture(&mut self, detector: &mut RealtimeDetector) {
        #[cfg(test)]
        self.audit.record(detector);
        self.len = detector.window.len();
        self.window_start = detector.window_start;
        self.counters = detector.counters;
        detector.rewind = Rewind::Armed;
    }

    /// The captured state as a [`PipelineCheckpoint`], read out of
    /// `detector`'s windows.
    pub fn checkpoint(&self, detector: &RealtimeDetector) -> PipelineCheckpoint {
        let window = match &detector.rewind {
            Rewind::Retired(window) => window,
            _ => &detector.window,
        };
        PipelineCheckpoint {
            buffer: window.weighted(self.len),
            window_start: self.window_start,
            counters: self.counters,
        }
    }

    /// Puts `detector` back in the captured state: its retired window, if
    /// the window changed other than by `push` since the capture, else the
    /// live one, truncated to the captured length. What was pushed since
    /// is exactly the in-flight ring, which the caller replays; clamps
    /// among it are counted again from the captured counters. A slot never
    /// captured rewinds to an empty window. The encoding cache restarts
    /// cold (a panic may have left it mid-update) and fidelity at full, as
    /// a restored detector does.
    pub fn rewind(&self, detector: &mut RealtimeDetector) {
        if let Rewind::Retired(window) = std::mem::take(&mut detector.rewind) {
            detector.window = window;
        }
        let mut kept = 0;
        detector.window.retain(|_| {
            kept += 1;
            kept <= self.len
        });
        detector.rewind = Rewind::Armed;
        detector.window_start = self.window_start;
        detector.counters = self.counters;
        detector.fidelity = FidelityLevel::Full;
        detector.encoding = EncodingCache::new();
    }
}

/// Marks the consumer dead even on panic, so a blocked producer can observe
/// it and bail instead of deadlocking.
struct AliveGuard(Arc<SharedStats>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.consumer_exited.store(true, Ordering::Release);
    }
}

/// Live fault-injection state (see [`PanicInjection`]): counts *fresh*
/// queue pulls — replays don't count, so an injected panic never becomes a
/// poison pill — and panics at each armed trigger point.
struct FaultState {
    injection: Option<PanicInjection>,
    pulls: u64,
    next_trigger: u64,
}

impl FaultState {
    fn new(injection: Option<PanicInjection>) -> Self {
        let next_trigger = injection.map_or(0, |f| f.after_events);
        FaultState {
            injection,
            pulls: 0,
            next_trigger,
        }
    }

    /// Called once per fresh queue pull; panics when a trigger arms.
    fn on_pull(&mut self) {
        self.pulls += 1;
        let Some(injection) = &mut self.injection else {
            return;
        };
        if injection.repeat > 0 && self.pulls == self.next_trigger {
            injection.repeat -= 1;
            self.next_trigger = self.pulls + injection.after_events;
            panic!(
                "injected consumer panic after {} pulls (fault injection)",
                self.pulls
            );
        }
    }
}

/// Most events the supervisor drains off the queue under one lock. Large
/// enough that a full queue costs one producer wakeup per batch, small
/// enough that the inbox — un-stealable under
/// [`OverloadPolicy::DropOldest`] — stays a sliver of the default capacity.
const PULL_BATCH: usize = 256;

/// Distinct (kind, peer, prefix, attributes) representatives the
/// merge-on-shed buffer of an adaptive DropOldest pipeline holds; a stolen
/// event that matches none and finds the buffer full is shed as before.
const COALESCE_CAPACITY: usize = 64;

/// The supervision loop around the detector: runs each detector incarnation
/// under `catch_unwind`, checkpoints its state, and replays the in-flight
/// ring after a crash. Everything here is owned by the supervisor thread;
/// what it tells other threads goes through [`SharedStats`].
struct Supervisor {
    sup: SupervisorConfig,
    shared: Arc<SharedStats>,
    event_rx: Receiver<WeightedEvent>,
    report_tx: Sender<AnomalyReport>,
    state: SupervisorState,
}

/// What outlives a detector incarnation — the state a panic unwinds past
/// and the next incarnation picks up.
struct SupervisorState {
    /// The detector itself: a panic unwinds past it, and the slot rewinds
    /// it to the last capture.
    detector: RealtimeDetector,
    /// The cursor a restart rewinds the detector to.
    slot: CheckpointSlot,
    /// Events pulled off the queue since the last checkpoint: acked (and
    /// drained) by the next checkpoint, replayed after a crash. Bounded by
    /// the checkpoint interval because a checkpoint fires at latest on the
    /// event that reaches the interval.
    ring: VecDeque<WeightedEvent>,
    /// Events drained off the queue in one [`Receiver::recv_many`] batch
    /// and not yet pulled into the ring. Still queue as far as every
    /// ledger and bound is concerned: counted in the derived `queued`,
    /// sampled with the channel depth, shed if the supervisor gives up.
    inbox: VecDeque<WeightedEvent>,
    fault: FaultState,
    /// The controller's state is external pressure, not recoverable
    /// detector state — a restarted detector resumes at whatever fidelity
    /// the queue deserves now.
    controller: Option<Controller>,
    /// The level the controller last commanded ([`FidelityLevel::Full`]
    /// without one).
    fidelity: FidelityLevel,
    /// When recording, every supervision step is framed here in consumer
    /// order (see [`crate::replay::Frame`]).
    recorder: Option<FrameWriter>,
}

impl Supervisor {
    fn run(&mut self) {
        let _guard = AliveGuard(Arc::clone(&self.shared));
        while let Err(panic) = catch_unwind(AssertUnwindSafe(|| self.run_incarnation())) {
            let cause = panic_message(panic.as_ref());
            *self.shared.last_panic.lock().expect("panic slot poisoned") = Some(cause.clone());
            self.state.slot.rewind(&mut self.state.detector);
            let in_flight = self.state.ring.len() as u64;
            // One critical section rolls the published counters back to
            // the checkpoint and books the ring — as replay debt, or as
            // lost (bounded by the checkpoint interval) when the restart
            // budget is spent and it can no longer be replayed — so every
            // stats snapshot taken during the restart still closes. A
            // give-up also sheds the inbox: those events never reached a
            // detector, so they leave the derived `queued` the way events
            // stranded in the channel do at shutdown.
            let (restarts, backoff, lost, overlay) = {
                let mut ledger = self.shared.ledger();
                ledger.supervision.restarts += 1;
                let restarts = ledger.supervision.restarts;
                // Every detector salts its jitter alike (DESIGN.md, 26).
                let backoff = self.sup.restart.after(restarts, 0);
                let (debt, lost) = if backoff.is_none() {
                    let stranded = std::mem::take(&mut self.state.inbox).len() as u64;
                    self.shared.shed.fetch_add(stranded, Ordering::AcqRel);
                    (0, in_flight)
                } else {
                    (in_flight, 0)
                };
                ledger.consumer = self.state.detector.consumer_counters(debt);
                ledger.supervision.lost_events += lost;
                let overlay = self.shared.overlay(&ledger);
                (restarts, backoff, lost, overlay)
            };
            if let Some(rec) = &mut self.state.recorder {
                // The state this restart rewound to (or publishes as final
                // on give-up), recorded unconditionally: a checkpoint of a
                // large window was not framed, and replay restores from
                // the last snapshot *in the recording* — which must
                // therefore be this exact checkpoint.
                rec.record(Frame::Snapshot {
                    checkpoint: self.state.detector.checkpoint(),
                    overlay,
                });
                rec.record(Frame::Restart {
                    cause,
                    restarts,
                    gave_up: backoff.is_none(),
                    lost,
                });
            }
            let Some(backoff) = backoff else {
                // Terminal failure: close the pipeline.
                self.shared.health.on(Signal::GiveUp);
                break;
            };
            self.shared.health.on(Signal::Fault);
            std::thread::sleep(backoff);
        }
    }

    /// One detector incarnation: feed the detector (rewound to the last
    /// capture, after a crash) one event at a time — first the un-acked
    /// ring (a replay), then the live queue until it closes — flushing the
    /// final window on the way out. The queue is drained into the inbox up
    /// to [`PULL_BATCH`] events per lock, and each event is *pulled* —
    /// moved into the ring, counted by [`FaultState::on_pull`] — one at a
    /// time.
    /// Panics anywhere in here unwind to [`Supervisor::run`].
    fn run_incarnation(&mut self) {
        let interval = self.sup.checkpoint_interval.max(1);
        let mut since_checkpoint = 0usize;
        // `ring[..cursor]` has been through this incarnation's detector.
        // Replayed events stay in the ring (still un-acked) until a
        // checkpoint acks the processed prefix — a second crash mid-replay
        // must replay them again.
        let mut cursor = 0usize;
        loop {
            let replayed = cursor < self.state.ring.len();
            let event = if replayed {
                self.state.ring[cursor].clone()
            } else {
                if self.state.inbox.is_empty()
                    && self
                        .event_rx
                        .recv_many(&mut self.state.inbox, PULL_BATCH)
                        .is_err()
                {
                    break;
                }
                let event = self
                    .state
                    .inbox
                    .pop_front()
                    .expect("recv_many moved an event");
                // The ring's clone shares the event's AS path with the
                // detector's copy (a refcount bump); only a non-empty
                // community list is still copied, so for most events it no
                // longer matters to the heap which side takes the clone.
                self.state.ring.push_back(event.clone());
                self.state.fault.on_pull();
                event
            };
            cursor += 1;
            if let Some(controller) = &mut self.state.controller {
                let depth = self.event_rx.len() + self.state.inbox.len();
                self.state.fidelity = controller.sample(depth as u64);
            }
            let analyzed_before = self.state.detector.counters.analyzed;
            let reports = self.ingest(event, replayed);
            since_checkpoint += 1;
            self.sync(self.state.ring.len() - cursor, replayed);
            self.egress(reports);
            if self.state.detector.counters.analyzed != analyzed_before
                || since_checkpoint >= interval
            {
                self.take_checkpoint();
                self.state.ring.drain(..cursor);
                cursor = 0;
                since_checkpoint = 0;
            }
        }

        // Feed closed: flush the final window. A panic inside this analysis
        // is recovered like any other — the next incarnation replays the
        // ring, finds the feed still closed, and flushes again.
        if let Some(rec) = &mut self.state.recorder {
            rec.record(Frame::Flush);
        }
        let reports = self.state.detector.flush();
        self.sync(0, false);
        self.egress(reports);
        self.take_checkpoint();
        self.state.ring.clear();
    }

    /// One event through the detector at the fidelity level in force:
    /// [`FidelityLevel::Floor`] while the [`OverloadPolicy::Degrade`]
    /// pressure flag is up, the controller's level otherwise. When
    /// recording, the event is framed with the exact level read for it
    /// *before* the detector touches it — a crash mid-ingest leaves the
    /// frame in place, and the recorded ring replay that follows the
    /// [`Frame::Restart`] re-drives it, exactly like the live supervisor.
    fn ingest(&mut self, event: WeightedEvent, replayed: bool) -> Vec<AnomalyReport> {
        let pressure = self.shared.pressure.load(Ordering::Acquire);
        let fidelity = if pressure {
            FidelityLevel::Floor
        } else {
            self.state.fidelity
        };
        let detector = &mut self.state.detector;
        detector.set_fidelity(fidelity);
        if let Some(rec) = &mut self.state.recorder {
            rec.record(Frame::Event {
                event: event.clone(),
                fidelity: fidelity.index(),
                replayed,
            });
        }
        let reports = detector.ingest_weighted(event);
        if pressure && self.state.inbox.is_empty() && self.event_rx.is_empty() {
            // The queue and the inbox drained: the pressure is off.
            self.shared.pressure.store(false, Ordering::Release);
        }
        reports
    }

    /// Delivers reports to the subscriber, waiting while its queue is full.
    /// Runs *before* the checkpoint that acks the events behind the reports
    /// (at-least-once delivery: a crash in between re-emits, never loses).
    fn egress(&mut self, reports: Vec<AnomalyReport>) {
        #[cfg(test)]
        tests::crash_hook::reach(tests::crash_hook::Site::Egress);
        for mut report in reports {
            self.shared.ledger().supervision.reports_emitted += 1;
            if let Some(rec) = &mut self.state.recorder {
                rec.record(Frame::Report {
                    report: report.clone(),
                });
            }
            loop {
                match self
                    .report_tx
                    .send_timeout(report, Duration::from_millis(50))
                {
                    Ok(()) => break,
                    Err(SendTimeoutError::Timeout(back)) => report = back,
                    Err(SendTimeoutError::Disconnected(_)) => {
                        self.shared.ledger().report_shed += 1;
                        break;
                    }
                }
            }
        }
    }

    /// Moves the slot's cursor to the detector (what a restart rewinds to)
    /// and, when recording, frames the checkpoint as a snapshot.
    fn take_checkpoint(&mut self) {
        let (slot, detector) = (&mut self.state.slot, &mut self.state.detector);
        slot.capture(detector);
        // Debug builds make every spawned-pipeline test a differential test
        // of the materialised cursor against the from-empty checkpoint.
        debug_assert_eq!(slot.checkpoint(detector), detector.checkpoint());
        // Before the count, so a reader that sees the checkpoint sees the
        // recovery it brings.
        self.shared.health.on(Signal::Progress);
        self.shared.ledger().checkpoints += 1;
        if let Some(rec) = &mut self.state.recorder {
            // Only a small window is framed: a seek re-drives at most one
            // window's `Event` frames from the snapshot before it.
            if detector.window.len() < detector.config.min_events {
                let overlay = self.shared.overlay(&self.shared.ledger());
                rec.record(Frame::Snapshot {
                    checkpoint: detector.checkpoint(),
                    overlay,
                });
            }
        }
    }

    /// The one lock per event: publishes the detector's counters as one
    /// consistent set, plus the replay debt still in the ring, the replay
    /// this event was (if it was one), and the fidelity level in force.
    fn sync(&self, replay_debt: usize, replayed: bool) {
        let consumer = self.state.detector.consumer_counters(replay_debt as u64);
        let mut ledger = self.shared.ledger();
        ledger.consumer = consumer;
        ledger.supervision.replayed_events += u64::from(replayed);
        ledger.fidelity_level = u64::from(self.state.fidelity.index());
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The detector's counters as of the last event it finished (the
/// detector's own invariant `ingested == analyzed + dropped + carried`
/// holds within every set).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ConsumerCounters {
    counters: DetectorCounters,
    carried: u64,
    /// Events pulled off the queue before the last crash and not yet
    /// re-processed — counted back out of `queued` so the ledger closes
    /// during a replay.
    replayed_in_flight: u64,
}

/// What the supervisor — live, or the frames it recorded — counts outside
/// both the consumer and the producer.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SupervisionCounts {
    pub(crate) restarts: u64,
    pub(crate) replayed_events: u64,
    pub(crate) lost_events: u64,
    pub(crate) reports_emitted: u64,
}

/// Everything the supervisor thread publishes — it is the only writer —
/// as one set behind one mutex, so no snapshot is torn across two
/// detector iterations or across the two halves of a restart.
#[derive(Debug, Default, Clone, Copy)]
struct SupervisorLedger {
    consumer: ConsumerCounters,
    supervision: SupervisionCounts,
    checkpoints: u64,
    report_shed: u64,
    /// The controller's level as a coarsening index (0 without one).
    fidelity_level: u64,
}

/// What the producer-side handle (and any [`StatsProbe`]) shares with the
/// supervisor thread, and nothing else: four counters only the handle
/// writes (plain atomics), the supervisor's [`SupervisorLedger`], and the
/// two flags, the health and the message the two sides signal each other
/// with.
#[derive(Debug, Default)]
struct SharedStats {
    ingested: AtomicU64,
    shed: AtomicU64,
    parse_errors: AtomicU64,
    /// Events absorbed into a merge-on-shed representative.
    coalesced: AtomicU64,
    supervisor: Mutex<SupervisorLedger>,
    /// Raised by the [`OverloadPolicy::Degrade`] producer on a full queue,
    /// lowered by the supervisor once the queue drains; while up, analysis
    /// runs at [`FidelityLevel::Floor`].
    pressure: AtomicBool,
    /// Set by the supervisor thread's exit guard.
    consumer_exited: AtomicBool,
    /// Signalled by the supervisor alone (see [`StatsProbe::health`]).
    health: HealthCell,
    last_panic: Mutex<Option<String>>,
}

impl SharedStats {
    fn last_panic(&self) -> Option<String> {
        self.last_panic.lock().expect("panic slot poisoned").clone()
    }

    fn ledger(&self) -> std::sync::MutexGuard<'_, SupervisorLedger> {
        self.supervisor.lock().expect("stats poisoned")
    }

    /// The producer/supervision counters a replayed detector cannot
    /// recompute, for a [`Frame::Snapshot`] overlay or a stats snapshot:
    /// the supervisor's from `ledger`, the producer's read now — after
    /// `ledger` was (see [`stats_from`]).
    fn overlay(&self, ledger: &SupervisorLedger) -> Overlay {
        Overlay {
            ingested: self.ingested.load(Ordering::Acquire),
            shed_events: self.shed.load(Ordering::Acquire),
            coalesced_events: self.coalesced.load(Ordering::Acquire),
            parse_errors: self.parse_errors.load(Ordering::Acquire),
            report_shed: ledger.report_shed,
            reports_digested: 0,
            fidelity_level: ledger.fidelity_level,
            checkpoints: ledger.checkpoints,
        }
    }
}

/// Assembles a [`PipelineStats`] snapshot from the shared ledger. The
/// supervisor's side is read first, under its one mutex, so
/// `consumer.ingested` can never exceed the producer's `ingested` read
/// after it — every snapshot closes (`accounts_exactly`) even when
/// sampled from a thread other than the producer's: a counter bumped
/// between the two reads only ever *grows* the derived `queued`, which is
/// exactly where an in-flight event belongs.
fn stats_from(shared: &SharedStats) -> PipelineStats {
    let ledger = *shared.ledger();
    PipelineStats::from_ledger(ledger.consumer, shared.overlay(&ledger), ledger.supervision)
}

/// A cloneable, thread-safe sampler of one spawned pipeline's ledger
/// (see [`PipelineHandle::probe`]): safe to call from any thread at any
/// time — every snapshot closes, because everything the supervisor
/// counts publishes under one mutex, read before the producer's atomics,
/// and the derived `queued` absorbs any counter bumped mid-sample.
#[derive(Debug, Clone)]
pub struct StatsProbe {
    shared: Arc<SharedStats>,
}

impl StatsProbe {
    /// A live accounting snapshot.
    pub fn stats(&self) -> PipelineStats {
        stats_from(&self.shared)
    }

    /// Degraded from a restart to the next incarnation's first checkpoint,
    /// then Recovered; Quarantined once the restart budget is spent.
    pub fn health(&self) -> Health {
        self.shared.health.get()
    }

    /// The most recent consumer panic the supervisor caught, if any.
    pub(crate) fn last_panic(&self) -> Option<String> {
        self.shared.last_panic()
    }
}

/// The feed side of a spawned pipeline is gone: the detector thread exited
/// (its receiver disconnected), so nothing more can be ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineClosed;

impl std::fmt::Display for PipelineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the detector thread is gone; the pipeline is closed")
    }
}

impl std::error::Error for PipelineClosed {}

/// The producer-side handle to a spawned pipeline: augments raw updates
/// through its own collector, enforces the overload policy at the bounded
/// queue, and exposes live [`PipelineStats`].
pub struct PipelineHandle {
    collector: Collector,
    tx: Option<Sender<WeightedEvent>>,
    /// Receiver clone used only to steal the oldest queued event under
    /// [`OverloadPolicy::DropOldest`] (shim receivers share one queue).
    steal_rx: Receiver<WeightedEvent>,
    reports: Receiver<AnomalyReport>,
    /// The supervisor thread; `None` once [`PipelineHandle::shutdown`] has
    /// joined it.
    join: Option<std::thread::JoinHandle<()>>,
    shared: Arc<SharedStats>,
    overload: OverloadPolicy,
    /// Merge-on-shed buffer: present under adaptive DropOldest.
    coalesce: Option<CoalesceBuffer>,
    /// The handle's lane into the recording: [`Frame::Transition`] frames,
    /// and the closing [`Frame::End`] at shutdown.
    recorder: Option<RecordingSeal>,
    /// The batch buffer [`PipelineHandle::ingest_event`] and
    /// [`PipelineHandle::ingest_update`] push through, reused (always
    /// empty between calls).
    batch: VecDeque<WeightedEvent>,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("overload", &self.overload)
            .field("queue_len", &self.queue_len())
            .finish_non_exhaustive()
    }
}

impl PipelineHandle {
    /// Ingests one raw update: collector augmentation happens here on the
    /// producer side (it is cheap), so backpressure applies between
    /// augmentation and the expensive windowed analysis. The update's
    /// events enter the queue as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineClosed`] when the detector thread is gone.
    pub fn ingest_update(
        &mut self,
        msg: &UpdateMessage,
        time: Timestamp,
    ) -> Result<(), PipelineClosed> {
        let events = self.collector.apply_update(msg, time);
        self.push_events(events)
    }

    /// Ingests one already-augmented event, applying the overload policy:
    /// a batch of one through the handle's one push path.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineClosed`] when the detector thread is gone.
    pub fn ingest_event(&mut self, event: Event) -> Result<(), PipelineClosed> {
        self.push_events(std::iter::once(event))
    }

    /// Pushes `events` as one batch through the handle's reused batch
    /// buffer.
    fn push_events(
        &mut self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<(), PipelineClosed> {
        let mut batch = std::mem::take(&mut self.batch);
        batch.extend(events.into_iter().map(WeightedEvent::unit));
        let pushed = self.push_batch(&mut batch);
        self.batch = batch;
        pushed
    }

    /// The one push path: enqueues `batch` in order under the overload
    /// policy and leaves it empty. The whole batch joins `ingested` with
    /// one atomic add; every event of it then reaches the queue or is
    /// counted as shed, so the ledger closes whatever happens.
    ///
    /// The policies keep their per-event meaning. [`OverloadPolicy::Block`]
    /// moves what fits and waits for room for the rest, losslessly;
    /// [`OverloadPolicy::Degrade`] does the same and raises the pressure
    /// flag whenever a fill finds the queue full;
    /// [`OverloadPolicy::DropNewest`] sheds the events that did not fit in
    /// one fill that does not wait — so with a `capacity` smaller than the
    /// batch, all but `capacity` events of each batch are shed however fast
    /// the consumer is, where a push per event let it free slots in between;
    /// [`OverloadPolicy::DropOldest`] runs its steal (or coalescing) loop
    /// for each event in turn.
    ///
    /// A timed-out fill checks the detector thread is still alive, and
    /// bails out instead of deadlocking when it is not — the receiver
    /// clone this handle holds would otherwise keep the channel connected
    /// forever.
    pub(crate) fn push_batch(
        &mut self,
        batch: &mut VecDeque<WeightedEvent>,
    ) -> Result<(), PipelineClosed> {
        if self.tx.is_none() {
            batch.clear();
            return Err(PipelineClosed);
        }
        self.shared
            .ingested
            .fetch_add(batch.len() as u64, Ordering::AcqRel);
        let pushed = match self.overload {
            OverloadPolicy::Block | OverloadPolicy::Degrade => self.fill_blocking(batch),
            // What does not fit stays in `batch`: shed, counted below.
            OverloadPolicy::DropNewest => self
                .tx
                .as_ref()
                .expect("checked above")
                .send_many(batch, Duration::ZERO)
                .map(drop)
                .map_err(|_| PipelineClosed),
            OverloadPolicy::DropOldest => std::iter::from_fn(|| batch.pop_front())
                .try_for_each(|event| self.push_dropping_oldest(event)),
        };
        // Only a closed pipeline or DropNewest leaves events behind; a
        // delivered batch costs no second atomic.
        if !batch.is_empty() {
            self.shared
                .shed
                .fetch_add(batch.len() as u64, Ordering::AcqRel);
            batch.clear();
        }
        pushed
    }

    /// Lossless delivery for [`OverloadPolicy::Block`] and
    /// [`OverloadPolicy::Degrade`] (see [`PipelineHandle::push_batch`]):
    /// fills the queue until `batch` is empty, the first fill without
    /// waiting. Leaves the undelivered rest in `batch` on error.
    fn fill_blocking(&self, batch: &mut VecDeque<WeightedEvent>) -> Result<(), PipelineClosed> {
        let tx = self.tx.as_ref().expect("an open pipeline");
        let mut wait = Duration::ZERO;
        loop {
            let moved = tx.send_many(batch, wait).map_err(|_| PipelineClosed)?;
            if batch.is_empty() {
                return Ok(());
            }
            if self.overload == OverloadPolicy::Degrade {
                // Queue full: pin analysis at the fidelity floor (the
                // consumer lifts it once the queue drains), then keep
                // delivering losslessly, exactly like `Block`.
                self.shared.pressure.store(true, Ordering::Release);
            }
            if moved == 0 && !wait.is_zero() && self.shared.consumer_exited.load(Ordering::Acquire)
            {
                return Err(PipelineClosed);
            }
            wait = Duration::from_millis(50);
        }
    }

    /// One event under [`OverloadPolicy::DropOldest`]: returns merged
    /// representatives to the queue while it has room, then makes room
    /// for the event by stealing the oldest queued one — shed, or folded
    /// into a representative under merge-on-shed. An event that cannot be
    /// delivered because the pipeline closed is counted as shed here.
    fn push_dropping_oldest(&mut self, mut event: WeightedEvent) -> Result<(), PipelineClosed> {
        // Opportunistically return merged representatives to the queue
        // while it has room, so coalesced evidence re-enters analysis as
        // soon as pressure eases.
        self.flush_coalesced();
        let tx = self.tx.as_ref().expect("an open pipeline");
        loop {
            match tx.try_send(event) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) => {
                    event = back;
                    // Steal the oldest queued event to make room. The
                    // consumer only ever removes, so this converges; racing
                    // with it just means the queue made room on its own.
                    match self.steal_rx.try_recv() {
                        Ok(oldest) => match self.coalesce.as_mut() {
                            // Merge-on-shed: fold the stolen event into a
                            // weighted representative instead of
                            // discarding it.
                            Some(buf) => match buf.fold(oldest) {
                                Fold::Merged => {
                                    self.shared.coalesced.fetch_add(1, Ordering::AcqRel);
                                }
                                // A held representative stays on the
                                // ledger's derived `queued` until it
                                // re-enters the queue.
                                Fold::Held => {}
                                Fold::Shed(_victim) => {
                                    self.shared.shed.fetch_add(1, Ordering::AcqRel);
                                }
                            },
                            None => {
                                self.shared.shed.fetch_add(1, Ordering::AcqRel);
                            }
                        },
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => {
                            self.shared.shed.fetch_add(1, Ordering::AcqRel);
                            return Err(PipelineClosed);
                        }
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.shared.shed.fetch_add(1, Ordering::AcqRel);
                    return Err(PipelineClosed);
                }
            }
        }
    }

    /// Moves merge-on-shed representatives back into the ingest queue while
    /// it has room. Re-entry does not re-count `ingested` — a
    /// representative is an already-ingested event continuing its journey.
    fn flush_coalesced(&mut self) {
        let (Some(buf), Some(tx)) = (self.coalesce.as_mut(), self.tx.as_ref()) else {
            return;
        };
        while let Some(rep) = buf.pop() {
            match tx.try_send(rep) {
                Ok(()) => {}
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    buf.unpop(back);
                    break;
                }
            }
        }
    }

    /// Terminal flush of the merge-on-shed buffer: delivers every held
    /// representative losslessly (the consumer is still draining until the
    /// feed closes), or counts the remainder as shed if the consumer died.
    /// Returns any reports drained while waiting — the consumer may itself
    /// be blocked on the bounded report queue, so waiting without draining
    /// could deadlock shutdown.
    fn drain_coalesced(&mut self, tx: &Sender<WeightedEvent>) -> Vec<AnomalyReport> {
        let mut drained = Vec::new();
        let Some(mut buf) = self.coalesce.take() else {
            return drained;
        };
        while let Some(mut rep) = buf.pop() {
            loop {
                match tx.try_send(rep) {
                    Ok(()) => break,
                    Err(TrySendError::Full(back))
                        if !self.shared.consumer_exited.load(Ordering::Acquire) =>
                    {
                        rep = back;
                        match self.reports.try_recv() {
                            Ok(report) => drained.push(report),
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    // The consumer died with the queue full, or is gone.
                    Err(_) => {
                        self.shared
                            .shed
                            .fetch_add(1 + buf.len() as u64, Ordering::AcqRel);
                        return drained;
                    }
                }
            }
        }
        drained
    }

    /// Records feed records skipped as unparseable upstream, so they show
    /// in [`PipelineStats::parse_errors`].
    pub fn record_parse_errors(&self, n: usize) {
        self.shared
            .parse_errors
            .fetch_add(n as u64, Ordering::AcqRel);
    }

    /// The report stream. Reports arrive as incidents complete; iterate (or
    /// `recv`) to consume them. Disconnects once the detector thread exits.
    pub fn reports(&self) -> &Receiver<AnomalyReport> {
        &self.reports
    }

    /// Events currently in the channel between producer and detector. This
    /// excludes up to 256 events the supervisor has already drained into
    /// its inbox but not yet pulled; [`PipelineStats::queued`] counts both.
    pub fn queue_len(&self) -> usize {
        self.steal_rx.len()
    }

    /// True while the detector thread is running.
    pub fn is_alive(&self) -> bool {
        !self.shared.consumer_exited.load(Ordering::Acquire)
    }

    /// True once the supervisor exhausted its restart budget and closed
    /// the pipeline.
    pub(crate) fn gave_up(&self) -> bool {
        self.shared.health.get() == Health::Quarantined
    }

    /// Counts as shed what a supervisor that gave up left behind: events
    /// stranded in the channel (this handle's receiver clone keeps it
    /// connected) and merge-on-shed representatives that can no longer
    /// re-enter it — so even a crashed pipeline settles at `queued == 0`
    /// with a closed ledger. Only for a supervisor that has left its loop
    /// (gave up, or joined); safe to call more than once.
    pub(crate) fn shed_stranded(&mut self) {
        let mut stranded = self.coalesce.take().map_or(0, |buf| buf.len() as u64);
        while self.steal_rx.try_recv().is_ok() {
            stranded += 1;
        }
        self.shared.shed.fetch_add(stranded, Ordering::AcqRel);
    }

    /// A live accounting snapshot. `queued` is derived from the producer's
    /// counters and the supervisor's ledger
    /// (`ingested - shed - coalesced - consumer-ingested`), so it covers
    /// both the channel and any merge-on-shed representatives waiting to
    /// re-enter it. The ledger closes at *every* instant, not just at
    /// quiescence, and from *any* sampling thread: the supervisor's side is
    /// read first, under its one mutex, then the producer's atomics.
    pub fn stats(&self) -> PipelineStats {
        stats_from(&self.shared)
    }

    /// A cloneable, thread-safe sampler of this pipeline's ledger: the
    /// [`StatsProbe`] can be handed to an observer/recorder thread and
    /// outlives the handle (it samples the final counters after
    /// `finish`).
    pub fn probe(&self) -> StatsProbe {
        StatsProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Writes an out-of-band supervision transition (a source quarantine)
    /// into the recording. A no-op when the run is not being recorded.
    pub(crate) fn record_transition(&self, kind: &str, detail: &str) {
        if let Some(rec) = &self.recorder {
            rec.transition(kind, detail);
        }
    }

    /// The message of the most recent consumer panic the supervisor caught,
    /// if any.
    pub fn last_panic(&self) -> Option<String> {
        self.shared.last_panic()
    }

    /// Ends the feed, waits for the supervised detector to flush its final
    /// window, and returns every remaining report plus the final stats
    /// snapshot (`carried == queued == replayed_in_flight == 0`, so the
    /// ledger closes as
    /// `ingested == analyzed + shed_events + dropped_events`).
    pub fn finish(mut self) -> (Vec<AnomalyReport>, PipelineStats) {
        let join = self.join.take().expect("finish runs once");
        let (reports, stats, joined) = self.shutdown(join);
        // The supervisor catches consumer panics itself; a panic here
        // would be a bug in the supervisor loop proper.
        joined.expect("supervisor thread panicked");
        (reports, stats)
    }

    /// The one way a spawned pipeline ends, whether finished or dropped:
    /// closes the feed, joins the supervisor, settles the ledger and seals
    /// the recording.
    fn shutdown(
        &mut self,
        join: std::thread::JoinHandle<()>,
    ) -> (Vec<AnomalyReport>, PipelineStats, std::thread::Result<()>) {
        let tx = self.tx.take().expect("shutdown runs once");
        let mut reports = self.drain_coalesced(&tx);
        drop(tx);
        // A bounded report queue may hold the supervisor's final flush up:
        // take a report whenever it is full instead of a blind join (which
        // would deadlock while the supervisor waits in egress).
        while !join.is_finished() {
            if self.reports.capacity() == Some(self.reports.len()) {
                if let Ok(report) = self.reports.try_recv() {
                    reports.push(report);
                    continue;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let joined = join.join();
        self.shed_stranded();
        // The rest in one piece: a shard's unbounded queue holds every
        // report of the run, and copying out of it would hold each twice.
        let mut queued = self.reports.take_all();
        if reports.is_empty() {
            reports = queued;
        } else {
            reports.append(&mut queued);
        }
        let stats = self.stats();
        // The supervisor is gone — its frames are with the writer thread —
        // and the ledger is final: seal the recording with the End frame.
        if let Some(rec) = self.recorder.take() {
            rec.seal(&stats);
        }
        (reports, stats, joined)
    }
}

impl Drop for PipelineHandle {
    /// A handle dropped without `finish` discards its report stream but
    /// still shuts the supervisor down cleanly and seals the recording, so
    /// the file ends with a complete End frame instead of a torn tail.
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.shutdown(join);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::AnomalyKind;
    use bgpscope_bgp::{AsPath, PathAttributes, PeerId, Prefix, RouterId};

    /// Crash points inside an analysis pass and at report egress, which
    /// [`PanicInjection`] (a panic between two queue pulls) cannot reach.
    /// Armed per thread, so a test arms the supervisor thread it spawns and
    /// no other.
    pub(super) mod crash_hook {
        use std::cell::Cell;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(in crate::pipeline) enum Site {
            /// After Stemming decomposed the window, before classification.
            Analyze,
            /// At the top of `Supervisor::egress`: after the event's
            /// analysis, before the capture that acks it.
            Egress,
        }

        thread_local! {
            static ARMED: Cell<Option<(Site, u32)>> = const { Cell::new(None) };
        }

        /// Panics on this thread's `nth` (1-based) arrival at `site`, once.
        pub(super) fn arm(site: Site, nth: u32) {
            ARMED.set(Some((site, nth)));
        }

        pub(in crate::pipeline) fn reach(site: Site) {
            match ARMED.get() {
                Some((armed, 1)) if armed == site => {
                    ARMED.set(None);
                    panic!("injected panic at {site:?}");
                }
                Some((armed, n)) if armed == site => ARMED.set(Some((armed, n - 1))),
                _ => {}
            }
        }
    }

    /// What captures cost, for the tests that pin it: the events cloned to
    /// keep a rewind point, split by whether the capture found the window
    /// only grown since the last one.
    #[derive(Debug, Default, Clone, Copy)]
    pub(super) struct CaptureAudit {
        pub(super) captures: u64,
        pub(super) copied_while_growing: u64,
        pub(super) most_copied_after_a_change: u64,
    }

    impl CaptureAudit {
        /// Books one capture of `detector`, before it moves the cursor.
        pub(super) fn record(&mut self, detector: &mut RealtimeDetector) {
            let copied = std::mem::take(&mut detector.rewind_copies);
            self.captures += 1;
            if matches!(detector.rewind, Rewind::Retired(_)) {
                self.most_copied_after_a_change = self.most_copied_after_a_change.max(copied);
            } else {
                self.copied_while_growing += copied;
            }
        }
    }

    fn reset_updates(base_secs: u64) -> Vec<(UpdateMessage, Timestamp)> {
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let attrs = PathAttributes::new(
            RouterId::from_octets(2, 2, 2, 2),
            "11423 209 701".parse().unwrap(),
        );
        let mut updates = Vec::new();
        for i in 0..60u8 {
            updates.push((
                UpdateMessage::announce(
                    peer,
                    attrs.clone(),
                    [Prefix::from_octets(10, i, 0, 0, 16)],
                ),
                Timestamp::from_secs(base_secs),
            ));
        }
        for i in 0..60u8 {
            updates.push((
                UpdateMessage::withdraw(peer, [Prefix::from_octets(10, i, 0, 0, 16)]),
                Timestamp::from_secs(base_secs + 100),
            ));
        }
        updates
    }

    #[test]
    fn detects_reset_across_window_boundary() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 20,
            min_component_events: 20,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        let mut reports = Vec::new();
        for (msg, t) in reset_updates(0) {
            reports.extend(det.ingest_update(&msg, t));
        }
        reports.extend(det.finish());
        assert!(!reports.is_empty());
        let kinds: Vec<AnomalyKind> = reports.iter().map(|r| r.verdict.kind).collect();
        assert!(kinds.contains(&AnomalyKind::SessionReset), "got {kinds:?}");
    }

    #[test]
    fn quiet_windows_produce_nothing() {
        let mut det = RealtimeDetector::new(PipelineConfig::default());
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let attrs = PathAttributes::new(RouterId(9), "1".parse().unwrap());
        let r = det.ingest_update(
            &UpdateMessage::announce(peer, attrs, ["10.0.0.0/8".parse().unwrap()]),
            Timestamp::ZERO,
        );
        assert!(r.is_empty());
        assert!(det.finish().is_empty());
    }

    #[test]
    fn threaded_pipeline_delivers_reports() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 20,
            min_component_events: 20,
            ..PipelineConfig::default()
        };
        let mut handle = RealtimeDetector::spawn(SpawnConfig::new(config));
        for (msg, t) in reset_updates(0) {
            handle.ingest_update(&msg, t).unwrap();
        }
        let (reports, stats) = handle.finish();
        assert!(!reports.is_empty());
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.carried, 0);
        assert_eq!(stats.shed_events, 0);
    }

    fn withdraw_event(t_secs: u64, prefix_octet: u8) -> Event {
        Event::withdraw(
            Timestamp::from_secs(t_secs),
            PeerId::from_octets(1, 1, 1, 1),
            Prefix::from_octets(10, prefix_octet, 0, 0, 16),
            PathAttributes::new(
                RouterId::from_octets(2, 2, 2, 2),
                "11423 209 701".parse().unwrap(),
            ),
        )
    }

    /// A window boundary must not discard a below-`min_events` buffer: a
    /// slow trickle carries into the next window and is analyzed once
    /// enough evidence accumulates.
    #[test]
    fn small_windows_carry_forward_instead_of_dropping() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 20,
            min_component_events: 20,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        let mut reports = Vec::new();
        // 15 events in the first window, 15 more after the boundary: neither
        // window alone reaches min_events, together they do.
        for i in 0..15u8 {
            reports.extend(det.ingest_event(withdraw_event(0, i)));
        }
        for i in 15..30u8 {
            reports.extend(det.ingest_event(withdraw_event(400, i)));
        }
        assert_eq!(det.stats().dropped_events, 0);
        reports.extend(det.finish());
        assert!(
            !reports.is_empty(),
            "carried-forward events must be analyzed"
        );
    }

    /// A terminal flush of a too-small buffer is the one place events are
    /// discarded, and the drop is counted, not silent.
    #[test]
    fn terminal_flush_counts_dropped_events() {
        let mut det = RealtimeDetector::new(PipelineConfig::default());
        for i in 0..3u8 {
            det.ingest_event(withdraw_event(0, i));
        }
        assert!(det.flush().is_empty());
        let stats = det.stats();
        assert_eq!(stats.ingested, 3);
        assert_eq!(stats.dropped_events, 3);
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// The spike fast-path must include the event that breached the
    /// threshold: the flush happens on the triggering ingest, and the
    /// analyzed component contains all `spike_events` events.
    #[test]
    fn spike_flush_includes_triggering_event() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(24 * 3600),
            min_events: 5,
            min_component_events: 5,
            spike_events: 10,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        for i in 0..9u8 {
            assert!(det.ingest_event(withdraw_event(u64::from(i), i)).is_empty());
        }
        let reports = det.ingest_event(withdraw_event(9, 9));
        assert_eq!(reports.len(), 1, "flush must fire on the 10th event");
        assert_eq!(
            reports[0].event_count, 10,
            "triggering event missing from window"
        );
    }

    #[test]
    fn spike_fast_path_flushes_early() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(24 * 3600), // huge window
            min_events: 20,
            min_component_events: 20,
            spike_events: 100,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        let mut got_early = false;
        for (msg, t) in reset_updates(0) {
            if !det.ingest_update(&msg, t).is_empty() {
                got_early = true;
            }
        }
        // 120 events > spike_events=100: a flush happened mid-stream.
        assert!(got_early);
    }

    /// An event earlier than the current window start is clamped forward
    /// into the window (counted), never allowed to stall the window clock.
    #[test]
    fn out_of_order_events_are_clamped_and_counted() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 2,
            min_component_events: 2,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        det.ingest_event(withdraw_event(1000, 0));
        // 600s in the past: before the window start at t=1000.
        det.ingest_event(withdraw_event(400, 1));
        assert_eq!(det.stats().clamped_events, 1);
        // The clock was not pulled backwards: the next boundary is still
        // relative to t=1000, and the clamped event is in this window.
        let reports = det.ingest_event(withdraw_event(1301, 2));
        assert!(!reports.is_empty(), "boundary at 1000+300 must fire");
        assert_eq!(reports[0].event_count, 2);
        assert!(det.stats().accounts_exactly());
    }

    /// The carry-forward buffer is bounded by count: a pathological trickle
    /// cannot accumulate unbounded memory, and every eviction is counted.
    #[test]
    fn carry_forward_count_cap_evicts_oldest() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(100),
            min_events: 1000, // nothing ever analyzes
            max_carry_events: 10,
            max_carry_age: Timestamp::ZERO, // count cap only
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        // One event per window, across 50 windows: each rotation carries.
        for i in 0..50u64 {
            det.ingest_event(withdraw_event(i * 200, (i % 250) as u8));
        }
        let stats = det.stats();
        assert!(
            stats.carried <= 11, // cap + the event that opened the window
            "carried {} must stay near the cap",
            stats.carried
        );
        assert!(stats.carry_forward_evictions > 0);
        assert_eq!(stats.dropped_events, stats.carry_forward_evictions);
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// The carry-forward buffer is bounded by age: events older than
    /// `max_carry_age` at a rotation are evicted even under the count cap.
    #[test]
    fn carry_forward_age_cap_evicts_stale() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(100),
            min_events: 1000,
            max_carry_events: 0, // age cap only
            max_carry_age: Timestamp::from_secs(250),
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        det.ingest_event(withdraw_event(0, 1));
        det.ingest_event(withdraw_event(150, 2));
        // Rotation at t=600: both carried events are older than 600-250.
        det.ingest_event(withdraw_event(600, 3));
        let stats = det.stats();
        assert_eq!(stats.carry_forward_evictions, 2);
        assert_eq!(stats.carried, 1);
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// DropNewest on a tiny queue with a deliberately slow consumer: the
    /// queue never exceeds its capacity and the ledger closes.
    #[test]
    fn drop_newest_sheds_and_accounts() {
        let config = SpawnConfig {
            pipeline: PipelineConfig {
                window: Timestamp::from_secs(300),
                min_events: 5,
                min_component_events: 5,
                ..PipelineConfig::default()
            },
            capacity: 4,
            overload: OverloadPolicy::DropNewest,
            ..SpawnConfig::default()
        };
        let mut handle = RealtimeDetector::spawn(config);
        for i in 0..500u64 {
            handle
                .ingest_event(withdraw_event(i, (i % 250) as u8))
                .unwrap();
            assert!(handle.queue_len() <= 4);
        }
        let (_, stats) = handle.finish();
        assert_eq!(stats.ingested, 500);
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// Degrade policy: a storm into a tiny queue flips the detector into
    /// degraded mode; nothing is shed; the ledger closes.
    #[test]
    fn degrade_policy_is_lossless() {
        let config = SpawnConfig {
            pipeline: PipelineConfig {
                window: Timestamp::from_secs(60),
                min_events: 10,
                min_component_events: 10,
                ..PipelineConfig::default()
            },
            capacity: 8,
            overload: OverloadPolicy::Degrade,
            ..SpawnConfig::default()
        };
        let mut handle = RealtimeDetector::spawn(config);
        for i in 0..2_000u64 {
            handle
                .ingest_event(withdraw_event(i * 30, (i % 250) as u8))
                .unwrap();
        }
        let (_, stats) = handle.finish();
        assert_eq!(stats.shed_events, 0);
        assert_eq!(stats.ingested, 2_000);
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// Two concurrent session resets in the same window — disjoint peers,
    /// paths, and prefixes — must come out as two reports from one window's
    /// decomposition (the incremental multi-round path), strongest first.
    #[test]
    fn concurrent_resets_in_one_window_yield_two_reports() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 20,
            min_component_events: 10,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config);
        let mut reports = Vec::new();
        // Reset A: 30 withdrawals through 11423-209.
        for i in 0..30u8 {
            reports.extend(det.ingest_event(withdraw_event(10, i)));
        }
        // Reset B, overlapping in time: 15 withdrawals through 5511-3356
        // from a different peer.
        for i in 0..15u8 {
            reports.extend(det.ingest_event(Event::withdraw(
                Timestamp::from_secs(12),
                PeerId::from_octets(9, 9, 9, 9),
                Prefix::from_octets(172, 16 + i, 0, 0, 16),
                PathAttributes::new(
                    RouterId::from_octets(3, 3, 3, 3),
                    "5511 3356".parse().unwrap(),
                ),
            )));
        }
        reports.extend(det.finish());
        assert_eq!(reports.len(), 2, "got {} reports", reports.len());
        assert_eq!(reports[0].stem, "209-701");
        assert!(reports[1].stem.contains("3356"), "stem {}", reports[1].stem);
        assert!(reports[0].event_count >= reports[1].event_count);
    }

    #[test]
    fn overload_policy_parses_from_str() {
        for policy in OverloadPolicy::ALL {
            assert_eq!(policy.to_string().parse::<OverloadPolicy>(), Ok(policy));
        }
        assert!("bananas".parse::<OverloadPolicy>().is_err());
    }

    /// A checkpoint captures everything `restore` needs: the restored
    /// detector checkpoints back to the identical value.
    #[test]
    fn checkpoint_restore_is_identity() {
        let config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 100,
            ..PipelineConfig::default()
        };
        let mut det = RealtimeDetector::new(config.clone());
        for i in 0..25u8 {
            det.ingest_event(withdraw_event(u64::from(i), i));
        }
        let checkpoint = det.checkpoint();
        assert_eq!(checkpoint.counters.ingested, 25);
        assert_eq!(checkpoint.buffer.len(), 25);
        let restored = RealtimeDetector::restore(config, checkpoint.clone());
        assert_eq!(restored.checkpoint(), checkpoint);
    }

    /// An injected consumer panic mid-feed: the supervisor restores the
    /// checkpoint, replays the in-flight ring, and the run completes with
    /// the restart on the ledger and no events lost.
    #[test]
    fn supervisor_recovers_from_injected_panic() {
        let config = SpawnConfig::new(PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 5,
            min_component_events: 5,
            ..PipelineConfig::default()
        })
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(16)
                .with_backoff(Duration::from_millis(1)),
        )
        .with_fault(PanicInjection {
            after_events: 100,
            repeat: 1,
        });
        let mut handle = RealtimeDetector::spawn(config);
        for i in 0..300u64 {
            handle
                .ingest_event(withdraw_event(i, (i % 250) as u8))
                .unwrap();
        }
        let (reports, stats) = handle.finish();
        assert_eq!(stats.restarts, 1, "{stats}");
        assert!(stats.replayed_events > 0, "{stats}");
        assert!(stats.replayed_events <= 16, "{stats}");
        assert_eq!(stats.lost_events, 0, "{stats}");
        assert_eq!(stats.ingested, 300, "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        assert!(stats.reports_account_exactly(), "{stats}");
        assert!(!reports.is_empty(), "analysis must survive the restart");
    }

    /// Crashes inside a window many checkpoint intervals long: every
    /// restart rewinds the detector to a slot moved by many captures and
    /// keeps capturing into it. The first replays a partial ring (events
    /// 97..=100), which shifts the capture cadence so that the second
    /// replays a full one (193..=200) and a capture lands inside the replay
    /// loop. Reports and the final ledger equal the synchronous detector's.
    #[test]
    fn supervisor_recovers_mid_window_across_incremental_checkpoints() {
        let pipeline = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 5,
            min_component_events: 5,
            ..PipelineConfig::default()
        };
        // One window [120 s, 420 s) of 320 events, every seventh stamped
        // before its start (clamped on ingest, so the buffered event is not
        // the fed one), then a rotation and a short final window.
        let mut events = Vec::new();
        for i in 0..320u64 {
            let t = if i % 7 == 3 { i % 100 } else { 120 + i % 300 };
            events.push(withdraw_event(t, (i % 250) as u8));
        }
        for i in 0..10u64 {
            events.push(withdraw_event(500 + i, i as u8));
        }

        let mut oracle = RealtimeDetector::new(pipeline.clone());
        let mut expected = Vec::new();
        for event in &events {
            expected.extend(oracle.ingest_event(event.clone()));
        }
        expected.extend(oracle.flush());
        assert!(!expected.is_empty());
        assert!(oracle.stats().clamped_events > 0);

        let config = SpawnConfig::new(pipeline)
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(8)
                    .with_backoff(Duration::from_millis(1)),
            )
            .with_fault(PanicInjection {
                after_events: 100,
                repeat: 3,
            });
        let mut handle = RealtimeDetector::spawn(config);
        for event in &events {
            handle.ingest_event(event.clone()).unwrap();
        }
        let (reports, stats) = handle.finish();
        let render = |rs: &[AnomalyReport]| rs.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(render(&reports), render(&expected));
        assert_eq!(stats.restarts, 3, "{stats}");
        assert_eq!(stats.lost_events, 0, "{stats}");
        // Rings of 4, 8 and 4 events (see above); the bound is 8 × restarts.
        assert_eq!(stats.replayed_events, 16, "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        let comparable = PipelineStats {
            restarts: 0,
            replayed_events: 0,
            checkpoints: 0,
            ..stats
        };
        assert_eq!(comparable, oracle.stats(), "{stats}");
    }

    /// `tests/checkpoint_differential.rs`'s fixed hard-case stream under
    /// its config: two clamps, a rotation that analyses nothing and evicts
    /// out of the middle of the carry, a spike mid-window, a merged weight,
    /// a rotation that analyses, and a tail the terminal flush drops.
    fn hard_case_stream() -> (PipelineConfig, Vec<WeightedEvent>) {
        let withdraw = |t_millis: u64, pfx: u8| {
            WeightedEvent::unit(Event::withdraw(
                Timestamp::from_millis(t_millis),
                PeerId::from_octets(192, 168, 0, 1),
                Prefix::from_octets(10, pfx, 0, 0, 16),
                PathAttributes::new(
                    RouterId::from_octets(10, 0, 0, 1),
                    AsPath::from_u32s([7, 8, 9]),
                ),
            ))
        };
        let mut events = [20_000, 29_000, 5_000, 28_000, 21_000, 1_000, 41_000]
            .into_iter()
            .zip(0..)
            .map(|(t, pfx)| withdraw(t, pfx))
            .collect::<Vec<_>>();
        events.extend((0..7).map(|i| withdraw(42_000 + i, 10 + i as u8)));
        events.push(WeightedEvent {
            weight: 5,
            ..withdraw(43_000, 30)
        });
        events.extend((0..7).map(|i| withdraw(44_000 + i, 40 + i as u8)));
        events.extend((0..3).map(|i| withdraw(60_000 + i, 50 + i as u8)));
        let config = PipelineConfig {
            window: Timestamp::from_secs(10),
            min_events: 8,
            min_component_events: 5,
            spike_events: 10,
            max_carry_events: 4,
            max_carry_age: Timestamp::from_secs(15),
            ..PipelineConfig::default()
        };
        (config, events)
    }

    /// A panic inside an analysis pass (the window borrowed by Stemming,
    /// the counters already bumped, the encoding cache mid-update) and one
    /// at egress — after the event's analysis, before the capture that
    /// acks it, so the window the rewind needs was already retired — are
    /// recovered like a panic between pulls: at every such point of the
    /// hard-case stream, at three checkpoint intervals, the reports and
    /// the ledger equal the uninterrupted run's.
    #[test]
    fn supervisor_recovers_from_a_crash_inside_an_analysis_or_before_its_capture() {
        let (config, events) = hard_case_stream();
        let mut oracle = RealtimeDetector::new(config.clone());
        let mut expected = Vec::new();
        for weighted in &events {
            expected.extend(oracle.ingest_weighted(weighted.clone()));
        }
        expected.extend(oracle.flush());
        let render = |rs: &[AnomalyReport]| rs.iter().map(ToString::to_string).collect::<Vec<_>>();
        let expected = render(&expected);
        assert!(!expected.is_empty());

        for interval in [1, 3, 8] {
            for (site, points) in [
                (crash_hook::Site::Analyze, 2),
                // One egress per event and one for the terminal flush.
                (crash_hook::Site::Egress, events.len() as u32 + 1),
            ] {
                // The `nth` arrival at `site`, until a run never gets there.
                let mut nth = 1;
                loop {
                    let spawn = SpawnConfig::new(config.clone()).with_supervisor(
                        SupervisorConfig::default()
                            .with_checkpoint_interval(interval)
                            .with_backoff(Duration::ZERO),
                    );
                    let mut handle = RealtimeDetector::spawn_with(spawn, move |mut supervisor| {
                        crash_hook::arm(site, nth);
                        supervisor.run();
                    });
                    handle
                        .push_batch(&mut events.iter().cloned().collect())
                        .unwrap();
                    let (reports, stats) = handle.finish();
                    if stats.restarts == 0 {
                        break;
                    }
                    let at = format!("{site:?} #{nth}, interval {interval}: {stats}");
                    assert_eq!(render(&reports), expected, "{at}");
                    assert_eq!(stats.restarts, 1, "{at}");
                    let comparable = PipelineStats {
                        restarts: 0,
                        replayed_events: 0,
                        checkpoints: 0,
                        ..stats
                    };
                    assert_eq!(comparable, oracle.stats(), "{at}");
                    nth += 1;
                }
                assert_eq!(
                    nth - 1,
                    points,
                    "{site:?} crash points, interval {interval}"
                );
            }
        }
    }

    /// The structural guard on capture: a 40,000-event flap window through
    /// a spawned pipeline at the default interval (256) is captured over
    /// 150 times and no capture copies an event while the window only
    /// grows; after the window changed, the events copied for the rewind
    /// point are a carry below `min_events` (the trickle that follows the
    /// window carries and is evicted from), never the window.
    #[test]
    fn capture_copies_nothing_while_the_window_only_grows() {
        let config = PipelineConfig {
            max_carry_events: 10,
            ..PipelineConfig::default()
        };
        let min_events = config.min_events as u64;
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let attrs = PathAttributes::new(
            RouterId::from_octets(2, 2, 2, 2),
            "11423 209 701".parse().unwrap(),
        );
        let flap = (0..40_000u64).map(|i| {
            let prefix = Prefix::from_octets(10, (i % 200) as u8, (i / 200 % 2) as u8, 0, 24);
            let time = Timestamp::from_millis(i);
            if i / 400 % 2 == 0 {
                Event::withdraw(time, peer, prefix, attrs.clone())
            } else {
                Event::announce(time, peer, prefix, attrs.clone())
            }
        });
        // Ten windows of 20 events each, below `min_events`: every
        // rotation carries, and the count cap evicts from the carry.
        let trickle =
            (0..200u64).map(|i| withdraw_event(1_000 + (i / 20) * 1_000 + i % 20, i as u8));
        let (audit_tx, audit_rx) = std::sync::mpsc::channel();
        let mut handle =
            RealtimeDetector::spawn_with(SpawnConfig::new(config), move |mut supervisor| {
                supervisor.run();
                audit_tx.send(supervisor.state.slot.audit).unwrap();
            });
        for event in flap.chain(trickle) {
            handle.ingest_event(event).unwrap();
        }
        let (reports, stats) = handle.finish();
        let audit = audit_rx.recv().unwrap();
        assert!(!reports.is_empty(), "{stats}");
        assert!(stats.carry_forward_evictions > 0, "{stats}");
        assert!(audit.captures >= 150, "{audit:?}");
        assert_eq!(audit.copied_while_growing, 0, "{audit:?}");
        assert!(audit.most_copied_after_a_change > 0, "{audit:?}");
        assert!(audit.most_copied_after_a_change < min_events, "{audit:?}");
    }

    /// When the panic keeps firing past `max_restarts`, the supervisor
    /// gives up: the pipeline closes, and the un-replayable ring is counted
    /// as lost — bounded by the configured checkpoint interval, adaptive
    /// control or not — with the ledger still closing.
    #[test]
    fn supervisor_gives_up_and_counts_lost_events() {
        let interval = 8;
        let plain = SpawnConfig::new(PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 1_000_000, // no analysis: only interval checkpoints
            ..PipelineConfig::default()
        })
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(interval)
                .with_max_restarts(2)
                .with_backoff(Duration::from_millis(1)),
        )
        .with_fault(PanicInjection {
            after_events: 20,
            repeat: u32::MAX,
        });
        let adaptive = plain.clone().with_adaptive(ControllerConfig::default());
        for (mode, config) in [("plain", plain), ("adaptive", adaptive)] {
            let mut handle = RealtimeDetector::spawn(config);
            let mut sent = 0u64;
            for i in 0..10_000u64 {
                if handle
                    .ingest_event(withdraw_event(i, (i % 250) as u8))
                    .is_err()
                {
                    break;
                }
                sent += 1;
            }
            // The producer can outrun the crash/backoff/replay cycles; the
            // give-up itself is what must happen, not its timing.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while handle.is_alive() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{mode}: supervisor never gave up"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(handle.last_panic().is_some());
            let stats = handle.stats();
            assert_eq!(stats.restarts, 3, "{mode}: {stats}"); // max_restarts + the last straw
            assert!(stats.lost_events > 0, "{mode}: {stats}");
            assert!(
                stats.lost_events <= interval as u64,
                "{mode}: lost {} > checkpoint interval {interval}: {stats}",
                stats.lost_events
            );
            assert!(sent > 20, "{mode}: the feed must outlive the first crash");
            assert!(stats.accounts_exactly(), "{mode}: {stats}");
            // The give-up published the restored counters, zero replay debt
            // and the lost ring as one set; `finish` sheds what the dead
            // supervisor left queued.
            assert_eq!(stats.replayed_in_flight, 0, "{mode}: {stats}");
            let (_reports, last) = handle.finish();
            assert_eq!(last.lost_events, stats.lost_events, "{mode}: {last}");
            assert_eq!(last.replayed_in_flight, 0, "{mode}: {last}");
            assert_eq!(last.queued, 0, "{mode}: {last}");
            assert!(last.accounts_exactly(), "{mode}: {last}");
        }
    }

    /// A pipeline whose supervisor can be parked in report egress: every
    /// 5-event window of [`window_feed`] yields a report, and a report
    /// queue of one that nobody reads holds the second.
    fn stallable() -> SpawnConfig {
        SpawnConfig::new(PipelineConfig {
            window: Timestamp::from_secs(10),
            min_events: 2,
            min_component_events: 2,
            ..PipelineConfig::default()
        })
        .with_report_capacity(1)
    }

    /// `windows` windows of five withdrawals, 20 s apart.
    fn window_feed(windows: u64) -> impl Iterator<Item = Event> {
        (0..windows).flat_map(|w| (0..5u8).map(move |i| withdraw_event(w * 20, i)))
    }

    /// Feeds windows 0–2 and waits until closing window 1 has emitted the
    /// second report: from then on a [`stallable`] supervisor is blocked in
    /// egress, so whatever the producer sends next waits in the channel
    /// and the next `recv_many` finds it all there.
    fn stall_in_egress(handle: &mut PipelineHandle, feed: &mut impl Iterator<Item = Event>) {
        for event in feed.take(15) {
            handle.ingest_event(event).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.stats().reports_emitted < 2 {
            assert!(std::time::Instant::now() < deadline, "no second report");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A give-up with events drained into the inbox sheds them in the same
    /// pass that books the lost ring: 1,000 events queue behind a stalled
    /// supervisor, so the batch it drains next is full and the injected
    /// panic lands with most of it still in the inbox.
    #[test]
    fn give_up_sheds_the_inbox() {
        let interval = 8;
        let config = stallable()
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(interval)
                    .with_max_restarts(0),
            )
            .with_fault(PanicInjection {
                after_events: 30,
                repeat: 1,
            });
        let mut handle = RealtimeDetector::spawn(config);
        let mut feed = window_feed(205);
        stall_in_egress(&mut handle, &mut feed);
        for event in feed {
            handle.ingest_event(event).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.is_alive() {
            assert!(std::time::Instant::now() < deadline, "never gave up");
            let _ = handle.reports().recv_timeout(Duration::from_millis(1));
        }
        let stats = handle.stats();
        // Nothing is shed before `finish` but the inbox.
        assert!(stats.shed_events > 0, "the inbox was empty: {stats}");
        assert!(stats.lost_events > 0, "{stats}");
        assert!(stats.lost_events <= interval as u64, "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        let (_reports, last) = handle.finish();
        assert_eq!(last.queued, 0, "{last}");
        assert_eq!(last.lost_events, stats.lost_events, "{last}");
        assert_eq!(last.ingested, 1_025, "{last}");
        assert!(last.accounts_exactly(), "{last}");
    }

    /// The controller samples the channel plus the inbox: 235 events queue
    /// behind a stalled supervisor, which then drains them in one batch.
    /// The channel reads empty from then on, yet the backlog — nearly
    /// twice the target depth of 128 — must keep fidelity down while it
    /// is worked off.
    #[test]
    fn controller_counts_the_inbox_as_queue() {
        let config = stallable()
            .with_capacity(256)
            .with_adaptive(ControllerConfig::default());
        let mut handle = RealtimeDetector::spawn(config);
        let mut feed = window_feed(50);
        stall_in_egress(&mut handle, &mut feed);
        for event in feed {
            handle.ingest_event(event).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.stats().queued > 0 {
            assert!(std::time::Instant::now() < deadline, "backlog not drained");
            let _ = handle.reports().recv_timeout(Duration::from_millis(1));
        }
        let (_reports, stats) = handle.finish();
        assert!(stats.degraded_windows >= 20, "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
    }

    /// The JSON ledger is stable: every documented field is present under
    /// its documented name *in declaration order* (new fields append, they
    /// never reorder), so downstream tooling can rely on the schema.
    #[test]
    fn stats_to_json_has_stable_schema() {
        let stats = PipelineStats {
            ingested: 10,
            analyzed: 7,
            shed_events: 1,
            dropped_events: 2,
            ..PipelineStats::default()
        };
        let json = stats.to_json();
        let mut last_at = 0;
        for field in [
            "ingested",
            "analyzed",
            "shed_events",
            "dropped_events",
            "carry_forward_evictions",
            "degraded_windows",
            "clamped_events",
            "parse_errors",
            "carried",
            "queued",
            "restarts",
            "checkpoints",
            "replayed_events",
            "replayed_in_flight",
            "lost_events",
            "reports_emitted",
            "reports_delivered",
            "report_shed",
            "reports_digested",
            "coalesced_events",
            "fidelity_level",
        ] {
            let at = json
                .find(&format!("\"{field}\""))
                .unwrap_or_else(|| panic!("missing {field}: {json}"));
            assert!(
                at > last_at || field == "ingested",
                "{field} out of order: {json}"
            );
            last_at = at;
        }
        let back: PipelineStats = serde_json::from_str(&json).expect("ledger parses back");
        assert_eq!(back, stats);
    }

    /// Adaptive DropOldest under pressure: stolen events merge into
    /// weighted representatives instead of vanishing, the extended ledger
    /// closes at quiescence, and the fidelity level returns to full once
    /// the feed ends.
    #[test]
    fn adaptive_drop_oldest_coalesces_instead_of_shedding() {
        let config = SpawnConfig::new(PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 5,
            min_component_events: 5,
            spike_events: 50,
            ..PipelineConfig::default()
        })
        .with_capacity(4)
        .with_overload(OverloadPolicy::DropOldest)
        .with_adaptive(ControllerConfig::default().with_target_depth(2));
        let mut handle = RealtimeDetector::spawn(config);
        // Few distinct prefixes, so stolen events nearly always find a
        // matching representative to merge into.
        for i in 0..5_000u64 {
            handle
                .ingest_event(withdraw_event(i / 10, (i % 8) as u8))
                .unwrap();
            assert!(handle.queue_len() <= 4);
        }
        let (_, stats) = handle.finish();
        assert_eq!(stats.ingested, 5_000, "{stats}");
        assert!(stats.coalesced_events > 0, "nothing coalesced: {stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(stats.queued, 0, "{stats}");
    }

    /// Weighted representatives flow through the sub-sequence counts: with
    /// `min_support` set above the raw event count, only the merged
    /// weights can push the correlation over the bar — and each
    /// representative still counts as one ingested event on the ledger.
    #[test]
    fn weighted_ingest_counts_once_and_weights_analysis() {
        let mut config = PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 2,
            min_component_events: 2,
            ..PipelineConfig::default()
        };
        config.stemming.min_support = 10;
        let mut det = RealtimeDetector::new(config.clone());
        det.ingest_weighted(WeightedEvent {
            event: withdraw_event(0, 1),
            weight: 40,
        });
        det.ingest_weighted(WeightedEvent {
            event: withdraw_event(1, 2),
            weight: 2,
        });
        let stats = det.stats();
        assert_eq!(stats.ingested, 2, "a representative counts once");
        let reports = det.finish();
        assert!(
            !reports.is_empty(),
            "42 units of merged weight must clear min_support 10"
        );

        // The same two events at unit weight stay below the bar.
        let mut unit = RealtimeDetector::new(config);
        unit.ingest_event(withdraw_event(0, 1));
        unit.ingest_event(withdraw_event(1, 2));
        assert!(unit.finish().is_empty(), "unit weights must not clear it");
    }

    /// Any fidelity below full — down to the floor `OverloadPolicy::Degrade`
    /// pins under pressure — coarsens analysis, counts the window as
    /// degraded, and marks its reports. The session reset is a *strong*
    /// correlation: even floor analysis finds it.
    #[test]
    fn fidelity_below_full_marks_reports_degraded() {
        for level in [FidelityLevel::Medium, FidelityLevel::Floor] {
            let config = PipelineConfig {
                window: Timestamp::from_secs(300),
                min_events: 20,
                min_component_events: 20,
                ..PipelineConfig::default()
            };
            let mut det = RealtimeDetector::new(config);
            det.set_fidelity(level);
            let mut reports = Vec::new();
            for (msg, t) in reset_updates(0) {
                reports.extend(det.ingest_update(&msg, t));
            }
            reports.extend(det.flush());
            assert!(!reports.is_empty());
            assert!(reports.iter().all(|r| r.degraded), "reports must be marked");
            let stats = det.stats();
            assert!(stats.degraded_windows > 0, "{stats}");
            assert_eq!(stats.fidelity_level, u64::from(level.index()), "{stats}");
            assert!(stats.accounts_exactly(), "{stats}");
        }
    }
}
