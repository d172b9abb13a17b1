//! Deterministic incident recording and replay.
//!
//! A postmortem needs to *revisit* a run: scrub back to the onset of an
//! incident, step through the decisions the pipeline made, and regenerate
//! the paper's §III-A animation at any cursor. This module records a
//! supervised pipeline run as an append-only, serde-framed event log —
//! every detector ingest (with the fidelity level in force),
//! every emitted report, restart, quarantine transition, and periodic
//! ledger snapshot — then replays it with time controls. The recording is
//! the one durable form of supervisor state: a [`Frame::Snapshot`] is the
//! checkpoint a restart restores, and nothing else is written to disk.
//!
//! # Recording format
//!
//! A recording is a JSON manifest at `<path>` ([`Manifest`]: format
//! version, the [`PipelineConfig`] needed to re-drive the detector, the
//! segment size) plus newline-delimited [`Frame`] lines chunked across
//! `<path>.seg0`, `<path>.seg1`, ….
//! Chunking bounds recorder memory — frames stream through one
//! `BufWriter` — and bounds *replay* work: [`Replay`] keeps at most one
//! decoded segment in memory. Its seek index keeps where each snapshot is,
//! not the checkpoint it holds: a jump decodes that frame again.
//!
//! Because [`Frame::Event`] frames capture the exact ingest boundary —
//! including ring replays after a crash (`replayed: true`) and the
//! fidelity level read at that instant — re-driving a fresh
//! [`RealtimeDetector`] through the frame sequence is *bit-identical* to
//! the live consumer, restarts and all ([`Frame::Restart`] restores from
//! the last snapshot's checkpoint, exactly as the supervisor did).
//! `crates/anomaly/tests/replay_differential.rs` proves this property
//! under randomized fault plans.
//!
//! # Time controls
//!
//! [`Replay::seek_events`] jumps via the nearest [`Frame::Snapshot`] at
//! or before the target — O(segment), not O(run) — then scans forward.
//! [`Replay::step`] advances event-by-event, [`Replay::seek_time`] maps a
//! recording-clock instant to an event ordinal, and [`Replay::play`]
//! advances the cursor by `wall × rate` for accelerated playback. At any
//! cursor, [`Replay::stats`] reconstructs the [`PipelineStats`] ledger
//! (producer-side counters come from the nearest snapshot's [`Overlay`]),
//! [`Replay::reports`] returns the recorded reports up to the cursor, and
//! [`Replay::animation_at_cursor`] feeds the trailing window into the
//! TAMP engine for the paper's 30-second frame sequence.
//!
//! A torn final segment (the process died mid-write) is recovered to the
//! last complete frame: [`Replay::load`] marks the recording
//! [`Replay::truncated`] and replays the usable prefix — never panics.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Duration;

use bgpscope_bgp::{EventStream, Timestamp};
use bgpscope_tamp::{Animation, Animator};
use serde::{Deserialize, Serialize};

use crate::control::FidelityLevel;
use crate::pipeline::{
    PipelineCheckpoint, PipelineConfig, PipelineStats, RealtimeDetector, SupervisionCounts,
    WeightedEvent,
};
use crate::report::AnomalyReport;

/// Recording format version (bumped on any frame-schema change).
pub const RECORDING_VERSION: u32 = 3;

/// Where and how a pipeline run is recorded. Attach with
/// [`crate::pipeline::SpawnConfig::with_recorder`]; under a
/// [`crate::shard::ShardedPipeline`] each shard records independently to
/// `<path>.shard<k>` (plus that shard's own `.seg<j>` chunks).
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Manifest path; frame segments land at `<path>.seg<k>`.
    pub path: PathBuf,
    /// Frames per segment file (the chunking bound). Clamped to ≥ 16.
    pub frames_per_segment: usize,
    /// Human label stamped into the manifest (and onto exported TAMP
    /// animations).
    pub label: String,
}

impl RecorderConfig {
    /// A recorder writing to `path` with default chunking.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RecorderConfig {
            path: path.into(),
            frames_per_segment: 8_192,
            label: "bgpscope recording".to_owned(),
        }
    }

    /// Sets the segment size in frames (clamped to ≥ 16 at create time).
    pub fn with_frames_per_segment(mut self, frames: usize) -> Self {
        self.frames_per_segment = frames;
        self
    }

    /// Sets the manifest label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// The recording header, serialized as JSON at the manifest path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`RECORDING_VERSION`]).
    pub version: u32,
    /// Human label for the run.
    pub label: String,
    /// Frames per `.seg<k>` chunk.
    pub frames_per_segment: u64,
    /// The detector configuration replay re-drives.
    pub config: PipelineConfig,
}

/// Producer- and supervision-side counters the replayed detector cannot
/// recompute (they live outside the consumer), sampled into every
/// [`Frame::Snapshot`] under the same publication the checkpoint uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Overlay {
    /// Events offered to the pipeline so far.
    pub ingested: u64,
    /// Events shed by the overload policy so far.
    pub shed_events: u64,
    /// Events absorbed by merge-on-shed so far.
    pub coalesced_events: u64,
    /// Upstream parse errors recorded so far.
    pub parse_errors: u64,
    /// Reports shed at egress so far.
    pub report_shed: u64,
    /// Reports an older build's full report queue coalesced into counts so
    /// far; 0 in every recording made now, kept so format-3 recordings
    /// that carry it still replay with a closed report ledger.
    pub reports_digested: u64,
    /// Fidelity level in force.
    pub fidelity_level: u64,
    /// Checkpoints the supervisor has taken so far. Carried here because
    /// only checkpoints of small windows are framed: the recording may
    /// hold fewer snapshots than the live run took checkpoints, so replay
    /// cannot recover this counter by counting frames.
    #[serde(skip_default)]
    pub checkpoints: u64,
}

/// One recorded step of the run, in consumer order (the supervisor thread
/// writes every frame replay acts on, so the file order *is* the replay
/// order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// One detector ingest: the exact event and the fidelity level read
    /// for it. `replayed` marks in-flight-ring re-processing after a
    /// crash.
    Event {
        /// The weighted event fed to the detector.
        event: WeightedEvent,
        /// Fidelity level index in force ([`FidelityLevel::index`];
        /// the floor while `OverloadPolicy::Degrade` saw queue pressure).
        /// Elided from the frame when 0 (the overwhelmingly common case):
        /// event frames dominate a recording, so their encoding is kept
        /// lean.
        #[serde(skip_default)]
        fidelity: u8,
        /// True when this is a ring replay after a restart.
        #[serde(skip_default)]
        replayed: bool,
    },
    /// One report emitted at egress (at-least-once across restarts, same
    /// as the live report stream).
    Report {
        /// The emitted report.
        report: AnomalyReport,
    },
    /// A supervisor checkpoint: the detector's recoverable state plus the
    /// producer-side [`Overlay`]. Replay seeks land here.
    Snapshot {
        /// The detector checkpoint.
        checkpoint: PipelineCheckpoint,
        /// Producer/supervision counters at this instant.
        overlay: Overlay,
    },
    /// The consumer crashed; the supervisor restored the last checkpoint
    /// (or gave up).
    Restart {
        /// The panic message.
        cause: String,
        /// Restart count after this crash.
        restarts: u64,
        /// True when the restart budget was exhausted.
        gave_up: bool,
        /// Ring events lost on give-up (0 otherwise).
        lost: u64,
    },
    /// An out-of-band supervision transition (shard quarantine, source
    /// quarantine). Informational: replay does not act on it, and its
    /// position among the other frames carries no meaning — the handle
    /// writes it on its own lane, so it may precede up to one batch (256
    /// frames) of supervisor frames that happened before it.
    /// [`Replay::transitions`] is a position-less list.
    Transition {
        /// Transition kind (e.g. `"quarantine"`, `"source-quarantine"`).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The feed closed and the detector flushed its final window.
    Flush,
    /// The run finished; the handle's final stats snapshot.
    End {
        /// Final [`PipelineStats`] (ledger closed).
        stats: PipelineStats,
    },
}

/// Segment path for chunk `k` of a recording based at `base`.
fn segment_path(base: &Path, k: u64) -> PathBuf {
    PathBuf::from(format!("{}.seg{k}", base.display()))
}

/// Frames accumulated locally before one channel hand-over to the writer
/// thread. Batching amortizes the per-send cost (which wakes the blocked
/// writer) down to noise on the supervisor's hot path.
const SINK_BATCH_FRAMES: usize = 256;

/// In-flight *batches* the writer thread may buffer before the pipeline
/// blocks on it — a memory bound (back-pressure), not a correctness bound.
const SINK_CHANNEL_DEPTH: usize = 32;

/// `BufWriter` capacity for segment files: large enough that a segment
/// flushes in a handful of write syscalls.
const SINK_WRITE_BUFFER: usize = 256 * 1024;

#[derive(Debug)]
struct SinkInner {
    base: PathBuf,
    frames_per_segment: u64,
    writer: Option<BufWriter<File>>,
    segment: u64,
    frames_in_segment: u64,
    /// Reused per-frame serialization buffer (one allocation for the
    /// whole recording, not one per frame).
    line: String,
    /// Latched on the first write error, which is reported once on
    /// stderr: recording is best-effort and must never take the pipeline
    /// down. The supervisor's [`FrameWriter`] reads it to stop framing.
    failed: Arc<AtomicBool>,
}

impl SinkInner {
    fn write_frame(&mut self, frame: &Frame) {
        if self.failed.load(Ordering::Acquire) {
            return;
        }
        self.line.clear();
        frame.write_json(&mut self.line);
        self.line.push('\n');
        if self.writer.is_none() {
            let path = segment_path(&self.base, self.segment);
            match File::create(&path) {
                Ok(file) => self.writer = Some(BufWriter::with_capacity(SINK_WRITE_BUFFER, file)),
                Err(e) => {
                    self.latch(format!("cannot create segment {}: {e}", path.display()));
                    return;
                }
            }
        }
        let writer = self.writer.as_mut().expect("writer just ensured");
        if let Err(e) = writer.write_all(self.line.as_bytes()) {
            self.latch(format!("segment write failed: {e}"));
            return;
        }
        self.frames_in_segment += 1;
        if self.frames_in_segment >= self.frames_per_segment {
            // Roll the segment: flush and start a fresh chunk on the next
            // frame, so a reader never sees a segment grow past the
            // manifest's chunk size.
            if let Some(mut writer) = self.writer.take() {
                if let Err(e) = writer.flush() {
                    self.latch(format!("segment flush failed: {e}"));
                }
            }
            self.segment += 1;
            self.frames_in_segment = 0;
        }
    }

    /// Drains the channel until every sender is gone, then flushes the
    /// tail segment. The writer-thread body.
    fn run(mut self, rx: std::sync::mpsc::Receiver<Vec<Frame>>) {
        while let Ok(batch) = rx.recv() {
            for frame in &batch {
                self.write_frame(frame);
            }
        }
        if let Some(mut writer) = self.writer.take() {
            if let Err(e) = writer.flush() {
                self.latch(format!("final flush failed: {e}"));
            }
        }
    }

    fn latch(&mut self, message: String) {
        eprintln!("recording to {} disabled: {message}", self.base.display());
        self.failed.store(true, Ordering::Release);
        self.writer = None;
    }
}

/// Creates a recording: writes the manifest, removes stale `.seg<k>`
/// chunks from a previous run at the same path, and starts the writer
/// thread.
///
/// # The write side of a recording
///
/// Frame serialization and file I/O run on a dedicated writer thread fed
/// batches of frames over one bounded channel, so recording a run costs
/// the run an encode, not a disk write. The channel has two senders, one
/// per thread that frames anything, and neither shares state with the
/// other: the supervisor owns the [`FrameWriter`] (every `Event`,
/// `Report`, `Snapshot`, `Restart` and `Flush` frame, batched, in
/// consumer order) and the pipeline handle keeps the [`RecordingSeal`]
/// (out-of-band `Transition` frames and the closing `End`). The handle
/// seals after joining the supervisor, whose writer hands over its last
/// batch when it drops, so `End` is always the final frame. All I/O
/// errors are latched on the writer thread, reported once on stderr, and
/// leave the pipeline itself untouched.
///
/// # Errors
///
/// Returns the I/O error when the manifest cannot be written or the
/// writer thread cannot spawn (the caller then runs unrecorded).
pub(crate) fn create_recording(
    config: &RecorderConfig,
    pipeline: &PipelineConfig,
) -> std::io::Result<(FrameWriter, RecordingSeal)> {
    let frames_per_segment = config.frames_per_segment.max(16) as u64;
    let manifest = Manifest {
        version: RECORDING_VERSION,
        label: config.label.clone(),
        frames_per_segment,
        config: pipeline.clone(),
    };
    let json = serde_json::to_string(&manifest)
        .map_err(|e| std::io::Error::other(format!("manifest encode failed: {e}")))?;
    std::fs::write(&config.path, json)?;
    let mut stale = 0u64;
    while std::fs::remove_file(segment_path(&config.path, stale)).is_ok() {
        stale += 1;
    }
    let failed = Arc::new(AtomicBool::new(false));
    let inner = SinkInner {
        base: config.path.clone(),
        frames_per_segment,
        writer: None,
        segment: 0,
        frames_in_segment: 0,
        line: String::with_capacity(1024),
        failed: Arc::clone(&failed),
    };
    let (tx, rx) = std::sync::mpsc::sync_channel(SINK_CHANNEL_DEPTH);
    let worker = std::thread::Builder::new()
        .name("bgpscope-recorder".to_owned())
        .spawn(move || inner.run(rx))?;
    let writer = FrameWriter {
        batch: Vec::with_capacity(SINK_BATCH_FRAMES),
        tx: tx.clone(),
        failed,
    };
    Ok((writer, RecordingSeal { tx, worker }))
}

/// The supervisor's half of a recording (see [`create_recording`]): plain
/// state owned by the one thread that frames the run. The per-frame path
/// takes no lock; the only shared word it touches is the writer thread's
/// `failed` latch.
#[derive(Debug)]
pub(crate) struct FrameWriter {
    /// Frames accumulated since the last hand-over (flushed at
    /// [`SINK_BATCH_FRAMES`], and on drop).
    batch: Vec<Frame>,
    tx: SyncSender<Vec<Frame>>,
    failed: Arc<AtomicBool>,
}

impl FrameWriter {
    /// Frames one supervision step (no-op after a latched write error;
    /// blocks only when the writer thread is [`SINK_CHANNEL_DEPTH`]
    /// batches behind). A [`Frame::Snapshot`] is recorded as given: the
    /// supervisor frames an ordinary checkpoint only when its window is
    /// below `min_events` (right after an analysis, or a carried
    /// remnant), so a snapshot never re-serialises a large window the
    /// `Event` frames already hold; the checkpoint a restart *restores* is
    /// always framed — replay must see that exact state to re-drive the
    /// next incarnation from the point the live supervisor did.
    pub(crate) fn record(&mut self, frame: Frame) {
        if self.failed.load(Ordering::Acquire) {
            return;
        }
        self.batch.push(frame);
        if self.batch.len() >= SINK_BATCH_FRAMES {
            let full = std::mem::replace(&mut self.batch, Vec::with_capacity(SINK_BATCH_FRAMES));
            // A send error means the writer thread is gone — it latched its
            // error on the way out.
            let _ = self.tx.send(full);
        }
    }
}

impl Drop for FrameWriter {
    /// The supervisor is exiting (or unwinding): the pending batch goes to
    /// the writer thread before the handle can seal behind it.
    fn drop(&mut self) {
        let _ = self.tx.send(std::mem::take(&mut self.batch));
    }
}

/// The pipeline handle's half of a recording (see [`create_recording`]).
#[derive(Debug)]
pub(crate) struct RecordingSeal {
    tx: SyncSender<Vec<Frame>>,
    worker: std::thread::JoinHandle<()>,
}

impl RecordingSeal {
    /// Frames an out-of-band [`Frame::Transition`], handed over at once.
    pub(crate) fn transition(&self, kind: &str, detail: &str) {
        let _ = self.tx.send(vec![Frame::Transition {
            kind: kind.to_owned(),
            detail: detail.to_owned(),
        }]);
    }

    /// Writes the terminal [`Frame::End`] and joins the writer thread
    /// (which flushes the tail segment). Call once the supervisor thread —
    /// the other sender — is gone.
    pub(crate) fn seal(self, stats: &PipelineStats) {
        let _ = self.tx.send(vec![Frame::End { stats: *stats }]);
        drop(self.tx);
        let _ = self.worker.join();
    }
}

/// Why a recording could not be loaded or scrubbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Filesystem error reading the manifest or a segment.
    Io(String),
    /// The manifest is missing, malformed, or a wrong version.
    Manifest(String),
    /// A frame line failed to decode mid-recording (not a torn tail —
    /// those are recovered; see [`Replay::truncated`]).
    Corrupt {
        /// Segment index the bad line lives in.
        segment: u64,
        /// 1-based line number within the segment.
        line: u64,
        /// Decoder message.
        cause: String,
    },
    /// A seek target was out of range for this recording.
    OutOfRange(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "recording I/O error: {e}"),
            ReplayError::Manifest(e) => write!(f, "bad recording manifest: {e}"),
            ReplayError::Corrupt {
                segment,
                line,
                cause,
            } => write!(f, "corrupt frame at seg{segment}:{line}: {cause}"),
            ReplayError::OutOfRange(e) => write!(f, "seek out of range: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Frame-position counters, tracked globally from the start of the
/// recording (a snapshot jump restores them wholesale, so they stay
/// cumulative at any cursor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    events: u64,
    replayed: u64,
    reports: u64,
    restarts: u64,
    lost: u64,
    snapshots: u64,
}

impl Counts {
    /// How one frame moves the counters: the single definition behind both
    /// the index [`Replay::load`] builds and the cursor [`Replay::apply`]
    /// drives, so the two cannot drift.
    fn absorb(&mut self, frame: &Frame) {
        match frame {
            Frame::Event { replayed, .. } => {
                self.events += 1;
                self.replayed += u64::from(*replayed);
            }
            Frame::Report { .. } => self.reports += 1,
            Frame::Snapshot { .. } => self.snapshots += 1,
            Frame::Restart { lost, .. } => {
                self.restarts += 1;
                self.lost += lost;
            }
            Frame::Transition { .. } | Frame::Flush | Frame::End { .. } => {}
        }
    }
}

/// Index entry for one [`Frame::Event`]: raw event time, the monotone
/// recording clock (running max of event times — raw times can regress
/// under reordering), and the global frame position.
#[derive(Debug, Clone, Copy)]
struct EventIdx {
    time_us: u64,
    clock_us: u64,
    pos: u64,
}

/// Index entry for one [`Frame::Snapshot`]: everything needed to land
/// the cursor just *after* it but its checkpoint, which stays on disk
/// until a jump decodes the frame.
#[derive(Debug, Clone)]
struct SnapshotIdx {
    pos: u64,
    /// Counters just before this frame.
    counts: Counts,
    overlay: Overlay,
}

/// Index entry for one [`Frame::Restart`].
#[derive(Debug, Clone)]
struct RestartIdx {
    clock_us: u64,
    cause: String,
    gave_up: bool,
}

/// One bucket of the reconstructed timeline.
#[derive(Debug, Clone, Default)]
pub struct TimelineBucket {
    /// Bucket start (recording clock).
    pub start: Timestamp,
    /// Bucket end (exclusive).
    pub end: Timestamp,
    /// Events whose raw time falls in the bucket.
    pub events: u64,
    /// Reports whose incident end falls in the bucket.
    pub reports: u64,
    /// Consumer restarts attributed to the bucket.
    pub restarts: u64,
    /// Distinct stems reported in the bucket.
    pub stems: BTreeSet<String>,
    /// Highest event ordinal (1-based) seen in the bucket — where
    /// [`Replay::seek_hotspot`] lands.
    pub last_ordinal: u64,
}

/// A ranked anomaly-dense region of the recording.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// Density rank (0 = densest).
    pub rank: usize,
    /// Bucket start.
    pub start: Timestamp,
    /// Bucket end (exclusive).
    pub end: Timestamp,
    /// Events in the bucket.
    pub events: u64,
    /// Reports in the bucket.
    pub reports: u64,
    /// Restarts in the bucket.
    pub restarts: u64,
    /// Distinct stems reported in the bucket.
    pub stems: Vec<String>,
    /// Event ordinal [`Replay::seek_hotspot`] seeks to.
    pub last_ordinal: u64,
}

/// The bucketed anomaly-density histogram over a recording.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Bucket width.
    pub bucket_width: Timestamp,
    /// The buckets, in time order (empty buckets retained so density is
    /// visual against the full span).
    pub buckets: Vec<TimelineBucket>,
}

impl Timeline {
    /// Buckets ranked by anomaly density: report count first, then event
    /// count, then restarts; earlier buckets win ties (incident onset
    /// beats its echo).
    pub fn hotspots(&self, k: usize) -> Vec<Hotspot> {
        let mut order: Vec<usize> = (0..self.buckets.len())
            .filter(|&i| {
                let b = &self.buckets[i];
                b.reports > 0 || b.events > 0 || b.restarts > 0
            })
            .collect();
        order.sort_by(|&a, &b| {
            let (ba, bb) = (&self.buckets[a], &self.buckets[b]);
            bb.reports
                .cmp(&ba.reports)
                .then(bb.events.cmp(&ba.events))
                .then(bb.restarts.cmp(&ba.restarts))
                .then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .enumerate()
            .map(|(rank, i)| {
                let b = &self.buckets[i];
                Hotspot {
                    rank,
                    start: b.start,
                    end: b.end,
                    events: b.events,
                    reports: b.reports,
                    restarts: b.restarts,
                    stems: b.stems.iter().cloned().collect(),
                    last_ordinal: b.last_ordinal,
                }
            })
            .collect()
    }

    /// Renders the histogram as fixed-width rows (CLI `--timeline`).
    pub fn render(&self) -> String {
        let peak = self
            .buckets
            .iter()
            .map(|b| b.events.max(b.reports * 8))
            .max()
            .unwrap_or(0)
            .max(1);
        let mut out = String::new();
        for bucket in &self.buckets {
            let bar = ((bucket.events.max(bucket.reports * 8) * 40) / peak) as usize;
            out.push_str(&format!(
                "{:>10.1}s |{:<40}| {:>6} ev {:>3} rep {:>2} rst\n",
                bucket.start.as_secs_f64(),
                "#".repeat(bar),
                bucket.events,
                bucket.reports,
                bucket.restarts,
            ));
        }
        out
    }
}

/// A loaded recording with a scrubbable cursor.
///
/// The cursor sits *between* frames: `cursor_events()` events have been
/// applied to the embedded detector. Seeks restore from the nearest
/// [`Frame::Snapshot`] at or before the target — exactly the state the
/// live detector had when that checkpoint was taken — so every cursor
/// position is bit-identical to a from-scratch prefix replay
/// (`replay_differential.rs` property b).
pub struct Replay {
    base: PathBuf,
    manifest: Manifest,
    /// Total complete frames across all segments (a torn tail line is
    /// excluded; see `truncated`).
    frames_total: u64,
    truncated: bool,
    events: Vec<EventIdx>,
    snapshots: Vec<SnapshotIdx>,
    /// Every recorded report with its frame position (ground truth,
    /// including at-least-once duplicates across restarts).
    recorded_reports: Vec<(u64, AnomalyReport)>,
    restarts: Vec<RestartIdx>,
    end_stats: Option<PipelineStats>,
    transitions: Vec<(String, String)>,
    // Cursor state.
    pos: u64,
    counts: Counts,
    detector: RealtimeDetector,
    last_checkpoint: Option<PipelineCheckpoint>,
    /// Reports the re-driven detector produced since the cursor's origin
    /// (fresh load or last snapshot jump): the differential harness
    /// cross-checks these against the recorded stream.
    recomputed: Vec<AnomalyReport>,
    /// The playback head of [`Replay::play`]: where accelerated playback
    /// has advanced to in recording time, which can run ahead of the last
    /// applied event's clock across quiet gaps. Cleared by any explicit
    /// seek or step (those reposition by event, not by playhead).
    playhead_us: Option<u64>,
    /// Segment cache: at most one decoded segment in memory.
    cache: Option<(u64, Vec<Frame>)>,
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("base", &self.base)
            .field("frames_total", &self.frames_total)
            .field("events_total", &self.events.len())
            .field("cursor_events", &self.counts.events)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl Replay {
    /// Loads a recording: parses the manifest, scans every segment once
    /// to build the seek indexes, and leaves the cursor at 0.
    ///
    /// A torn final line (the recorder died mid-write) is tolerated: the
    /// complete-frame prefix loads and [`Replay::truncated`] reports it.
    /// A malformed line *before* the end of the data is corruption and
    /// fails the load.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Manifest`] for a missing/invalid manifest,
    /// [`ReplayError::Corrupt`] for mid-recording frame damage,
    /// [`ReplayError::Io`] for filesystem errors.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, ReplayError> {
        let base = path.into();
        let manifest_json = std::fs::read_to_string(&base)
            .map_err(|e| ReplayError::Manifest(format!("cannot read {}: {e}", base.display())))?;
        let manifest: Manifest = serde_json::from_str(&manifest_json)
            .map_err(|e| ReplayError::Manifest(format!("{}: {e}", base.display())))?;
        if manifest.version != RECORDING_VERSION {
            return Err(ReplayError::Manifest(format!(
                "version {} (this build reads {RECORDING_VERSION})",
                manifest.version
            )));
        }

        let mut events = Vec::new();
        let mut snapshots = Vec::new();
        let mut recorded_reports = Vec::new();
        let mut restarts = Vec::new();
        let mut transitions = Vec::new();
        let mut end_stats = None;
        let mut counts = Counts::default();
        let mut clock_us = 0u64;
        let mut pos = 0u64;
        let mut truncated = false;
        let mut segment = 0u64;
        while !truncated {
            let Some(torn) = decode_segment(&base, segment, |frame| {
                match &frame {
                    Frame::Event { event, .. } => {
                        let time_us = event.event.time.as_micros();
                        clock_us = clock_us.max(time_us);
                        events.push(EventIdx {
                            time_us,
                            clock_us,
                            pos,
                        });
                    }
                    Frame::Report { report } => recorded_reports.push((pos, report.clone())),
                    // Indexed with the counters just *before* the frame.
                    Frame::Snapshot { overlay, .. } => snapshots.push(SnapshotIdx {
                        pos,
                        counts,
                        overlay: *overlay,
                    }),
                    Frame::Restart { cause, gave_up, .. } => restarts.push(RestartIdx {
                        clock_us,
                        cause: cause.clone(),
                        gave_up: *gave_up,
                    }),
                    Frame::Transition { kind, detail } => {
                        transitions.push((kind.clone(), detail.clone()));
                    }
                    Frame::Flush => {}
                    Frame::End { stats } => end_stats = Some(*stats),
                }
                counts.absorb(&frame);
                pos += 1;
            })?
            else {
                break;
            };
            truncated = torn;
            segment += 1;
        }
        // A recording whose sink never sealed (killed mid-run) has no End
        // frame; that also counts as truncated for the caller's purposes.
        if end_stats.is_none() {
            truncated = true;
        }

        let detector = RealtimeDetector::new(manifest.config.clone());
        Ok(Replay {
            base,
            manifest,
            frames_total: pos,
            truncated,
            events,
            snapshots,
            recorded_reports,
            restarts,
            end_stats,
            transitions,
            pos: 0,
            counts: Counts::default(),
            detector,
            last_checkpoint: None,
            recomputed: Vec::new(),
            playhead_us: None,
            cache: None,
        })
    }

    /// The manifest this recording was made under.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total events in the recording (including ring replays).
    pub fn events_total(&self) -> u64 {
        self.events.len() as u64
    }

    /// Total complete frames loaded.
    pub fn frames_total(&self) -> u64 {
        self.frames_total
    }

    /// True when the recording ended mid-write (torn tail recovered to
    /// the last complete frame) or was never sealed with an End frame.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The final live stats, when the recording was sealed.
    pub fn end_stats(&self) -> Option<PipelineStats> {
        self.end_stats
    }

    /// Recorded supervision transitions (shard/source quarantines).
    pub fn transitions(&self) -> &[(String, String)] {
        &self.transitions
    }

    /// Recorded restarts: `(recording-clock instant, cause, gave_up)`.
    pub fn restart_log(&self) -> Vec<(Timestamp, String, bool)> {
        self.restarts
            .iter()
            .map(|r| {
                (
                    Timestamp::from_micros(r.clock_us),
                    r.cause.clone(),
                    r.gave_up,
                )
            })
            .collect()
    }

    /// Event ordinal at the cursor (events applied so far).
    pub fn cursor_events(&self) -> u64 {
        self.counts.events
    }

    /// Recording-clock instant at the cursor: the monotone clock of the
    /// last applied event (the recording's start instant when none).
    pub fn cursor_time(&self) -> Timestamp {
        let n = self.counts.events as usize;
        if n == 0 {
            Timestamp::from_micros(self.events.first().map_or(0, |e| e.clock_us))
        } else {
            Timestamp::from_micros(self.events[n - 1].clock_us)
        }
    }

    /// The re-driven detector's own ledger at the cursor.
    pub fn detector_stats(&self) -> PipelineStats {
        self.detector.stats()
    }

    /// Reports the re-driven detector produced since the cursor's origin
    /// (fresh load or the snapshot a seek jumped through). After
    /// [`Replay::to_end`] on a freshly loaded replay this is the complete
    /// recomputed report stream — the differential harness compares it
    /// against [`Replay::reports`].
    pub fn recomputed_reports(&self) -> &[AnomalyReport] {
        &self.recomputed
    }

    /// The recorded reports emitted at or before the cursor (ground
    /// truth, including at-least-once duplicates across restarts).
    pub fn reports(&self) -> Vec<AnomalyReport> {
        let cut = self
            .recorded_reports
            .partition_point(|(pos, _)| *pos < self.pos);
        self.recorded_reports[..cut]
            .iter()
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Reconstructs the full [`PipelineStats`] ledger at the cursor.
    ///
    /// Consumer-side counters come from the re-driven detector;
    /// producer/supervision counters from the nearest applied
    /// [`Frame::Snapshot`]'s [`Overlay`] (before the first snapshot the
    /// producer side is taken as "nothing shed yet", which is exact for
    /// lossless runs and a documented lower bound otherwise). Past the
    /// [`Frame::End`] of a sealed recording the producer side is the sealed
    /// ledger's: after a give-up the producer sheds what was still queued,
    /// which no snapshot saw. The ledger is assembled by the constructor
    /// the live handle uses, so at the final cursor of a sealed recording
    /// this equals the live run's final stats bit-for-bit.
    pub fn stats(&self) -> PipelineStats {
        let overlay = self.overlay_at_cursor().unwrap_or_else(|| {
            let det = self.detector.stats();
            Overlay {
                ingested: det.ingested,
                fidelity_level: det.fidelity_level,
                checkpoints: self.counts.snapshots,
                ..Overlay::default()
            }
        });
        PipelineStats::from_ledger(
            self.detector.consumer_counters(0),
            overlay,
            SupervisionCounts {
                restarts: self.counts.restarts,
                replayed_events: self.counts.replayed,
                lost_events: self.counts.lost,
                reports_emitted: self.counts.reports,
            },
        )
    }

    /// The sealed ledger's producer side once the cursor is past the
    /// `End` frame, else the overlay of the last snapshot applied before
    /// the cursor.
    fn overlay_at_cursor(&self) -> Option<Overlay> {
        if let Some(end) = self.end_stats.filter(|_| self.pos == self.frames_total) {
            return Some(Overlay {
                ingested: end.ingested,
                shed_events: end.shed_events,
                coalesced_events: end.coalesced_events,
                parse_errors: end.parse_errors,
                report_shed: end.report_shed,
                reports_digested: end.reports_digested,
                fidelity_level: end.fidelity_level,
                checkpoints: end.checkpoints,
            });
        }
        let cut = self.snapshots.partition_point(|s| s.pos < self.pos);
        (cut > 0).then(|| self.snapshots[cut - 1].overlay)
    }

    /// Advances the cursor by `n` events (stops at the end of the
    /// recording). Returns the number of events actually applied.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn step(&mut self, n: u64) -> Result<u64, ReplayError> {
        self.playhead_us = None;
        let target = (self.counts.events + n).min(self.events_total());
        let before = self.counts.events;
        self.run_to_events(target)?;
        Ok(self.counts.events - before)
    }

    /// Seeks the cursor to just after the `target`-th event (0 rewinds
    /// to the start). Jumps via the nearest snapshot at or before the
    /// target, then scans forward — O(segment), not O(run). Just after
    /// the last event is the end of the recording: the frames that follow
    /// it (the final flush, its reports, the last snapshot, `End`) come
    /// before no event, so every seek or step that reaches it applies
    /// them, as [`Replay::to_end`] does.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn seek_events(&mut self, target: u64) -> Result<(), ReplayError> {
        self.playhead_us = None;
        let target = target.min(self.events_total());
        if target < self.counts.events {
            self.rewind_toward(target)?;
        } else {
            // Forward: take a snapshot shortcut only when it skips past
            // the cursor (otherwise a linear scan from here is closer).
            let best = self.best_snapshot_for(target);
            if let Some(idx) = best {
                if self.snapshots[idx].pos >= self.pos {
                    self.jump_to_snapshot(idx)?;
                }
            }
        }
        self.run_to_events(target)
    }

    /// Seeks to the recording-clock instant `t`: the cursor lands after
    /// the last event whose clock is ≤ `t`.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn seek_time(&mut self, t: Timestamp) -> Result<(), ReplayError> {
        let target = self.events.partition_point(|e| e.clock_us <= t.as_micros()) as u64;
        self.seek_events(target)
    }

    /// Accelerated playback: advances the cursor by `wall × rate` of
    /// recording-clock time. Deterministic — pacing belongs to the
    /// caller (the CLI sleeps `wall` between calls).
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn play(&mut self, rate: f64, wall: Duration) -> Result<u64, ReplayError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ReplayError::OutOfRange(format!("bad playback rate {rate}")));
        }
        let before = self.counts.events;
        let advance_us = (wall.as_secs_f64() * rate * 1e6) as u64;
        // The playhead, not the last applied event, is the base: playback
        // keeps advancing across quiet gaps wider than one call's window.
        let base = self
            .playhead_us
            .map_or(self.cursor_time().as_micros(), |p| {
                p.max(self.cursor_time().as_micros())
            });
        let target = Timestamp::from_micros(base + advance_us);
        self.seek_time(target)?;
        self.playhead_us = Some(target.as_micros());
        Ok(self.counts.events - before)
    }

    /// Runs the cursor through every remaining frame, including the
    /// terminal flush. After this on a fresh load,
    /// [`Replay::recomputed_reports`] is the complete re-driven report
    /// stream and [`Replay::stats`] the reconstructed final ledger.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn to_end(&mut self) -> Result<(), ReplayError> {
        while self.pos < self.frames_total {
            let frame = self.frame_at(self.pos)?;
            self.apply(&frame);
        }
        Ok(())
    }

    /// Builds the anomaly-density timeline with the default bucket width
    /// (a quarter of the analysis window, floored at one second).
    pub fn timeline(&self) -> Timeline {
        let window = self.manifest.config.window.as_micros();
        let width = (window / 4).max(1_000_000);
        self.timeline_with_bucket(Timestamp::from_micros(width))
    }

    /// Builds the timeline with an explicit bucket width.
    pub fn timeline_with_bucket(&self, width: Timestamp) -> Timeline {
        let width_us = width.as_micros().max(1);
        let (min_us, max_us) = match (self.events.first(), self.events.last()) {
            (Some(first), Some(_)) => (
                self.events
                    .iter()
                    .map(|e| e.time_us)
                    .min()
                    .unwrap_or(first.time_us),
                self.events
                    .iter()
                    .map(|e| e.time_us)
                    .max()
                    .unwrap_or(first.time_us),
            ),
            _ => {
                return Timeline {
                    bucket_width: width,
                    buckets: Vec::new(),
                }
            }
        };
        let origin = (min_us / width_us) * width_us;
        let buckets_len = ((max_us - origin) / width_us + 1) as usize;
        let mut buckets: Vec<TimelineBucket> = (0..buckets_len)
            .map(|i| TimelineBucket {
                start: Timestamp::from_micros(origin + i as u64 * width_us),
                end: Timestamp::from_micros(origin + (i as u64 + 1) * width_us),
                ..TimelineBucket::default()
            })
            .collect();
        let slot = |t_us: u64| -> usize {
            (t_us.saturating_sub(origin) / width_us).min(buckets_len as u64 - 1) as usize
        };
        for (ordinal, event) in self.events.iter().enumerate() {
            let bucket = &mut buckets[slot(event.time_us)];
            bucket.events += 1;
            bucket.last_ordinal = bucket.last_ordinal.max(ordinal as u64 + 1);
        }
        for (_, report) in &self.recorded_reports {
            let bucket = &mut buckets[slot(report.end.as_micros())];
            bucket.reports += 1;
            bucket.stems.insert(report.stem.clone());
        }
        for restart in &self.restarts {
            buckets[slot(restart.clock_us)].restarts += 1;
        }
        Timeline {
            bucket_width: width,
            buckets,
        }
    }

    /// Seeks straight to the `i`-th densest hotspot of the default
    /// timeline (rank 0 = densest).
    ///
    /// # Errors
    ///
    /// [`ReplayError::OutOfRange`] when fewer than `i + 1` hotspots
    /// exist; segment re-read errors otherwise.
    pub fn seek_hotspot(&mut self, i: usize) -> Result<Hotspot, ReplayError> {
        let hotspots = self.timeline().hotspots(i + 1);
        let hotspot = hotspots
            .into_iter()
            .nth(i)
            .ok_or_else(|| ReplayError::OutOfRange(format!("no hotspot #{i} in this recording")))?;
        self.seek_events(hotspot.last_ordinal)?;
        Ok(hotspot)
    }

    /// The raw events in the trailing `span` of recording time at the
    /// cursor: every applied event whose raw time falls in
    /// `(cursor_time - span, cursor_time]`, in applied order.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn window_events(&mut self, span: Timestamp) -> Result<EventStream, ReplayError> {
        let cursor_us = self.cursor_time().as_micros();
        let floor = cursor_us.saturating_sub(span.as_micros());
        let positions: Vec<u64> = self.events[..self.counts.events as usize]
            .iter()
            .filter(|e| e.time_us > floor && e.time_us <= cursor_us)
            .map(|e| e.pos)
            .collect();
        let mut stream = EventStream::new();
        for pos in positions {
            match self.frame_at(pos)? {
                Frame::Event { event, .. } => stream.push(event.event),
                _ => return Err(self.misindexed(pos, "event")),
            }
        }
        Ok(stream)
    }

    /// Feeds the trailing `span` at the cursor into the TAMP animation
    /// engine: the paper's §III-A frame sequence (30 seconds × 25 fps)
    /// for the scrubbed interval. `None` when the window holds no
    /// events.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] on segment re-read failures.
    pub fn animation_at_cursor(
        &mut self,
        span: Timestamp,
    ) -> Result<Option<Animation>, ReplayError> {
        let stream = self.window_events(span)?;
        if stream.is_empty() {
            return Ok(None);
        }
        Ok(Some(
            Animator::new(self.manifest.label.clone()).animate(&stream),
        ))
    }

    /// The greatest snapshot strictly before the `target`-th event frame.
    /// Strictly: a snapshot taken *after* that event (at the same event
    /// count) sits past the canonical cursor — jumping onto it would
    /// overshoot the report/snapshot frames a prefix replay stops before.
    fn best_snapshot_for(&self, target: u64) -> Option<usize> {
        let cut = self.snapshots.partition_point(|s| s.counts.events < target);
        cut.checked_sub(1)
    }

    /// Rewind: land on the best snapshot at or before `target` events,
    /// or back at a pristine detector when none precedes it.
    fn rewind_toward(&mut self, target: u64) -> Result<(), ReplayError> {
        match self.best_snapshot_for(target) {
            Some(idx) => self.jump_to_snapshot(idx)?,
            None => {
                self.pos = 0;
                self.counts = Counts::default();
                self.detector = RealtimeDetector::new(self.manifest.config.clone());
                self.last_checkpoint = None;
                self.recomputed.clear();
            }
        }
        Ok(())
    }

    /// Places the cursor immediately after snapshot `idx`, restoring the
    /// detector from its checkpoint — the exact state the live detector
    /// had when that checkpoint was taken. The checkpoint is decoded from
    /// the snapshot's frame, through the segment cache.
    fn jump_to_snapshot(&mut self, idx: usize) -> Result<(), ReplayError> {
        let (pos, counts) = (self.snapshots[idx].pos, self.snapshots[idx].counts);
        let Frame::Snapshot { checkpoint, .. } = self.frame_at(pos)? else {
            return Err(self.misindexed(pos, "snapshot"));
        };
        self.pos = pos + 1;
        self.counts = counts;
        self.counts.snapshots += 1;
        self.detector = RealtimeDetector::restore(self.manifest.config.clone(), checkpoint.clone());
        self.last_checkpoint = Some(checkpoint);
        self.recomputed.clear();
        Ok(())
    }

    /// Scans frames forward until `target` events have been applied, and
    /// on to the end when that is every event.
    fn run_to_events(&mut self, target: u64) -> Result<(), ReplayError> {
        if target >= self.events_total() {
            return self.to_end();
        }
        while self.counts.events < target && self.pos < self.frames_total {
            let frame = self.frame_at(self.pos)?;
            self.apply(&frame);
        }
        Ok(())
    }

    /// Applies one frame to the cursor — the mirror of what the live
    /// supervisor did at this step.
    fn apply(&mut self, frame: &Frame) {
        match frame {
            Frame::Event {
                event, fidelity, ..
            } => {
                self.detector
                    .set_fidelity(FidelityLevel::from_index(*fidelity));
                let reports = self.detector.ingest_weighted(event.clone());
                self.recomputed.extend(reports);
            }
            Frame::Snapshot { checkpoint, .. } => self.last_checkpoint = Some(checkpoint.clone()),
            Frame::Restart { .. } => {
                // The supervisor restored the last checkpoint (a fresh
                // detector when it crashed before the first one); the
                // recorded replayed-flag events that follow re-drive the
                // ring exactly as the next incarnation did.
                let checkpoint = self.last_checkpoint.clone().unwrap_or_else(|| {
                    RealtimeDetector::new(self.manifest.config.clone()).checkpoint()
                });
                self.detector = RealtimeDetector::restore(self.manifest.config.clone(), checkpoint);
            }
            Frame::Flush => {
                let reports = self.detector.flush();
                self.recomputed.extend(reports);
            }
            Frame::Report { .. } | Frame::Transition { .. } | Frame::End { .. } => {}
        }
        self.counts.absorb(frame);
        self.pos += 1;
    }

    /// Fetches the frame at global position `pos`, via the one-segment
    /// cache.
    fn frame_at(&mut self, pos: u64) -> Result<Frame, ReplayError> {
        let per_seg = self.manifest.frames_per_segment.max(1);
        let (segment, offset) = (pos / per_seg, (pos % per_seg) as usize);
        if self.cache.as_ref().is_none_or(|(seg, _)| *seg != segment) {
            let mut frames = Vec::new();
            if decode_segment(&self.base, segment, |frame| frames.push(frame))?.is_none() {
                let path = segment_path(&self.base, segment);
                return Err(ReplayError::Io(format!("{}: missing", path.display())));
            }
            self.cache = Some((segment, frames));
        }
        let (_, frames) = self.cache.as_ref().expect("cache just filled");
        frames.get(offset).cloned().ok_or(ReplayError::Corrupt {
            segment,
            line: offset as u64 + 1,
            cause: "frame index past segment end".to_owned(),
        })
    }

    /// The error for an index entry at `pos` whose frame is not the
    /// `kind` it was indexed as.
    fn misindexed(&self, pos: u64, kind: &str) -> ReplayError {
        let per_seg = self.manifest.frames_per_segment.max(1);
        ReplayError::Corrupt {
            segment: pos / per_seg,
            line: pos % per_seg + 1,
            cause: format!("{kind} index points at another frame"),
        }
    }
}

/// Decodes segment `segment` of the recording at `base`, handing each
/// complete frame to `frame` in order: the one decoder behind
/// [`Replay::load`]'s index and the cursor's segment cache. `None` when
/// the segment does not exist; otherwise whether its tail was torn. A
/// bad *final* line of the *final* segment is a torn write (the recorder
/// died mid-write) and is dropped; a bad line anywhere else is
/// corruption.
fn decode_segment(
    base: &Path,
    segment: u64,
    mut frame: impl FnMut(Frame),
) -> Result<Option<bool>, ReplayError> {
    let seg_path = segment_path(base, segment);
    let data = match std::fs::read_to_string(&seg_path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ReplayError::Io(format!("{}: {e}", seg_path.display()))),
    };
    let last_segment = !segment_path(base, segment + 1).exists();
    for (lineno, line) in data.lines().enumerate() {
        match serde_json::from_str(line) {
            Ok(decoded) => frame(decoded),
            Err(_) if last_segment && lineno + 1 == data.lines().count() => return Ok(Some(true)),
            Err(e) => {
                return Err(ReplayError::Corrupt {
                    segment,
                    line: lineno as u64 + 1,
                    cause: e.to_string(),
                })
            }
        }
    }
    Ok(Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SpawnConfig;
    use bgpscope_bgp::{Event, PathAttributes, PeerId, Prefix, RouterId};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_base(tag: &str) -> PathBuf {
        let seq = TEST_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bgpscope-replay-{tag}-{}-{seq}.rec",
            std::process::id()
        ))
    }

    fn cleanup(base: &Path) {
        let _ = std::fs::remove_file(base);
        let mut k = 0;
        while std::fs::remove_file(segment_path(base, k)).is_ok() {
            k += 1;
        }
    }

    fn storm_event(i: u64) -> Event {
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let attrs = PathAttributes::new(
            RouterId::from_octets(2, 2, 2, 2),
            "11423 209 701".parse().unwrap(),
        );
        Event::withdraw(
            Timestamp::from_millis(i * 250),
            peer,
            Prefix::from_octets(10, (i % 200) as u8, 0, 0, 16),
            attrs,
        )
    }

    /// The serialized form of an event, as every `Frame::Event` and
    /// snapshot buffer stores it. The literals were captured while
    /// `AsPath` still held a `Vec`; a change here changes every recording
    /// and must come with a `RECORDING_VERSION` bump.
    #[test]
    fn event_serialized_form_is_pinned() {
        use bgpscope_bgp::{AsPath, Community, LocalPref, Med, Origin};
        let mut attrs = PathAttributes::new(
            RouterId::from_octets(2, 2, 2, 2),
            "11423 209 701 701".parse().unwrap(),
        );
        attrs.origin = Origin::Incomplete;
        attrs.med = Some(Med(7));
        attrs.local_pref = Some(LocalPref(100));
        attrs.add_community(Community(0x2C9F_0001));
        let full = Event::withdraw(
            Timestamp::from_millis(1_250),
            PeerId::from_octets(1, 1, 1, 1),
            Prefix::from_octets(10, 3, 0, 0, 16),
            attrs,
        );
        let bare = Event::announce(
            Timestamp::from_secs(9),
            PeerId::from_octets(1, 1, 1, 1),
            Prefix::from_octets(192, 0, 2, 0, 24),
            PathAttributes::new(RouterId::from_octets(2, 2, 2, 2), AsPath::empty()),
        );
        let pinned = [
            (
                full,
                r#"{"time":1250000,"kind":"Withdraw","peer":16843009,"prefix":{"addr":167968768,"len":16},"attrs":{"origin":"Incomplete","as_path":{"asns":[11423,209,701,701]},"next_hop":33686018,"med":7,"local_pref":100,"communities":[748617729]}}"#,
            ),
            (
                bare,
                r#"{"time":9000000,"peer":16843009,"prefix":{"addr":3221225984,"len":24},"attrs":{"as_path":{"asns":[]},"next_hop":33686018}}"#,
            ),
        ];
        assert_eq!(RECORDING_VERSION, 3);
        for (event, json) in pinned {
            assert_eq!(serde_json::to_string(&event).unwrap(), json);
            assert_eq!(serde_json::from_str::<Event>(json).unwrap(), event);
        }
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            window: Timestamp::from_secs(20),
            min_events: 10,
            min_component_events: 5,
            spike_events: 1_000,
            ..PipelineConfig::default()
        }
    }

    fn record_run(base: &Path, events: u64, frames_per_segment: usize) -> PipelineStats {
        let config = SpawnConfig::new(small_config()).with_recorder(
            RecorderConfig::new(base)
                .with_frames_per_segment(frames_per_segment)
                .with_label("unit"),
        );
        let mut handle = RealtimeDetector::spawn(config);
        for i in 0..events {
            handle.ingest_event(storm_event(i)).unwrap();
        }
        let (_reports, stats) = handle.finish();
        stats
    }

    #[test]
    fn record_replay_round_trip_final_state() {
        let base = temp_base("roundtrip");
        let config = SpawnConfig::new(small_config())
            .with_recorder(RecorderConfig::new(&base).with_frames_per_segment(64));
        let mut handle = RealtimeDetector::spawn(config);
        for i in 0..400 {
            if i == 200 {
                // The handle frames this on its own lane, mid-run, while
                // the supervisor is framing events on its.
                handle.record_transition("quarantine", "shard 7: injected");
            }
            handle.ingest_event(storm_event(i)).unwrap();
        }
        let (_reports, live) = handle.finish();

        let mut replay = Replay::load(&base).expect("load recording");
        assert!(!replay.truncated());
        assert_eq!(replay.events_total(), 400);
        assert_eq!(
            replay.transitions(),
            [("quarantine".to_owned(), "shard 7: injected".to_owned())]
        );
        let last = replay.frame_at(replay.frames_total() - 1).expect("frame");
        assert_eq!(last, Frame::End { stats: live });
        replay.to_end().expect("replay to end");
        assert_eq!(replay.stats(), live);
        assert_eq!(replay.end_stats(), Some(live));
        // The recomputed report stream matches the recorded one.
        let recorded = replay.reports();
        let recomputed = replay.recomputed_reports();
        assert_eq!(recorded.len(), recomputed.len());
        for (a, b) in recorded.iter().zip(recomputed) {
            assert_eq!(a, b);
        }
        cleanup(&base);
    }

    /// A recording stamped by an older build is refused up front, naming
    /// both versions — never half-decoded against the current frame schema.
    #[test]
    fn older_recording_version_is_refused() {
        let base = temp_base("oldversion");
        record_run(&base, 40, 64);
        let manifest = std::fs::read_to_string(&base).unwrap();
        let stamped = format!("\"version\":{RECORDING_VERSION}");
        assert!(manifest.contains(&stamped), "{manifest}");
        std::fs::write(&base, manifest.replace(&stamped, "\"version\":2")).unwrap();
        match Replay::load(&base) {
            Err(ReplayError::Manifest(message)) => {
                assert!(message.contains("version 2"), "{message}");
                assert!(
                    message.contains(&format!("reads {RECORDING_VERSION}")),
                    "{message}"
                );
            }
            other => panic!("expected a manifest version error, got {other:?}"),
        }
        cleanup(&base);
    }

    #[test]
    fn seek_matches_prefix_replay() {
        let base = temp_base("seek");
        record_run(&base, 300, 32);
        let mut seeker = Replay::load(&base).expect("load");
        let mut stepper = Replay::load(&base).expect("load");
        for target in [37u64, 161, 290, 80] {
            seeker.seek_events(target).expect("seek");
            stepper.seek_events(0).expect("rewind");
            stepper.step(target).expect("step");
            assert_eq!(seeker.cursor_events(), target);
            assert_eq!(
                seeker.detector_stats(),
                stepper.detector_stats(),
                "cursor {target}"
            );
            assert_eq!(seeker.stats(), stepper.stats(), "cursor {target}");
            assert_eq!(seeker.reports(), stepper.reports(), "cursor {target}");
        }
        cleanup(&base);
    }

    #[test]
    fn timeline_hotspots_rank_dense_buckets() {
        let base = temp_base("timeline");
        record_run(&base, 200, 64);
        let replay = Replay::load(&base).expect("load");
        let timeline = replay.timeline_with_bucket(Timestamp::from_secs(10));
        assert!(!timeline.buckets.is_empty());
        let total: u64 = timeline.buckets.iter().map(|b| b.events).sum();
        assert_eq!(total, 200);
        let hotspots = timeline.hotspots(3);
        assert!(!hotspots.is_empty());
        assert!(hotspots[0].reports >= hotspots.last().unwrap().reports);
        cleanup(&base);
    }

    #[test]
    fn seek_hotspot_moves_cursor() {
        let base = temp_base("hotspot");
        record_run(&base, 200, 64);
        let mut replay = Replay::load(&base).expect("load");
        let hotspot = replay.seek_hotspot(0).expect("hotspot");
        assert_eq!(replay.cursor_events(), hotspot.last_ordinal);
        assert!(hotspot.events > 0);
        cleanup(&base);
    }

    #[test]
    fn animation_at_cursor_emits_frames() {
        let base = temp_base("anim");
        record_run(&base, 120, 64);
        let mut replay = Replay::load(&base).expect("load");
        replay.seek_events(100).expect("seek");
        let animation = replay
            .animation_at_cursor(Timestamp::from_secs(30))
            .expect("window")
            .expect("events in window");
        assert!(animation.frame_count() > 0);
        let svg = animation.render_frame_svg(0);
        assert!(svg.contains("<svg"));
        cleanup(&base);
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let base = temp_base("torn");
        record_run(&base, 150, 32);
        // Tear the final segment mid-line.
        let mut last = 0;
        while segment_path(&base, last + 1).exists() {
            last += 1;
        }
        let seg = segment_path(&base, last);
        let data = std::fs::read_to_string(&seg).unwrap();
        let keep = data.len() - data.len() / 4;
        std::fs::write(&seg, &data[..keep]).unwrap();
        let mut replay = Replay::load(&base).expect("torn recording still loads");
        assert!(replay.truncated());
        assert!(replay.events_total() > 0);
        replay.to_end().expect("replay usable prefix");
        cleanup(&base);
    }

    #[test]
    fn corrupt_middle_fails_cleanly() {
        let base = temp_base("corrupt");
        record_run(&base, 150, 32);
        let seg = segment_path(&base, 0);
        let mut data = std::fs::read_to_string(&seg).unwrap();
        let mid = data.len() / 2;
        data.replace_range(mid..mid + 1, "\u{7f}".to_string().as_str());
        std::fs::write(&seg, &data).unwrap();
        match Replay::load(&base) {
            Err(ReplayError::Corrupt { .. }) | Err(ReplayError::Manifest(_)) => {}
            other => panic!("expected corrupt error, got {other:?}"),
        }
        cleanup(&base);
    }

    #[test]
    fn play_advances_by_rate() {
        let base = temp_base("play");
        record_run(&base, 200, 64);
        let mut replay = Replay::load(&base).expect("load");
        // 200 events at 4/sec: 10 wall-seconds at 2x covers 20s => ~80 events.
        let advanced = replay.play(2.0, Duration::from_secs(10)).expect("play");
        assert!(advanced > 0);
        assert!(replay.cursor_events() >= advanced);
        assert!(replay.play(-1.0, Duration::from_secs(1)).is_err());
        cleanup(&base);
    }

    /// A format-3 recording made when a full report queue could coalesce
    /// its overflow into counts (report queue of one, nobody reading, eight
    /// one-report windows): 8 reports emitted, 2 delivered, 6 digested.
    /// No live run writes `reports_digested` any more, but the ledger keeps
    /// it so that such a recording replays with a closed report ledger.
    #[test]
    fn digest_era_recording_replays_with_a_closed_report_ledger() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/report_digest_era.rec");
        let mut replay = Replay::load(path).expect("fixture loads");
        replay.seek_events(replay.events_total() / 2).unwrap();
        let mid = replay.stats();
        assert!(mid.reports_account_exactly(), "{mid}");
        assert!(mid.reports_digested > 0, "{mid}");
        replay.to_end().unwrap();
        let stats = replay.stats();
        assert_eq!(
            (
                stats.reports_emitted,
                stats.reports_delivered,
                stats.report_shed,
                stats.reports_digested
            ),
            (8, 2, 0, 6),
            "{stats}"
        );
        assert!(stats.reports_account_exactly(), "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(replay.end_stats(), Some(stats));
    }
}
