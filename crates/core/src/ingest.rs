//! Staged batch ingestion: decode → augment → stem.
//!
//! Replays MRT archives of any size through the supervised realtime
//! pipeline in constant memory: [`MultiSourceIngest`], N ≥ 1 sources →
//! merge + augment → [`ShardedPipeline`] of M ≥ 1 shards, each stage behind
//! a bounded queue. [`ingest`] is that run over one reader.
//!
//! 1. **decode** — one thread per source drives a streaming
//!    [`RecordReader`] (strict or lossy) over its archive, batching events
//!    into fixed-size `Vec`s sent over a bounded channel. Memory is the
//!    reader's refill buffer plus at most `channel_batches + 1` in-flight
//!    batches per source, independent of archive size.
//! 2. **augment** — the caller's thread merges the sources' events and
//!    moves each through that source's [`Collector`]
//!    ([`AugmentMode::Rebuild`], [`Collector::augment`]), so withdrawals
//!    regain the attributes of the route they removed and withdrawals for
//!    prefixes the peer never announced are filtered out, exactly as the
//!    paper's REX appliance does on live feeds. [`AugmentMode::Passthrough`]
//!    forwards archive events untouched (for archives that were already
//!    augmented at capture time). Augmented events collect in one reused
//!    batch, which goes to the stem stage whole
//!    ([`ShardedPipeline::ingest_batch`]).
//! 3. **stem** — the sharded supervised pipeline ([`ShardedPipeline`];
//!    one shard is the unsharded run): windowed stemming + classification
//!    behind per-shard bounded queues, with the crash-recovery, quarantine
//!    and overload machinery the `pipeline` subcommand exposes. Each shard
//!    takes its share of a batch in one push and keeps its reports until
//!    the run finishes; they come back as the merged global incidents.
//!
//! Nothing between the archive bytes and a shard's queue is paid per event
//! except the decode, the merge pick and the RIB update: decoded AS paths
//! are shared (the reader caches the paths it decoded recently),
//! augmentation moves the event instead of rebuilding it from an UPDATE,
//! and queue locks, ledger updates, counters and timers are paid per batch.
//!
//! Each stage keeps a wall-clock occupancy ledger ([`StageStats`]): time
//! spent doing its own work vs. waiting on its input or output queue, so a
//! replay tells you *which* stage is the bottleneck, not just how fast the
//! whole thing went. The clocks are read per batch, never per event.
//!
//! # Sources and their supervision
//!
//! A source is one vantage point's archive. A [`SourceSpec`] can be
//! reopened, so it is *supervised* under a [`SourcePolicy`], as a detector
//! shard is: one [`Health`], one [`RestartPolicy`]. Transient I/O errors
//! are retried after the policy's backoff (the reader is rebuilt from the
//! factory and fast-forwarded past delivered records via the
//! length-prefixed framing); the policy counts *consecutive* failures,
//! which a decoded event resets. A record position that keeps failing
//! decode is skipped after `poison_threshold` attempts, and a source with
//! no progress for `stall_timeout` is flipped Degraded, then Quarantined,
//! by the merge-side watchdog. [`ingest`]'s reader cannot be reopened: its
//! first fault ends the run ([`IngestError::Decode`]) and it is waited for,
//! never stall-quarantined.
//!
//! Worker outputs are k-way merged deterministically by
//! `(timestamp, source index)` — the merge waits until every live source
//! has an event staged, so the fan-in order (and therefore everything
//! downstream) is bit-identical run to run regardless of thread timing.
//! Every source publishes a [`SourceLedger`] whose own invariant
//! (`events_decoded == events_merged + stall_shed + queued`) holds at
//! every instant. A run with supervised sources fails only when *every*
//! source is quarantined ([`IngestError::AllSourcesQuarantined`]);
//! otherwise it finishes with partial-source provenance on the report.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgpscope_anomaly::{
    AnomalyReport, Health, PipelineStats, RestartPolicy, ShardedConfig, ShardedPipeline,
    ShardedStats, Signal, SpawnConfig,
};
use bgpscope_bgp::Event;
use bgpscope_collector::Collector;
use bgpscope_mrt::{MrtError, RecordReader, DEFAULT_BUFFER_CAPACITY};
use crossbeam::channel;
use serde::{Serialize, Value};

/// How the decode stage treats records it cannot decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// An undecodable record is a fault. A source that cannot be reopened
    /// (the one of [`ingest`]) ends the run on it with an error; a
    /// supervised source re-reads the record's position and skips it after
    /// [`SourcePolicy::poison_threshold`] failed attempts.
    #[default]
    Strict,
    /// Unknown record types/subtypes are skipped by their length prefix and
    /// counted; trailing body bytes are tolerated and counted. Truncated
    /// tails still error — a cut archive is damage, not noise.
    Lossy,
}

impl std::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IngestMode::Strict => "strict",
            IngestMode::Lossy => "lossy",
        })
    }
}

/// What the augment stage does with decoded events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AugmentMode {
    /// Rebuild per-peer Adj-RIB-Ins and re-derive withdrawal attributes;
    /// withdrawals for prefixes the peer never announced are dropped.
    #[default]
    Rebuild,
    /// Forward archive events exactly as decoded.
    Passthrough,
}

impl std::fmt::Display for AugmentMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AugmentMode::Rebuild => "rebuild",
            AugmentMode::Passthrough => "passthrough",
        })
    }
}

/// Configuration for [`ingest`] and [`MultiSourceIngest`].
#[derive(Debug)]
pub struct IngestConfig {
    /// Strict or lossy decoding.
    pub mode: IngestMode,
    /// Rebuild augmentation or passthrough.
    pub augment: AugmentMode,
    /// Refill-buffer capacity of the streaming reader, in bytes.
    pub buffer_capacity: usize,
    /// Events per decode batch.
    pub batch_size: usize,
    /// Bounded decode→augment channel depth, in batches.
    pub channel_batches: usize,
    /// Configuration for the supervised stem pipeline (applied to every
    /// shard). Its report bound does not apply: a shard keeps
    /// every report until the run finishes (see [`ShardedConfig::spawn`]).
    pub spawn: SpawnConfig,
    /// Stem-stage shard count (min 1, the default): events fan out across
    /// that many independently supervised shards ([`ShardedPipeline`])
    /// keyed by (peer, prefix range), with per-shard fault isolation and
    /// quarantine.
    pub shards: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            mode: IngestMode::Strict,
            augment: AugmentMode::Rebuild,
            buffer_capacity: DEFAULT_BUFFER_CAPACITY,
            batch_size: 1024,
            channel_batches: 16,
            spawn: SpawnConfig::default(),
            shards: 1,
        }
    }
}

impl IngestConfig {
    /// Lossy decoding (skip unknown record types, tolerate trailing bytes).
    pub fn lossy(mut self) -> Self {
        self.mode = IngestMode::Lossy;
        self
    }

    /// Forward events untouched instead of re-augmenting them.
    pub fn passthrough(mut self) -> Self {
        self.augment = AugmentMode::Passthrough;
        self
    }

    /// Sets the streaming reader's refill-buffer capacity in bytes.
    pub fn with_buffer_capacity(mut self, bytes: usize) -> Self {
        self.buffer_capacity = bytes;
        self
    }

    /// Sets the number of events per decode batch (min 1).
    pub fn with_batch_size(mut self, events: usize) -> Self {
        self.batch_size = events.max(1);
        self
    }

    /// Sets the decode→augment channel depth in batches (min 1).
    pub fn with_channel_batches(mut self, batches: usize) -> Self {
        self.channel_batches = batches.max(1);
        self
    }

    /// Sets the stem pipeline's spawn configuration.
    pub fn with_spawn(mut self, spawn: SpawnConfig) -> Self {
        self.spawn = spawn;
        self
    }

    /// Sets the stem-stage shard count (min 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Wall-clock occupancy of one pipeline stage, timed per batch.
///
/// * **decode** — busy: building each batch, from its first record to its
///   last (for a supervised source also reopening and fast-forwarding its
///   reader, but never a retry backoff); blocked out: handing the batch to
///   the augment stage, waiting for room included.
/// * **augment** — busy: augmenting each batch, from its first event to
///   its hand-off (under [`MultiSourceIngest`] that span also holds the
///   merge picks that produced it); blocked in: waiting for a decoded
///   batch; blocked out: handing the batch to the stem stage, waiting on
///   full shard queues included.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageStats {
    /// Seconds spent doing the stage's own work.
    pub busy_secs: f64,
    /// Seconds blocked waiting for input.
    pub blocked_in_secs: f64,
    /// Seconds blocked pushing output to the next stage.
    pub blocked_out_secs: f64,
}

impl StageStats {
    /// Fraction of `elapsed_secs` this stage spent busy (0 when unknown).
    pub fn occupancy(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs > 0.0 {
            self.busy_secs / elapsed_secs
        } else {
            0.0
        }
    }
}

/// The outcome of a completed [`MultiSourceIngest`] (or [`ingest`]) run.
#[derive(Debug)]
pub struct IngestReport {
    /// Records the streaming reader decoded.
    pub records_decoded: u64,
    /// Unknown-type records skipped (lossy mode only).
    pub records_skipped: u64,
    /// Records with tolerated trailing body bytes (lossy mode only).
    pub trailing_tolerated: u64,
    /// Events that came out of the decode stage.
    pub events_decoded: u64,
    /// Events forwarded to the stem pipeline after augmentation.
    pub events_forwarded: u64,
    /// Withdrawals dropped because the peer never announced the prefix
    /// (rebuild augmentation only).
    pub withdraws_filtered: u64,
    /// The stem pipeline's reports, merged across shards into global
    /// incidents and ordered by (event count desc, start, end, stem).
    pub reports: Vec<AnomalyReport>,
    /// The stem pipeline's exact event ledger: the *global* ledger, the sum
    /// of the per-shard ledgers.
    pub stats: PipelineStats,
    /// Per-shard accounting. Always `Some`: one shard is a sharded run.
    pub shard_stats: Option<ShardedStats>,
    /// Decode-stage occupancy.
    pub decode: StageStats,
    /// Augment-stage occupancy.
    pub augment: StageStats,
    /// Wall-clock seconds for the whole replay, drain included.
    pub elapsed_secs: f64,
    /// Decoded events per wall-clock second.
    pub events_per_sec: f64,
    /// Peak resident set size (`VmHWM` from `/proc/self/status`), in bytes;
    /// 0 where procfs is unavailable.
    pub peak_rss_bytes: u64,
    /// One ledger per source, in the order the sources were added
    /// ([`ingest`]'s one source included).
    pub sources: Vec<SourceLedger>,
}

impl IngestReport {
    /// Sources the supervisor quarantined (empty when every source
    /// survived).
    pub fn quarantined_sources(&self) -> Vec<&SourceLedger> {
        self.sources
            .iter()
            .filter(|s| s.health == Health::Quarantined)
            .collect()
    }

    /// True when the run finished on a strict subset of its sources —
    /// results are valid but incomplete (the CLI exits with a distinct
    /// code for this).
    pub fn is_partial(&self) -> bool {
        !self.quarantined_sources().is_empty()
    }

    /// True when every per-source ledger closes
    /// (`events_decoded == events_merged + stall_shed + queued`) *and*
    /// the sources' forwarded totals sum exactly into the stem pipeline's
    /// global `ingested` count.
    pub fn sources_account_exactly(&self) -> bool {
        self.sources.iter().all(|s| s.accounts_exactly())
            && self.sources.iter().map(|s| s.events_forwarded).sum::<u64>() == self.stats.ingested
    }

    /// The report as one machine-readable JSON object (what
    /// `bgpscope ingest --bench FILE` writes): the scalar fields, then
    /// `stages` (each [`StageStats`] plus its `occupancy`), `sources` (the
    /// [`SourceLedger`]s) and `ledger` (the [`ShardedStats`] document).
    pub fn bench_json(&self) -> String {
        let stage = |stats: &StageStats| {
            let mut value = stats.to_value();
            if let Value::Map(fields) = &mut value {
                let occupancy = stats.occupancy(self.elapsed_secs);
                fields.push(("occupancy".into(), occupancy.to_value()));
            }
            value
        };
        let ledger = match &self.shard_stats {
            Some(sharded) => sharded.to_value(),
            None => self.stats.to_value(),
        };
        let json = Value::Map(vec![
            ("events_per_sec".into(), self.events_per_sec.to_value()),
            ("events_decoded".into(), self.events_decoded.to_value()),
            ("events_forwarded".into(), self.events_forwarded.to_value()),
            ("records_decoded".into(), self.records_decoded.to_value()),
            ("records_skipped".into(), self.records_skipped.to_value()),
            (
                "trailing_tolerated".into(),
                self.trailing_tolerated.to_value(),
            ),
            (
                "withdraws_filtered".into(),
                self.withdraws_filtered.to_value(),
            ),
            ("reports".into(), self.reports.len().to_value()),
            ("elapsed_secs".into(), self.elapsed_secs.to_value()),
            ("peak_rss_bytes".into(), self.peak_rss_bytes.to_value()),
            (
                "stages".into(),
                Value::Map(vec![
                    ("decode".into(), stage(&self.decode)),
                    ("augment".into(), stage(&self.augment)),
                ]),
            ),
            ("sources".into(), self.sources.to_value()),
            ("ledger".into(), ledger),
        ]);
        serde_json::to_string(&json).expect("a value tree is always serializable")
    }
}

impl std::fmt::Display for IngestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ingested {} events from {} records in {:.2}s ({:.0} events/sec, peak RSS {} KiB)",
            self.events_decoded,
            self.records_decoded,
            self.elapsed_secs,
            self.events_per_sec,
            self.peak_rss_bytes / 1024,
        )?;
        if self.records_skipped > 0 || self.trailing_tolerated > 0 {
            writeln!(
                f,
                "lossy decode skipped {} record(s), tolerated trailing bytes on {}",
                self.records_skipped, self.trailing_tolerated
            )?;
        }
        writeln!(
            f,
            "augment forwarded {} event(s), filtered {} stale withdrawal(s)",
            self.events_forwarded, self.withdraws_filtered
        )?;
        writeln!(
            f,
            "stage occupancy: decode {:.0}%, augment {:.0}%",
            self.decode.occupancy(self.elapsed_secs) * 100.0,
            self.augment.occupancy(self.elapsed_secs) * 100.0,
        )?;
        for source in &self.sources {
            writeln!(f, "{source}")?;
        }
        if self.is_partial() {
            writeln!(
                f,
                "PARTIAL RESULT: {} of {} source(s) quarantined",
                self.quarantined_sources().len(),
                self.sources.len()
            )?;
        }
        Ok(())
    }
}

/// Why a [`MultiSourceIngest`] (or [`ingest`]) run failed.
#[derive(Debug)]
pub enum IngestError {
    /// A source that cannot be reopened (the one of [`ingest`]) hit an
    /// undecodable record (strict mode), a truncated tail (either mode) or
    /// an I/O error.
    Decode(MrtError),
    /// The stem pipeline closed mid-replay (consumer crashed past its
    /// restart budget). Carries the final ledger so a crashed run is never
    /// a silent run.
    Pipeline {
        /// The last recorded panic, if any.
        cause: String,
        /// The ledger at the time of death (boxed to keep the `Err`
        /// variant small).
        stats: Box<PipelineStats>,
    },
    /// Every source of a [`MultiSourceIngest`] run was quarantined —
    /// nothing is left to analyze. Carries each source's final ledger
    /// (with its quarantine cause) and the stem pipeline's ledger, so a
    /// dead run is never a silent run.
    AllSourcesQuarantined {
        /// Final per-source ledgers, quarantine causes included.
        sources: Vec<SourceLedger>,
        /// The stem pipeline's ledger at teardown.
        stats: Box<PipelineStats>,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Decode(e) => write!(f, "decode: {e}"),
            IngestError::Pipeline { cause, .. } => {
                write!(f, "stem pipeline closed: {cause}")
            }
            IngestError::AllSourcesQuarantined { sources, .. } => {
                write!(f, "all {} source(s) quarantined: ", sources.len())?;
                for (i, s) in sources.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(
                        f,
                        "{}: {}",
                        s.name,
                        s.quarantine_cause.as_deref().unwrap_or("unknown cause")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Decode(e) => Some(e),
            IngestError::Pipeline { .. } | IngestError::AllSourcesQuarantined { .. } => None,
        }
    }
}

impl From<MrtError> for IngestError {
    fn from(e: MrtError) -> Self {
        IngestError::Decode(e)
    }
}

/// Everything after a merged event in [`MultiSourceIngest::run`]:
/// augment → stem → report. Owns the sharded stem pipeline, the augment
/// mode, the batch of augmented events on its way to the stem stage and the
/// augment stage's occupancy ledger.
struct BackHalf {
    started: Instant,
    pipeline: ShardedPipeline,
    mode: AugmentMode,
    stage: StageStats,
    /// Augmented events not yet handed to the stem pipeline, in order;
    /// reused from batch to batch.
    augmented: Vec<Event>,
    /// When the batch being assembled took its first event.
    batch_started: Option<Instant>,
    events_forwarded: u64,
    withdraws_filtered: u64,
    /// Set once the stem pipeline refuses a batch: every shard is
    /// quarantined and the run can only fail.
    closed: bool,
}

impl BackHalf {
    fn spawn(config: &IngestConfig) -> Self {
        BackHalf {
            started: Instant::now(),
            pipeline: ShardedPipeline::spawn(ShardedConfig::new(
                config.shards,
                config.spawn.clone(),
            )),
            mode: config.augment,
            stage: StageStats::default(),
            augmented: Vec::with_capacity(config.batch_size.max(1)),
            batch_started: None,
            events_forwarded: 0,
            withdraws_filtered: 0,
            closed: false,
        }
    }

    /// Augments one decoded event against `collector` (the RIB state of
    /// the source it came from) into the batch for the stem stage. Returns
    /// `false` when rebuild augmentation filtered it out as a stale
    /// withdrawal.
    fn augment(&mut self, collector: &mut Collector, event: Event) -> bool {
        self.batch_started.get_or_insert_with(Instant::now);
        let augmented = match self.mode {
            AugmentMode::Passthrough => Some(event),
            AugmentMode::Rebuild => collector.augment(event),
        };
        match augmented {
            Some(event) => {
                self.augmented.push(event);
                self.events_forwarded += 1;
                true
            }
            None => {
                self.withdraws_filtered += 1;
                false
            }
        }
    }

    /// Hands the batch to the stem pipeline, closing the back half if the
    /// pipeline refuses it. Every event of the batch is on the stem
    /// ledger either way.
    fn flush(&mut self) {
        if let Some(started) = self.batch_started.take() {
            self.stage.busy_secs += started.elapsed().as_secs_f64();
        }
        if self.augmented.is_empty() {
            return;
        }
        let start = Instant::now();
        let pushed = self.pipeline.ingest_batch(self.augmented.drain(..));
        self.stage.blocked_out_secs += start.elapsed().as_secs_f64();
        self.closed |= pushed.is_err();
    }

    /// Tears the stem pipeline down for a run that failed upstream of it
    /// (so its threads never outlive the call) and returns its final
    /// global ledger.
    fn abort(self) -> PipelineStats {
        self.pipeline.finish_merged().stats.global
    }

    /// Drains and joins the stem pipeline and assembles the report from
    /// the final source ledgers and decode occupancy — or the
    /// [`IngestError::Pipeline`] of a run whose stem stage closed.
    fn finish(
        self,
        sources: Vec<SourceLedger>,
        decode: StageStats,
    ) -> Result<IngestReport, IngestError> {
        let run = self.pipeline.finish_merged();
        if self.closed {
            let causes: Vec<String> = run.panics.iter().map(ToString::to_string).collect();
            return Err(IngestError::Pipeline {
                cause: if causes.is_empty() {
                    "no panic recorded".to_owned()
                } else {
                    causes.join("; ")
                },
                stats: Box::new(run.stats.global),
            });
        }
        let elapsed = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let sum = |field: fn(&SourceLedger) -> u64| sources.iter().map(field).sum::<u64>();
        let events_decoded = sum(|l| l.events_decoded);
        Ok(IngestReport {
            records_decoded: sum(|l| l.records_decoded),
            records_skipped: sum(|l| l.records_skipped),
            trailing_tolerated: sum(|l| l.trailing_tolerated),
            events_decoded,
            events_forwarded: self.events_forwarded,
            withdraws_filtered: self.withdraws_filtered,
            reports: run.incidents.into_iter().map(|i| i.report).collect(),
            stats: run.stats.global,
            shard_stats: Some(run.stats),
            decode,
            augment: self.stage,
            elapsed_secs: elapsed,
            events_per_sec: events_decoded as f64 / elapsed,
            peak_rss_bytes: peak_rss_bytes(),
            sources,
        })
    }
}

/// Parses the `VmHWM` line of a `/proc/self/status`-shaped string into
/// bytes. `None` on anything that isn't a well-formed kibibyte value —
/// a missing line, a non-numeric field, or an unexpected unit — so a
/// partially parsed status can never yield a bogus measurement.
fn parse_vmhwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let kb = fields.next()?.parse::<u64>().ok()?;
    match fields.next() {
        // procfs always writes "kB"; tolerate a bare number, reject any
        // other unit rather than misreport by three orders of magnitude.
        Some("kB") | None => kb.checked_mul(1024),
        Some(_) => None,
    }
}

/// Peak resident set size in bytes (`VmHWM` from procfs), or 0 when
/// unavailable (non-Linux, procfs masked, or a malformed status file).
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vmhwm_bytes(&status))
        .unwrap_or(0)
}

/// Replays one MRT archive through decode → augment → stem: a
/// [`MultiSourceIngest`] run over one source read from `reader`.
///
/// The reader cannot be reopened, so its source is not supervised: its
/// first undecodable record (strict mode), truncated tail or I/O error ends
/// the run with [`IngestError::Decode`] (a stem stage that closed first is
/// reported as [`IngestError::Pipeline`]), and a slow reader is waited for,
/// never stall-quarantined. It is decoded on a detached worker thread,
/// hence `'static`. Memory stays constant in the archive size.
pub fn ingest<R: Read + Send + 'static>(
    reader: R,
    config: IngestConfig,
) -> Result<IngestReport, IngestError> {
    MultiSourceIngest::new(config, SourcePolicy::default())
        .source(SourceSpec::once("archive", reader))
        .run()
}

// ---------------------------------------------------------------------------
// Multi-source fan-in with per-source supervision
// ---------------------------------------------------------------------------

/// Supervision policy applied to every source of a [`MultiSourceIngest`].
#[derive(Debug, Clone)]
pub struct SourcePolicy {
    /// Consecutive transient-failure rebuilds (no progress in between)
    /// tolerated before the source is quarantined, and the backoff before
    /// each; the source's index salts the backoff's jitter.
    pub restart: RestartPolicy,
    /// With no event merged from a source for this long the watchdog flips
    /// it Degraded; after a second consecutive timeout, Quarantined.
    pub stall_timeout: Duration,
    /// Decode attempts for one record position before the poison breaker
    /// skips it (strict mode; lossy decoding resyncs internally).
    pub poison_threshold: u32,
}

impl Default for SourcePolicy {
    fn default() -> Self {
        SourcePolicy {
            restart: RestartPolicy {
                budget: 4,
                backoff: Duration::from_millis(10),
            },
            stall_timeout: Duration::from_secs(2),
            poison_threshold: 2,
        }
    }
}

impl SourcePolicy {
    /// Sets the consecutive-transient-failure budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.restart.budget = retries;
        self
    }

    /// Sets the exponential-backoff base (the cap is 64× the base).
    pub fn with_backoff(mut self, base: Duration) -> Self {
        self.restart.backoff = base;
        self
    }

    /// Sets the stall watchdog timeout.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets the poison-record breaker threshold (min 1).
    pub fn with_poison_threshold(mut self, attempts: u32) -> Self {
        self.poison_threshold = attempts.max(1);
        self
    }
}

/// Exact per-source accounting, published live by the supervisor.
///
/// The per-source invariant holds at every instant:
///
/// ```text
/// events_decoded == events_merged + stall_shed + queued
/// ```
///
/// and the global cross-check is `Σ events_forwarded == stem.ingested`
/// ([`IngestReport::sources_account_exactly`]). `source_retries`,
/// `poison_skipped`, and `stall_shed` are the supervision terms: work
/// redone, positions given up on, and events shed at quarantine.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SourceLedger {
    /// Source name (the archive path, for CLI runs).
    pub name: String,
    /// Current health.
    pub health: Health,
    /// Why the source was quarantined, when it was.
    pub quarantine_cause: Option<String>,
    /// Records this source's reader decoded.
    pub records_decoded: u64,
    /// Unknown-type / corrupted-header records skipped (lossy mode).
    pub records_skipped: u64,
    /// Records with tolerated trailing body bytes (lossy mode).
    pub trailing_tolerated: u64,
    /// Events decoded and handed to the fan-in queue.
    pub events_decoded: u64,
    /// Events the deterministic merge pulled from this source.
    pub events_merged: u64,
    /// Events decoded but not yet merged (in the queue or staged).
    pub queued: u64,
    /// Events shed when the source was quarantined.
    pub stall_shed: u64,
    /// Reader rebuilds after a fault (transient I/O retries and
    /// poison-record re-attempts).
    pub source_retries: u64,
    /// Record positions the poison breaker gave up decoding.
    pub poison_skipped: u64,
    /// Post-augmentation events this source contributed to the stem stage.
    pub events_forwarded: u64,
    /// Stale withdrawals of this source dropped by rebuild augmentation.
    pub withdraws_filtered: u64,
}

impl SourceLedger {
    /// True when `events_decoded == events_merged + stall_shed + queued`.
    pub fn accounts_exactly(&self) -> bool {
        self.events_decoded == self.events_merged + self.stall_shed + self.queued
    }
}

impl std::fmt::Display for SourceLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "source {}: {}, {} event(s) from {} record(s) ({} skipped), merged {}, \
             forwarded {}, retries {}, poison skipped {}, stall shed {}",
            self.name,
            self.health,
            self.events_decoded,
            self.records_decoded,
            self.records_skipped,
            self.events_merged,
            self.events_forwarded,
            self.source_retries,
            self.poison_skipped,
            self.stall_shed,
        )?;
        if let Some(cause) = &self.quarantine_cause {
            write!(f, " — {cause}")?;
        }
        Ok(())
    }
}

/// Reopens a source's byte stream from the start; called on first open and
/// on every retry rebuild.
pub type SourceFactory = Box<dyn FnMut() -> std::io::Result<Box<dyn Read + Send>> + Send>;

/// One named MRT source: a factory that can (re)open its byte stream.
pub struct SourceSpec {
    name: String,
    open: SourceFactory,
    /// False for [`SourceSpec::once`]: never rebuilt, never
    /// stall-quarantined.
    reopenable: bool,
}

impl SourceSpec {
    /// A source that (re)opens its stream via `open` — a file reopen, an
    /// HTTP range request, a test harness rebuild.
    pub fn new<F>(name: impl Into<String>, open: F) -> Self
    where
        F: FnMut() -> std::io::Result<Box<dyn Read + Send>> + Send + 'static,
    {
        SourceSpec {
            name: name.into(),
            open: Box::new(open),
            reopenable: true,
        }
    }

    /// A source over a reader that can be read only once (the one of
    /// [`ingest`]): never rebuilt, never stall-quarantined.
    fn once(name: impl Into<String>, reader: impl Read + Send + 'static) -> Self {
        let mut reader = Some(Box::new(reader) as Box<dyn Read + Send>);
        SourceSpec {
            reopenable: false,
            ..SourceSpec::new(name, move || {
                reader.take().ok_or(ErrorKind::Unsupported.into())
            })
        }
    }

    /// An in-memory source over shared bytes (tests, benches).
    pub fn from_bytes(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        let bytes = Arc::new(bytes);
        SourceSpec::new(name, move || {
            Ok(Box::new(ArcBytes {
                data: Arc::clone(&bytes),
                pos: 0,
            }) as Box<dyn Read + Send>)
        })
    }

    /// The source's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceSpec")
            .field("name", &self.name)
            .finish()
    }
}

/// Zero-copy reader over shared bytes (see [`SourceSpec::from_bytes`]).
struct ArcBytes {
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl Read for ArcBytes {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.data[self.pos..];
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// Shared supervisor state for one source: its public ledger, the
/// worker's latest decode-stage occupancy snapshot and, for a source that
/// cannot be reopened, the fault that ended it.
struct SourceState {
    ledger: SourceLedger,
    decode: StageStats,
    fault: Option<MrtError>,
}

type SharedSources = Arc<Mutex<Vec<SourceState>>>;

/// A reader's monotone counters: records decoded, skipped, and tolerated
/// with trailing bytes.
type ReaderCounters = (u64, u64, u64);

/// One supervised decode worker — everything its thread owns: it drives a
/// (re)buildable [`RecordReader`] over its source, applying the
/// [`SourcePolicy`] — backoff-retry for transient I/O faults (rebuild +
/// fast-forward past delivered records), the poison breaker for record
/// positions that keep failing decode — and feeds decoded batches into the
/// fan-in under the exact-accounting protocol of [`SourceWorker::flush`].
struct SourceWorker {
    idx: usize,
    shared: SharedSources,
    tx: channel::Sender<Vec<Event>>,
    policy: SourcePolicy,
    /// False for a source that cannot be reopened: its first fault ends it.
    reopenable: bool,
    batch: Vec<Event>,
    batch_size: usize,
    /// The current reader's counters as of the last fold into the ledger.
    prev: ReaderCounters,
    stats: StageStats,
    /// Start of the busy interval running now: everything since the last
    /// flush or backoff (decoding, reader rebuilds), timed per batch.
    busy_since: Instant,
    /// Consecutive transient failures: the fault count the restart policy
    /// is given; a decoded event resets it.
    transient_failures: u64,
}

impl SourceWorker {
    fn run(mut self, mut open: SourceFactory, mode: IngestMode, buffer_capacity: usize) {
        // Record positions whose effects (delivered event, counted skip) are
        // fully accounted — the exact fast-forward resume point.
        let mut good_consumed = 0u64;
        let mut poison_failures = 0u32;
        self.busy_since = Instant::now();

        'rebuild: loop {
            let built = open().map_err(MrtError::Io).and_then(|reader| {
                let mut records = match mode {
                    IngestMode::Strict => RecordReader::with_capacity(reader, buffer_capacity),
                    IngestMode::Lossy => RecordReader::lossy_with_capacity(reader, buffer_capacity),
                };
                records.fast_forward(good_consumed)?;
                Ok(records)
            });
            let mut records = match built {
                Ok(records) => records,
                Err(e) if self.retry_after(&e) => continue 'rebuild,
                Err(_) => return,
            };
            // Fresh reader: counters restart at zero (fast-forward is
            // counter-neutral), so the fold baseline restarts too.
            self.prev = (0, 0, 0);
            loop {
                let next = records.next_event();
                let counters = (
                    records.records_decoded(),
                    records.records_skipped(),
                    records.trailing_tolerated(),
                );
                match next {
                    Ok(Some(event)) => {
                        self.transient_failures = 0;
                        poison_failures = 0;
                        // The event is in hand and any lossy skips before it
                        // are in `counters`, folded no later than the next
                        // flush — safe to resume past all of them.
                        good_consumed = records.records_consumed();
                        self.batch.push(event);
                        if self.batch.len() >= self.batch_size && !self.flush(counters) {
                            return;
                        }
                    }
                    Ok(None) => {
                        self.flush(counters);
                        return;
                    }
                    Err(e) if !self.reopenable => return self.fail(e),
                    Err(e @ (MrtError::Io(_) | MrtError::Truncated)) => {
                        // Transient: deliver the good prefix, then rebuild and
                        // fast-forward. An I/O fault never consumes a record
                        // position, so `records_consumed()` is exactly the
                        // accounted prefix (including lossy skips just folded).
                        good_consumed = records.records_consumed();
                        if !self.flush(counters) || !self.retry_after(&e) {
                            return;
                        }
                        continue 'rebuild;
                    }
                    Err(_poison) => {
                        // Poison record position (strict decode failure; the
                        // failing attempt consumed the position).
                        if !self.flush(counters) {
                            return;
                        }
                        poison_failures += 1;
                        if poison_failures >= self.policy.poison_threshold {
                            // Give up on the position: accept its consumption
                            // and move on with the same reader.
                            good_consumed = records.records_consumed();
                            poison_failures = 0;
                            let mut guard = self.shared.lock().unwrap();
                            guard[self.idx].ledger.poison_skipped += 1;
                        } else {
                            // Re-attempt the position with a rebuilt reader —
                            // the bytes may differ on a re-read (bounded
                            // corruption), and `e` tells us nothing about
                            // which. No backoff: this is a decode retry, not
                            // an I/O wait.
                            self.degrade();
                            continue 'rebuild;
                        }
                    }
                }
            }
        }
    }

    /// Closes the running busy interval into the stage ledger; the next
    /// one starts when the caller resets `busy_since`.
    fn bank_busy(&mut self) {
        self.stats.busy_secs += self.busy_since.elapsed().as_secs_f64();
    }

    /// Atomically accounts the pending batch and enqueues it:
    /// `events_decoded` and `queued` move together under the ledger lock,
    /// in the same critical section as the channel insert, so the
    /// per-source invariant holds at every instant. The same section folds
    /// the reader's `counters` into the ledger and signals the source's
    /// progress (a degraded source recovers). Returns
    /// `false` when the source is quarantined or the fan-in is gone — the
    /// batch is shed (`stall_shed`) and the worker must exit.
    fn flush(&mut self, counters: ReaderCounters) -> bool {
        self.bank_busy();
        let mut payload = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_size));
        let len = payload.len() as u64;
        loop {
            let mut guard = self.shared.lock().unwrap();
            let state = &mut guard[self.idx];
            let ledger = &mut state.ledger;
            ledger.records_decoded += counters.0 - self.prev.0;
            ledger.records_skipped += counters.1 - self.prev.1;
            ledger.trailing_tolerated += counters.2 - self.prev.2;
            self.prev = counters;
            ledger.health = ledger.health.on(Signal::Progress);
            // Shed when quarantined, or when the merge side is gone
            // (teardown), so the ledger still closes.
            let delivered = if payload.is_empty() {
                true
            } else if ledger.health == Health::Quarantined {
                false
            } else {
                match self.tx.try_send(payload) {
                    Ok(()) => true,
                    Err(channel::TrySendError::Full(p)) => {
                        payload = p;
                        drop(guard);
                        let start = Instant::now();
                        std::thread::sleep(Duration::from_micros(200));
                        self.stats.blocked_out_secs += start.elapsed().as_secs_f64();
                        continue;
                    }
                    Err(channel::TrySendError::Disconnected(_)) => false,
                }
            };
            ledger.events_decoded += len;
            if delivered {
                ledger.queued += len;
            } else {
                ledger.stall_shed += len;
            }
            state.decode = self.stats;
            drop(guard);
            self.busy_since = Instant::now();
            return delivered;
        }
    }

    /// Marks the source quarantined with `cause` and records the worker's
    /// exit.
    fn quarantine(&mut self, cause: String) {
        self.bank_busy();
        let mut guard = self.shared.lock().unwrap();
        let state = &mut guard[self.idx];
        if state.ledger.health != Health::Quarantined {
            state.ledger.quarantine_cause = Some(cause);
        }
        state.ledger.health = state.ledger.health.on(Signal::GiveUp);
        state.decode = self.stats;
    }

    /// Ends a source that cannot be reopened at its first fault, kept for
    /// the run to return; the pending batch is dropped (the run fails).
    fn fail(&mut self, e: MrtError) {
        self.quarantine(e.to_string());
        self.shared.lock().unwrap()[self.idx].fault = Some(e);
    }

    /// Counts a retry and degrades the source until its next flush.
    fn degrade(&mut self) {
        let mut guard = self.shared.lock().unwrap();
        let ledger = &mut guard[self.idx].ledger;
        ledger.source_retries += 1;
        ledger.health = ledger.health.on(Signal::Fault);
    }

    /// One more transient failure: quarantines the source (`false` — the
    /// worker must exit) when the restart policy has no backoff left,
    /// otherwise degrades it and sleeps the backoff before the rebuild.
    fn retry_after(&mut self, e: &MrtError) -> bool {
        self.transient_failures += 1;
        let salt = self.idx as u64;
        let Some(backoff) = self.policy.restart.after(self.transient_failures, salt) else {
            self.quarantine(format!(
                "transient retry budget exhausted after {} attempt(s): {e}",
                self.transient_failures
            ));
            return false;
        };
        self.degrade();
        self.bank_busy();
        std::thread::sleep(backoff);
        self.busy_since = Instant::now();
        true
    }
}

/// A ledger-snapshot observer: called with the per-source ledgers under
/// the ledger lock at every flush/quarantine instant.
type SourceProbe = Box<dyn FnMut(&[SourceLedger])>;

/// One source's merged events since the last flush of the fan-in.
#[derive(Debug, Default, Clone, Copy)]
struct Unbooked {
    merged: u64,
    forwarded: u64,
    filtered: u64,
}

/// Supervised multi-source MRT fan-in: N decode workers (one per source,
/// each under a [`SourcePolicy`]) feeding the deterministic k-way merge
/// that drives augment → stem. See the [module docs](self) for the full
/// design. Build with [`MultiSourceIngest::new`], add sources, then
/// [`MultiSourceIngest::run`].
pub struct MultiSourceIngest {
    config: IngestConfig,
    policy: SourcePolicy,
    sources: Vec<SourceSpec>,
    probe: Option<SourceProbe>,
}

impl std::fmt::Debug for MultiSourceIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSourceIngest")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field("sources", &self.sources)
            .finish()
    }
}

impl MultiSourceIngest {
    /// A fan-in with no sources yet.
    pub fn new(config: IngestConfig, policy: SourcePolicy) -> Self {
        MultiSourceIngest {
            config,
            policy,
            sources: Vec::new(),
            probe: None,
        }
    }

    /// Adds one source.
    pub fn source(mut self, spec: SourceSpec) -> Self {
        self.sources.push(spec);
        self
    }

    /// Installs a snapshot probe: called with the per-source ledgers after
    /// every flushed batch and every quarantine, under the ledger lock —
    /// each snapshot is an instant at which every ledger invariant must
    /// hold. Tests use this to assert exact accounting at every step.
    pub fn with_probe(mut self, probe: impl FnMut(&[SourceLedger]) + 'static) -> Self {
        self.probe = Some(Box::new(probe));
        self
    }

    /// Runs the fan-in to completion. Decode workers run on their own
    /// threads; the merge/augment loop runs on the calling thread.
    ///
    /// # Errors
    ///
    /// [`IngestError::AllSourcesQuarantined`] when no source survived;
    /// [`IngestError::Pipeline`] when the stem stage died;
    /// [`IngestError::Decode`] when a source that cannot be reopened (the
    /// one of [`ingest`]) faulted. A run where at least one source survives
    /// *succeeds* with partial-source provenance: [`IngestReport::is_partial`]
    /// and the `sources` ledgers say exactly what was lost.
    ///
    /// # Panics
    ///
    /// When no sources were added.
    pub fn run(self) -> Result<IngestReport, IngestError> {
        let MultiSourceIngest {
            config,
            policy,
            sources,
            mut probe,
        } = self;
        assert!(
            !sources.is_empty(),
            "MultiSourceIngest requires at least one source"
        );
        let n = sources.len();
        let batch_size = config.batch_size.max(1);
        let channel_batches = config.channel_batches.max(1);
        let mut back = BackHalf::spawn(&config);

        let shared: SharedSources = Arc::new(Mutex::new(
            sources
                .iter()
                .map(|s| SourceState {
                    ledger: SourceLedger {
                        name: s.name.clone(),
                        ..SourceLedger::default()
                    },
                    decode: StageStats::default(),
                    fault: None,
                })
                .collect(),
        ));
        let reopenable: Vec<bool> = sources.iter().map(|s| s.reopenable).collect();

        // Spawn one detached worker per source. Detached, not scoped: a
        // wedged worker (asleep inside a stalled read) must not block
        // ingest completion; it self-accounts and exits whenever it wakes.
        // A source that cannot be reopened is waited for anyway, so its
        // worker is joined and a panic in it reaches the caller.
        let mut rxs: Vec<channel::Receiver<Vec<Event>>> = Vec::with_capacity(n);
        let mut joined = Vec::new();
        for (idx, spec) in sources.into_iter().enumerate() {
            let (tx, rx) = channel::bounded::<Vec<Event>>(channel_batches);
            rxs.push(rx);
            let worker = SourceWorker {
                idx,
                shared: Arc::clone(&shared),
                tx,
                policy: policy.clone(),
                reopenable: spec.reopenable,
                batch: Vec::with_capacity(batch_size),
                batch_size,
                prev: (0, 0, 0),
                stats: StageStats::default(),
                busy_since: Instant::now(),
                transient_failures: 0,
            };
            let (mode, buffer_capacity) = (config.mode, config.buffer_capacity);
            let handle = std::thread::spawn(move || worker.run(spec.open, mode, buffer_capacity));
            if !reopenable[idx] {
                joined.push(handle);
            }
        }

        let mut collectors: Vec<Collector> = (0..n).map(|_| Collector::new()).collect();
        let mut heads: Vec<VecDeque<Event>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut disconnected = vec![false; n];
        let mut quarantined = vec![false; n];
        let mut timeouts = vec![0u32; n];

        let snapshot =
            |guard: &[SourceState]| guard.iter().map(|s| s.ledger.clone()).collect::<Vec<_>>();
        // Merged events not yet booked into their source's ledger: the
        // merge counts them as it takes them, and each flush books them —
        // together with the batch they went out in — under one ledger
        // lock. Until then they stay `queued`, so every ledger closes at
        // every instant.
        let mut unbooked = vec![Unbooked::default(); n];
        let flush =
            |back: &mut BackHalf, unbooked: &mut [Unbooked], probe: &mut Option<SourceProbe>| {
                back.flush();
                if unbooked.iter().all(|u| u.merged == 0) {
                    return;
                }
                let mut guard = shared.lock().unwrap();
                for (state, u) in guard.iter_mut().zip(unbooked.iter_mut()) {
                    let ledger = &mut state.ledger;
                    ledger.queued -= u.merged;
                    ledger.events_merged += u.merged;
                    ledger.events_forwarded += u.forwarded;
                    ledger.withdraws_filtered += u.filtered;
                    *u = Unbooked::default();
                }
                if let Some(probe) = probe.as_mut() {
                    probe(&snapshot(&guard));
                }
            };

        'merge: loop {
            // Fill: every live source must have an event staged before the
            // merge may pick — that is what makes the fan-in order
            // deterministic. A live reopenable source that yields nothing
            // within `stall_timeout` goes Degraded; on the second
            // consecutive timeout the watchdog quarantines it and sheds its
            // queue. One that cannot be reopened is waited for.
            let mut ready = true;
            for i in 0..n {
                if disconnected[i] || quarantined[i] || !heads[i].is_empty() {
                    continue;
                }
                let pulled = match rxs[i].try_recv() {
                    Ok(batch) => Ok(batch),
                    Err(channel::TryRecvError::Disconnected) => {
                        Err(channel::RecvTimeoutError::Disconnected)
                    }
                    // Nothing queued: the fill will wait, so what has been
                    // merged goes out first and reaches the stem stage
                    // while the merge waits.
                    Err(channel::TryRecvError::Empty) => {
                        flush(&mut back, &mut unbooked, &mut probe);
                        if back.closed {
                            break 'merge;
                        }
                        let start = Instant::now();
                        let pulled = if reopenable[i] {
                            rxs[i].recv_timeout(policy.stall_timeout)
                        } else {
                            rxs[i]
                                .recv()
                                .map_err(|_| channel::RecvTimeoutError::Disconnected)
                        };
                        back.stage.blocked_in_secs += start.elapsed().as_secs_f64();
                        pulled
                    }
                };
                match pulled {
                    Ok(batch) => {
                        if timeouts[i] > 0 {
                            // Delivered again after a stall timeout.
                            let mut guard = shared.lock().unwrap();
                            let ledger = &mut guard[i].ledger;
                            ledger.health = ledger.health.on(Signal::Progress);
                            timeouts[i] = 0;
                        }
                        heads[i].extend(batch);
                    }
                    Err(channel::RecvTimeoutError::Timeout) => {
                        timeouts[i] += 1;
                        let mut guard = shared.lock().unwrap();
                        if timeouts[i] == 1 {
                            let ledger = &mut guard[i].ledger;
                            ledger.health = ledger.health.on(Signal::Fault);
                            ready = false;
                        } else {
                            // Second consecutive timeout: quarantine. The
                            // drain happens under the ledger lock — the
                            // worker's enqueue runs under the same lock,
                            // so no event can slip in unaccounted.
                            let state = &mut guard[i];
                            state.ledger.health = state.ledger.health.on(Signal::GiveUp);
                            state.ledger.quarantine_cause = Some(format!(
                                "stalled: no progress within {:.1}s twice",
                                policy.stall_timeout.as_secs_f64()
                            ));
                            while let Ok(batch) = rxs[i].try_recv() {
                                let k = batch.len() as u64;
                                state.ledger.queued -= k;
                                state.ledger.stall_shed += k;
                            }
                            quarantined[i] = true;
                            let detail = format!("source {} ({}): stalled", i, state.ledger.name);
                            if let Some(probe) = probe.as_mut() {
                                probe(&snapshot(&guard));
                            }
                            drop(guard);
                            // A recording of this run carries the fan-in
                            // transition too, not just consumer restarts.
                            back.pipeline
                                .record_transition("source-quarantine", &detail);
                        }
                    }
                    Err(channel::RecvTimeoutError::Disconnected) => {
                        disconnected[i] = true;
                    }
                }
            }
            if !ready {
                continue 'merge;
            }
            // Done when nothing is live and nothing is staged.
            if (0..n).all(|i| (disconnected[i] || quarantined[i]) && heads[i].is_empty()) {
                break 'merge;
            }
            // A live source may still have come up empty (its worker
            // dropped the channel between fills); re-run the fill.
            if (0..n).any(|i| !disconnected[i] && !quarantined[i] && heads[i].is_empty()) {
                continue 'merge;
            }

            // Deterministic pick: minimum (timestamp, source index) over
            // every staged head — includes drained leftovers of finished
            // sources, excludes nothing that could still matter.
            let pick = (0..n)
                .filter(|&i| !heads[i].is_empty())
                .min_by_key(|&i| (heads[i].front().expect("non-empty head").time, i))
                .expect("at least one staged event");
            let event = heads[pick].pop_front().expect("picked head");
            let forwarded = back.augment(&mut collectors[pick], event);
            let counts = &mut unbooked[pick];
            counts.merged += 1;
            if forwarded {
                counts.forwarded += 1;
            } else {
                counts.filtered += 1;
            }
            if back.augmented.len() >= batch_size {
                flush(&mut back, &mut unbooked, &mut probe);
                if back.closed {
                    break 'merge;
                }
            }
        }
        flush(&mut back, &mut unbooked, &mut probe);

        // Tear the fan-in down: dropping the receivers makes any still-live
        // worker shed-and-exit on its next enqueue attempt.
        drop(rxs);
        for handle in joined {
            handle.join().expect("a decode worker panicked");
        }

        let (ledgers, decode, fault) = {
            let mut guard = shared.lock().unwrap();
            let mut decode = StageStats::default();
            for state in guard.iter() {
                decode.busy_secs += state.decode.busy_secs;
                decode.blocked_in_secs += state.decode.blocked_in_secs;
                decode.blocked_out_secs += state.decode.blocked_out_secs;
            }
            let fault = guard.iter_mut().find_map(|s| s.fault.take());
            (snapshot(&guard), decode, fault)
        };

        // A closed stem stage is reported first, by `finish`.
        if !back.closed {
            if let Some(e) = fault {
                back.abort();
                return Err(IngestError::Decode(e));
            }
            if ledgers.iter().all(|l| l.health == Health::Quarantined) {
                return Err(IngestError::AllSourcesQuarantined {
                    stats: Box::new(back.abort()),
                    sources: ledgers,
                });
            }
        }
        back.finish(ledgers, decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_anomaly::{FidelityLevel, OverloadPolicy, PipelineConfig, RealtimeDetector};
    use bgpscope_bgp::{EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp};
    use bgpscope_mrt::{write_events, FaultSpec, FaultyReader};
    use std::io::Cursor;

    fn attrs(hops: &[u32]) -> PathAttributes {
        PathAttributes::new(
            RouterId::from_octets(2, 2, 2, 2),
            bgpscope_bgp::AsPath::from_u32s(hops.to_vec()),
        )
    }

    fn archive_of(stream: &EventStream) -> Vec<u8> {
        let mut buf = Vec::new();
        write_events(&mut buf, stream).unwrap();
        buf
    }

    /// Announce-then-withdraw per prefix, so rebuild augmentation forwards
    /// every event.
    fn paired_stream(pairs: u32) -> EventStream {
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let mut stream = EventStream::new();
        for i in 0..pairs {
            let prefix = Prefix::from_octets(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24);
            stream.push(Event::announce(
                Timestamp::from_secs(u64::from(i) * 2),
                peer,
                prefix,
                attrs(&[701, 1299 + i]),
            ));
            stream.push(Event::withdraw(
                Timestamp::from_secs(u64::from(i) * 2 + 1),
                peer,
                prefix,
                attrs(&[701, 1299 + i]),
            ));
        }
        stream
    }

    /// Every event is accounted for, the global and per-shard ledgers
    /// close and `bench_json` carries the extended schema at any shard
    /// count — one shard is a sharded run like any other.
    #[test]
    fn ingest_accounts_for_every_event_at_any_shard_count() {
        // Distinct top octets so the (peer, prefix-range) router actually
        // spreads the keyspace over the shards.
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let mut stream = EventStream::new();
        for i in 0..400u32 {
            let prefix = Prefix::from_octets((i % 8 + 1) as u8 * 20, (i / 8) as u8, 0, 0, 24);
            let path = attrs(&[701, 1299 + i]);
            let at = |offset| Timestamp::from_secs(u64::from(i) * 2 + offset);
            stream.push(Event::announce(at(0), peer, prefix, path.clone()));
            stream.push(Event::withdraw(at(1), peer, prefix, path));
        }
        let archive = archive_of(&stream);
        for shards in [1, 4] {
            let config = IngestConfig::default()
                .with_shards(shards)
                .with_batch_size(64)
                .with_buffer_capacity(512);
            let report = ingest(Cursor::new(archive.clone()), config).unwrap();
            assert_eq!(report.events_decoded, 800);
            assert_eq!(report.events_forwarded, 800);
            assert_eq!(report.records_decoded, 800);
            assert_eq!(report.withdraws_filtered, 0);
            assert_eq!(report.stats.ingested, 800);
            assert!(report.events_per_sec > 0.0);
            let sharded = report.shard_stats.as_ref().expect("always sharded");
            assert_eq!(sharded.shards.len(), shards);
            assert!(sharded.accounts_exactly(), "global + per-shard ledgers");
            assert!(sharded.quarantined_shards().is_empty());
            let busy = sharded.shards.iter().filter(|s| s.stats.ingested > 0);
            assert_eq!(busy.count() > 1, shards > 1, "spread: {sharded}");
            let json = report.bench_json();
            assert!(json.contains("\"events_per_sec\""), "json: {json}");
            assert!(json.contains("\"occupancy\""), "json: {json}");
            assert!(json.contains("\"ledger\""), "json: {json}");
            assert!(json.contains("\"shards\":["), "json: {json}");
            assert!(json.contains("\"quarantined_shards\":[]"), "json: {json}");
        }
    }

    /// `windows` analysis windows (1,000 s apart; the window is 900 s) of
    /// one 40-prefix table transfer and its loss 100 s later: every window
    /// is analyzed and yields at least one report.
    fn windowed_stream(windows: u32) -> EventStream {
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let mut stream = EventStream::new();
        for w in 0..windows {
            let base = u64::from(w) * 1_000;
            for (offset, withdraw) in [(0, false), (100, true)] {
                for i in 0..40u8 {
                    let time = Timestamp::from_secs(base + offset + u64::from(i));
                    let prefix = Prefix::from_octets(10, w as u8, i, 0, 24);
                    let attrs = attrs(&[701, 1299]);
                    stream.push(if withdraw {
                        Event::withdraw(time, peer, prefix, attrs)
                    } else {
                        Event::announce(time, peer, prefix, attrs)
                    });
                }
            }
        }
        stream
    }

    fn sorted_json(reports: &[AnomalyReport]) -> Vec<String> {
        let mut json: Vec<String> = reports
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        json.sort();
        json
    }

    /// The synchronous reference: one `RealtimeDetector` at `level` behind
    /// its own rebuild augmentation.
    fn sync_run(stream: &EventStream, level: FidelityLevel) -> (Vec<String>, PipelineStats) {
        let mut collector = Collector::new();
        let mut detector = RealtimeDetector::new(PipelineConfig::default());
        detector.set_fidelity(level);
        let mut reports = Vec::new();
        for event in stream {
            if let Some(event) = collector.augment(event.clone()) {
                reports.extend(detector.ingest_event(event));
            }
        }
        reports.extend(detector.flush());
        (sorted_json(&reports), detector.stats())
    }

    #[test]
    fn one_shard_ingest_equals_the_synchronous_detector() {
        let stream = windowed_stream(6);
        let report = ingest(Cursor::new(archive_of(&stream)), IngestConfig::default()).unwrap();
        let (reports, mut stats) = sync_run(&stream, FidelityLevel::Full);
        assert!(reports.len() >= 6, "every window reports");
        assert_eq!(sorted_json(&report.reports), reports);
        // The checkpoint count has no synchronous counterpart.
        stats.checkpoints = report.stats.checkpoints;
        assert_eq!(report.stats, stats);
    }

    #[test]
    fn degrade_policy_is_the_fidelity_floor_under_pressure() {
        let stream = windowed_stream(60);
        let spawn = SpawnConfig::default()
            .with_capacity(1)
            .with_overload(OverloadPolicy::Degrade);
        let config = IngestConfig::default().with_spawn(spawn);
        let report = ingest(Cursor::new(archive_of(&stream)), config).unwrap();
        assert!(report.stats.degraded_windows > 0, "{}", report.stats);
        assert_eq!(report.stats.shed_events, 0, "Degrade is lossless");
        let (floor, _) = sync_run(&stream, FidelityLevel::Floor);
        let (full, _) = sync_run(&stream, FidelityLevel::Full);
        let (degraded, clean): (Vec<_>, Vec<_>) =
            report.reports.iter().cloned().partition(|r| r.degraded);
        assert!(!degraded.is_empty());
        for json in sorted_json(&degraded) {
            assert!(floor.contains(&json), "not a floor report: {json}");
        }
        for json in sorted_json(&clean) {
            assert!(full.contains(&json), "not a full-fidelity report: {json}");
        }
    }

    /// More reports than the template's report bound, then more events than
    /// the event queue holds: the bound does not apply to a shard, whose
    /// report queue nobody reads until the run finishes, so the supervisor
    /// never blocks on it and the feed never blocks on the supervisor.
    #[test]
    fn ingest_drains_its_own_report_queue() {
        let archive = archive_of(&windowed_stream(12));
        let spawn = SpawnConfig::default()
            .with_report_capacity(4)
            .with_capacity(64);
        let config = IngestConfig::default().with_spawn(spawn);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(ingest(Cursor::new(archive), config));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("ingest live-locked on its own report queue")
            .unwrap();
        assert!(report.reports.len() >= 12);
        assert_eq!(report.stats.reports_delivered, report.reports.len() as u64);
        assert!(report.stats.reports_account_exactly());
    }

    #[test]
    fn rebuild_augmentation_filters_stale_withdrawals_and_rebuilds_attrs() {
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let known: Prefix = "10.1.0.0/24".parse().unwrap();
        let unknown: Prefix = "10.9.0.0/24".parse().unwrap();
        let mut stream = EventStream::new();
        stream.push(Event::announce(
            Timestamp::from_secs(1),
            peer,
            known,
            attrs(&[701]),
        ));
        // Archive claims the wrong withdrawn attributes; rebuild must
        // restore the announced ones from the Adj-RIB-In.
        stream.push(Event::withdraw(
            Timestamp::from_secs(2),
            peer,
            known,
            attrs(&[65000]),
        ));
        // A withdrawal the peer never announced is noise; rebuild drops it.
        stream.push(Event::withdraw(
            Timestamp::from_secs(3),
            peer,
            unknown,
            attrs(&[65000]),
        ));
        let archive = archive_of(&stream);
        let report = ingest(Cursor::new(archive.clone()), IngestConfig::default()).unwrap();
        assert_eq!(report.events_decoded, 3);
        assert_eq!(report.events_forwarded, 2);
        assert_eq!(report.withdraws_filtered, 1);

        let passthrough =
            ingest(Cursor::new(archive), IngestConfig::default().passthrough()).unwrap();
        assert_eq!(passthrough.events_forwarded, 3);
        assert_eq!(passthrough.withdraws_filtered, 0);
    }

    #[test]
    fn strict_ingest_rejects_truncated_archives() {
        let archive = archive_of(&paired_stream(8));
        let cut = &archive[..archive.len() - 3];
        let err = ingest(Cursor::new(cut.to_vec()), IngestConfig::default()).unwrap_err();
        assert!(
            matches!(err, IngestError::Decode(MrtError::Truncated)),
            "got {err}"
        );
        // Lossy tolerates noise, not damage: a cut tail still errors.
        let err = ingest(Cursor::new(cut.to_vec()), IngestConfig::default().lossy()).unwrap_err();
        assert!(
            matches!(err, IngestError::Decode(MrtError::Truncated)),
            "got {err}"
        );
    }

    #[test]
    fn lossy_ingest_skips_unknown_record_types() {
        let stream = paired_stream(4);
        let mut archive = archive_of(&stream);
        // Append a record of a type nobody knows; body length 4.
        archive.extend_from_slice(&9u32.to_be_bytes());
        archive.extend_from_slice(&0u32.to_be_bytes());
        archive.extend_from_slice(&0xDEADu16.to_be_bytes());
        archive.extend_from_slice(&1u16.to_be_bytes());
        archive.extend_from_slice(&4u32.to_be_bytes());
        archive.extend_from_slice(&[0, 1, 2, 3]);

        let err = ingest(Cursor::new(archive.clone()), IngestConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Decode(MrtError::UnknownType(0xDEAD))
        ));

        let report = ingest(Cursor::new(archive), IngestConfig::default().lossy()).unwrap();
        assert_eq!(report.events_decoded, 8);
        assert_eq!(report.records_skipped, 1);
    }

    #[test]
    fn parse_vmhwm_handles_synthetic_status_strings() {
        let good = "VmPeak:\t  123 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 99 kB\n";
        assert_eq!(parse_vmhwm_bytes(good), Some(2048 * 1024));
        // Bare number (no unit) is still kB.
        assert_eq!(parse_vmhwm_bytes("VmHWM: 4"), Some(4096));
        // Partial parses yield None, never a bogus number.
        assert_eq!(parse_vmhwm_bytes(""), None);
        assert_eq!(parse_vmhwm_bytes("VmRSS: 17 kB"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM:"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM: lots kB"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM: 17 MB"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM: 18446744073709551615 kB"), None);
    }

    /// A policy tuned for fast tests: short backoff, short stall timeout.
    fn test_policy() -> SourcePolicy {
        SourcePolicy::default()
            .with_backoff(Duration::from_millis(1))
            .with_stall_timeout(Duration::from_millis(250))
    }

    /// Distinct per-source streams whose prefixes never collide, so every
    /// source's contribution is identifiable downstream.
    fn source_stream(source: u8, pairs: u32) -> EventStream {
        let peer = PeerId::from_octets(10, source, 0, 1);
        let mut stream = EventStream::new();
        for i in 0..pairs {
            let prefix = Prefix::from_octets(20 + source, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24);
            stream.push(Event::announce(
                Timestamp::from_secs(u64::from(i) * 4 + u64::from(source)),
                peer,
                prefix,
                attrs(&[701, 1299 + i]),
            ));
            stream.push(Event::withdraw(
                Timestamp::from_secs(u64::from(i) * 4 + u64::from(source) + 2),
                peer,
                prefix,
                attrs(&[701, 1299 + i]),
            ));
        }
        stream
    }

    /// A source that cannot be reopened is waited for however long it
    /// pauses: its reader stalls for six stall timeouts, three times what
    /// the watchdog needs to quarantine a supervised source, and the run
    /// still delivers every event with the source never leaving Healthy.
    #[test]
    fn a_source_that_cannot_be_reopened_is_waited_for_not_quarantined() {
        let archive = archive_of(&paired_stream(40));
        let stall = Duration::from_millis(50);
        let armed = FaultSpec::new(1)
            .stall(archive.len() as u64 / 2, stall * 6)
            .arm();
        let report = MultiSourceIngest::new(
            IngestConfig::default().with_batch_size(8),
            test_policy().with_stall_timeout(stall),
        )
        .source(SourceSpec::once(
            "slow",
            FaultyReader::new(Cursor::new(archive), armed),
        ))
        .run()
        .unwrap();
        assert_eq!(report.events_decoded, 80);
        assert_eq!(report.stats.ingested, 80);
        assert_eq!(report.sources[0].health, Health::Healthy);
        assert!(report.sources_account_exactly());
    }

    /// A transient I/O fault mid-archive ends [`ingest`] with that very
    /// fault: its reader cannot be reopened, so nothing retries it (a retry
    /// would fail on the reopen instead, or heal).
    #[test]
    fn ingest_fails_on_its_first_io_fault_without_a_retry() {
        let archive = archive_of(&paired_stream(40));
        let armed = FaultSpec::new(1)
            .transient_error(archive.len() as u64 / 2)
            .arm();
        let reader = FaultyReader::new(Cursor::new(archive), armed.clone());
        let err = ingest(reader, IngestConfig::default().with_batch_size(8)).unwrap_err();
        match err {
            IngestError::Decode(MrtError::Io(e)) => {
                assert!(e.to_string().contains("injected transient fault"), "{e}");
            }
            other => panic!("expected Decode(Io), got {other}"),
        }
        assert_eq!(armed.pending_transient_errors(), 0);
    }

    #[test]
    fn multi_source_merges_deterministically_and_closes_every_ledger() {
        let run = || {
            MultiSourceIngest::new(IngestConfig::default().with_batch_size(16), test_policy())
                .source(SourceSpec::from_bytes(
                    "a",
                    archive_of(&source_stream(1, 60)),
                ))
                .source(SourceSpec::from_bytes(
                    "b",
                    archive_of(&source_stream(2, 40)),
                ))
                .source(SourceSpec::from_bytes(
                    "c",
                    archive_of(&source_stream(3, 20)),
                ))
                .run()
                .unwrap()
        };
        let first = run();
        assert_eq!(first.events_decoded, 240);
        assert_eq!(first.events_forwarded, 240);
        assert_eq!(first.stats.ingested, 240);
        assert!(first.stats.accounts_exactly());
        assert!(first.sources_account_exactly());
        assert!(!first.is_partial());
        assert_eq!(first.sources.len(), 3);
        for ledger in &first.sources {
            assert_eq!(ledger.health, Health::Healthy);
            assert_eq!(ledger.queued, 0);
            assert_eq!(ledger.events_decoded, ledger.events_merged);
        }
        // Bit-identical on a rerun: same ledgers, same report count.
        let second = run();
        assert_eq!(first.sources, second.sources);
        assert_eq!(first.reports.len(), second.reports.len());
        let json = first.bench_json();
        assert!(
            json.contains("\"sources\":[{\"name\":\"a\""),
            "json: {json}"
        );
        assert!(json.contains("\"health\":\"healthy\""), "json: {json}");
    }

    #[test]
    fn multi_source_probe_sees_closed_ledgers_at_every_snapshot() {
        let snapshots = std::cell::RefCell::new(0u64);
        // The probe runs under the ledger lock after every merged event:
        // each call is an instant at which every invariant must hold.
        let report =
            MultiSourceIngest::new(IngestConfig::default().with_batch_size(8), test_policy())
                .source(SourceSpec::from_bytes(
                    "a",
                    archive_of(&source_stream(1, 30)),
                ))
                .source(SourceSpec::from_bytes(
                    "b",
                    archive_of(&source_stream(2, 30)),
                ))
                .with_probe(move |ledgers| {
                    for l in ledgers {
                        assert!(l.accounts_exactly(), "open ledger mid-run: {l:?}");
                    }
                    *snapshots.borrow_mut() += 1;
                })
                .run()
                .unwrap();
        assert_eq!(report.events_decoded, 120);
        assert!(report.sources_account_exactly());
    }

    /// A reader over `data` that stops once at byte `gate` until `open`
    /// says so (waiting at most 10 s), recording whether it was let through.
    struct Gated {
        data: Vec<u8>,
        pos: usize,
        gate: Option<usize>,
        open: Box<dyn Fn() -> bool + Send>,
        opened: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Read for Gated {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.gate == Some(self.pos) {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !(self.open)() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.opened
                    .store((self.open)(), std::sync::atomic::Ordering::SeqCst);
                self.gate = None;
            }
            let limit = self.gate.unwrap_or(self.data.len());
            let end = limit.min(self.pos + out.len());
            let n = end - self.pos;
            out[..n].copy_from_slice(&self.data[self.pos..end]);
            self.pos = end;
            Ok(n)
        }
    }

    /// Events merged before a blocking fill reach the stem stage before
    /// the fill waits. Source "b" delivers one batch, then its reader
    /// stops at a gate that opens only once the probe has seen that batch
    /// merged and booked: a merge that sat on merged events while waiting
    /// for more of "b" would never see the gate open.
    #[test]
    fn multi_source_flushes_merged_events_before_a_blocking_fill() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let batch = 16;
        let b_stream = source_stream(2, 40);
        let mut first = EventStream::new();
        for event in b_stream.iter().take(batch) {
            first.push(event.clone());
        }
        let gate = archive_of(&first).len();
        let b_merged = Arc::new(AtomicU64::new(0));
        let opened = Arc::new(AtomicBool::new(false));
        let b_archive = archive_of(&b_stream);
        let (seen, flag) = (Arc::clone(&b_merged), Arc::clone(&opened));
        let b = SourceSpec::new("b", move || {
            let seen = Arc::clone(&seen);
            Ok(Box::new(Gated {
                data: b_archive.clone(),
                pos: 0,
                gate: Some(gate),
                open: Box::new(move || seen.load(Ordering::SeqCst) >= batch as u64),
                opened: Arc::clone(&flag),
            }) as Box<dyn Read + Send>)
        });
        // One extra early event on "a" puts b's last delivered event one
        // past a multiple of the batch size in merge order, so only a
        // flush before the wait — not a full batch — can book it.
        let mut a_stream = EventStream::new();
        a_stream.push(Event::announce(
            Timestamp::ZERO,
            PeerId::from_octets(10, 1, 0, 1),
            "21.255.0.0/24".parse().unwrap(),
            attrs(&[701]),
        ));
        for event in &source_stream(1, 40) {
            a_stream.push(event.clone());
        }
        let probed = Arc::clone(&b_merged);
        let report = MultiSourceIngest::new(
            IngestConfig::default().with_batch_size(batch),
            test_policy().with_stall_timeout(Duration::from_secs(30)),
        )
        .source(SourceSpec::from_bytes("a", archive_of(&a_stream)))
        .source(b)
        .with_probe(move |ledgers| {
            for l in ledgers {
                assert!(l.accounts_exactly(), "open ledger mid-run: {l:?}");
                assert_eq!(
                    l.events_forwarded + l.withdraws_filtered,
                    l.events_merged,
                    "merged but not booked at a flush: {l:?}"
                );
            }
            probed.store(ledgers[1].events_merged, Ordering::SeqCst);
        })
        .run()
        .unwrap();
        assert!(
            opened.load(Ordering::SeqCst),
            "the merge waited on b with b's merged events still unflushed"
        );
        assert_eq!(report.events_decoded, 161);
        assert_eq!(report.stats.ingested, 161);
        assert!(report.sources_account_exactly());
    }

    #[test]
    fn multi_source_errors_when_every_source_is_dead() {
        let dead = |name: &str| {
            SourceSpec::new(name.to_owned(), || {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "injected: collector unreachable",
                ))
            })
        };
        let err =
            MultiSourceIngest::new(IngestConfig::default(), test_policy().with_max_retries(1))
                .source(dead("ripe-rrc00"))
                .source(dead("routeviews2"))
                .run()
                .unwrap_err();
        match err {
            IngestError::AllSourcesQuarantined { sources, stats } => {
                assert_eq!(sources.len(), 2);
                for s in &sources {
                    assert_eq!(s.health, Health::Quarantined);
                    assert!(s.accounts_exactly());
                    let cause = s.quarantine_cause.as_deref().unwrap();
                    assert!(cause.contains("collector unreachable"), "cause: {cause}");
                    assert!(s.source_retries >= 1, "retried before giving up: {s:?}");
                }
                assert_eq!(stats.ingested, 0);
                let msg = format!("{}", IngestError::AllSourcesQuarantined { sources, stats });
                assert!(msg.contains("ripe-rrc00:"), "per-source causes: {msg}");
                assert!(msg.contains("routeviews2:"), "per-source causes: {msg}");
            }
            other => panic!("expected AllSourcesQuarantined, got {other}"),
        }
    }

    #[test]
    fn multi_source_survives_a_dead_source_with_partial_provenance() {
        let report = MultiSourceIngest::new(
            IngestConfig::default().with_batch_size(16),
            test_policy().with_max_retries(1),
        )
        .source(SourceSpec::from_bytes(
            "good",
            archive_of(&source_stream(1, 50)),
        ))
        .source(SourceSpec::new("dead", || {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "injected: feed down",
            ))
        }))
        .run()
        .unwrap();
        assert!(report.is_partial());
        assert_eq!(report.quarantined_sources().len(), 1);
        assert_eq!(report.quarantined_sources()[0].name, "dead");
        assert_eq!(report.events_decoded, 100);
        assert!(report.sources_account_exactly());
        let text = format!("{report}");
        assert!(text.contains("PARTIAL RESULT"), "display: {text}");
        assert!(text.contains("source dead: quarantined"), "display: {text}");
    }

    #[test]
    fn multi_source_rebuild_augmentation_keeps_per_source_rib_state() {
        // Source "a" announces then withdraws; source "b" sends a stale
        // withdrawal for the same prefix it never announced. Per-source
        // collectors must filter b's, not a's.
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let prefix: Prefix = "30.1.0.0/24".parse().unwrap();
        let mut a = EventStream::new();
        a.push(Event::announce(
            Timestamp::from_secs(1),
            peer,
            prefix,
            attrs(&[701]),
        ));
        a.push(Event::withdraw(
            Timestamp::from_secs(3),
            peer,
            prefix,
            attrs(&[701]),
        ));
        let mut b = EventStream::new();
        b.push(Event::withdraw(
            Timestamp::from_secs(2),
            peer,
            prefix,
            attrs(&[701]),
        ));
        let report = MultiSourceIngest::new(IngestConfig::default(), test_policy())
            .source(SourceSpec::from_bytes("a", archive_of(&a)))
            .source(SourceSpec::from_bytes("b", archive_of(&b)))
            .run()
            .unwrap();
        assert_eq!(report.events_forwarded, 2);
        assert_eq!(report.withdraws_filtered, 1);
        let b_ledger = report.sources.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b_ledger.withdraws_filtered, 1);
        assert_eq!(b_ledger.events_forwarded, 0);
    }

    #[test]
    fn ingest_survives_archives_larger_than_every_buffer() {
        // Archive ≫ refill buffer, batch, and channel: 2000 events through
        // a 256-byte reader buffer in 16-event batches over a 2-batch
        // channel. The constant-memory claim for the reader itself is
        // asserted in `bgpscope_mrt::stream`; this exercises the staged
        // handoff end to end.
        let stream = paired_stream(1000);
        let archive = archive_of(&stream);
        assert!(archive.len() > 64 * 1024);
        let report = ingest(
            Cursor::new(archive),
            IngestConfig::default()
                .with_buffer_capacity(256)
                .with_batch_size(16)
                .with_channel_batches(2),
        )
        .unwrap();
        assert_eq!(report.events_decoded, 2000);
        assert_eq!(report.events_forwarded, 2000);
        assert!(report.stats.accounts_exactly());
    }
}
