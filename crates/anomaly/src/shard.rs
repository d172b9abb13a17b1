//! Sharded supervision: N independent supervised pipelines behind one
//! deterministic router, with per-shard fault isolation and a conservative
//! merge of per-shard anomalies into global incidents.
//!
//! The single supervised pipeline ([`crate::pipeline`]) shrinks the failure
//! domain from "the process" to "the consumer thread"; this module shrinks
//! it again to "one shard of the keyspace." A [`ShardRouter`] partitions
//! ingest by a (peer, prefix-range) key across N ≥ 1 supervised consumers,
//! each owning its own bounded queue, adaptive controller, checkpoint,
//! recording (a per-shard `<path>.shard<k>` when N > 1), and restart
//! budget — a panicking, stalling, or overloaded shard degrades or restarts
//! alone while its siblings keep analyzing. One shard is the unsharded
//! pipeline: every incident is a singleton of the merge and the recording
//! path is used as given.
//!
//! # Shard key contract
//!
//! The routing key is `(peer, prefix >> (32 - range_bits))`: equal keys
//! always land on the same shard, so every event of a correlated component
//! whose events share a key is analyzed by one detector with full context.
//! Cross-key components can split across shards; the merge stage
//! ([`merge_incidents`]) re-unifies them — equal stems from *different*
//! shards with overlapping time envelopes coalesce into one incident with
//! summed support and a union envelope. For a partition that respects
//! component boundaries the merge is the identity, so sharded-then-merged
//! output is bit-identical to the unsharded oracle (pinned by the
//! `shard_differential` proptest).
//!
//! # Quarantine (circuit breaker)
//!
//! A shard whose supervisor exhausts [`SupervisorConfig::max_restarts`]
//! does *not* close the sharded pipeline: the shard is **quarantined** —
//! by the producer the next time it routes there, or by `finish()` if it
//! finds the shard dead first. Its handle is reaped (stranded queued events
//! counted as shed, its
//! in-flight ring already counted as that shard's `lost_events`), its
//! keyspace is marked degraded ([`ShardSnapshot::quarantined`]), and every
//! event subsequently routed to it is counted in
//! [`ShardSnapshot::quarantine_shed`] (folded into the shard's
//! `ingested`/`shed_events`, never silently discarded). Only when *all*
//! shards are quarantined does ingest return [`PipelineClosed`].
//!
//! # Global ledger
//!
//! The global ledger is the field-wise sum of the per-shard ledgers and
//! closes exactly at every snapshot, quarantines included:
//!
//! ```text
//! ingested == Σ shard(analyzed + shed + dropped + carried + queued
//!                     + replayed_in_flight + coalesced)
//! ```
//!
//! (per-shard `lost_events` is a subset of that shard's `dropped_events`,
//! exactly as in the single pipeline).
//!
//! [`SupervisorConfig::max_restarts`]: crate::pipeline::SupervisorConfig

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use bgpscope_bgp::{Event, PeerId, Prefix, Timestamp, UpdateMessage};
use bgpscope_collector::Collector;

use crate::pipeline::{
    PanicInjection, PipelineClosed, PipelineHandle, PipelineStats, RealtimeDetector, SpawnConfig,
    StatsProbe, WeightedEvent,
};
use crate::report::AnomalyReport;

/// Deterministic (peer, prefix-range) → shard routing.
///
/// The contract: equal keys always co-locate. Two events from the same
/// peer whose prefixes share their top `range_bits` bits are guaranteed to
/// reach the same shard, so a correlated component confined to one key is
/// analyzed with full context by one detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    range_bits: u8,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to ≥ 1) with the default
    /// 8-bit prefix range (a /8 of keyspace per (peer, range) key).
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.max(1),
            range_bits: 8,
        }
    }

    /// Sets how many leading prefix bits enter the routing key (clamped to
    /// ≤ 32). `0` routes by peer alone.
    #[must_use]
    pub fn with_range_bits(mut self, bits: u8) -> Self {
        self.range_bits = bits.min(32);
        self
    }

    /// The number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing key for (peer, prefix): the peer address and the top
    /// `range_bits` bits of the prefix address.
    pub fn key(&self, peer: PeerId, prefix: Prefix) -> (u32, u32) {
        let range = if self.range_bits == 0 {
            0
        } else {
            prefix.addr() >> (32 - u32::from(self.range_bits))
        };
        (peer.0.as_u32(), range)
    }

    /// The shard for (peer, prefix): FNV-1a over the key, finalized with an
    /// avalanche mix, mod `shards`. Deterministic across runs and
    /// platforms. The finalizer matters: raw FNV-1a gives its last input
    /// byte only one multiply, so keys agreeing in their low bits (e.g.
    /// prefix top octets that are all multiples of 4) would collide mod a
    /// power-of-two shard count.
    pub fn route(&self, peer: PeerId, prefix: Prefix) -> usize {
        let (peer_key, range) = self.key(peer, prefix);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in peer_key
            .to_be_bytes()
            .into_iter()
            .chain(range.to_be_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        (hash % self.shards as u64) as usize
    }

    /// The shard for an event (its peer and prefix).
    pub fn route_event(&self, event: &Event) -> usize {
        self.route(event.peer, event.prefix)
    }
}

/// Configuration for [`ShardedPipeline::spawn`]: a shard count, a
/// [`SpawnConfig`] template every shard is spawned from, and per-shard
/// overrides.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (clamped to ≥ 1 at spawn).
    pub shards: usize,
    /// Template applied to every shard. With more than one shard, a
    /// configured recording path is suffixed per shard (`<path>.shard<k>`)
    /// so shards never clobber each other's files. Its report bound and
    /// policy do not apply: a shard is not a subscriber, so every shard's
    /// report queue is unbounded and is read once, when the shard is
    /// reaped.
    pub spawn: SpawnConfig,
    /// Leading prefix bits in the routing key (see
    /// [`ShardRouter::with_range_bits`]).
    pub range_bits: u8,
    /// A fault injection aimed at one specific shard; the template's
    /// [`SpawnConfig::fault`] (which would arm *every* shard) is cleared on
    /// the others.
    pub shard_fault: Option<(usize, PanicInjection)>,
}

impl ShardedConfig {
    /// A sharded configuration: `shards` copies of `spawn`.
    pub fn new(shards: usize, spawn: SpawnConfig) -> Self {
        ShardedConfig {
            shards,
            spawn,
            range_bits: 8,
            shard_fault: None,
        }
    }

    /// Sets the routing key's prefix range width.
    #[must_use]
    pub fn with_range_bits(mut self, bits: u8) -> Self {
        self.range_bits = bits;
        self
    }

    /// Arms a panic injection on shard `shard` only.
    #[must_use]
    pub fn with_shard_fault(mut self, shard: usize, fault: PanicInjection) -> Self {
        self.shard_fault = Some((shard, fault));
        self
    }

    /// The spawn configuration for shard `k`: the template with an
    /// unbounded report queue, the fault resolved per-shard and, when there
    /// is more than one shard, the recording path suffixed `.shard<k>`.
    fn spawn_for(&self, k: usize) -> SpawnConfig {
        let mut spawn = self.spawn.clone();
        spawn.report_capacity = 0;
        if self.shards > 1 {
            if let Some(recorder) = &mut spawn.recorder {
                recorder.path = format!("{}.shard{k}", recorder.path.display()).into();
            }
        }
        if let Some((target, fault)) = self.shard_fault {
            spawn.fault = (target == k).then_some(fault);
        }
        spawn
    }
}

/// The observable supervision state of one shard. Everything an observer
/// can see about a quarantine — the flag, the cause, the reaped final
/// ledger, the post-quarantine shed count — is published under this one
/// mutex, in one critical section, so a sample taken from another thread
/// (a recorder, a metrics scraper) can never read the transition half-done
/// (the old code's `handle.take()` → remains-stored window read as an
/// all-zero ledger).
#[derive(Debug, Default)]
struct ShardCell {
    quarantined: bool,
    /// Events routed here after quarantine (counted as this shard's
    /// `ingested` + `shed_events` in every snapshot).
    quarantine_shed: u64,
    /// The panic cause captured at quarantine, surviving later panics on
    /// other shards.
    cause: Option<String>,
    /// The final ledger, published together with `quarantined` once the
    /// handle is reaped. `None` = sample the live probe.
    stats: Option<PipelineStats>,
}

/// One shard: a live handle (`None` once reaped), the reports taken off
/// it when it was reaped, the thread-safe ledger probe, the supervision
/// cell observers sample, and the reused buffer its share of a batch is
/// routed into.
#[derive(Debug)]
struct Shard {
    handle: Option<PipelineHandle>,
    reports: Vec<AnomalyReport>,
    probe: StatsProbe,
    cell: Arc<Mutex<ShardCell>>,
    /// This shard's events of the batch being ingested, in batch order;
    /// empty between batches.
    pending: VecDeque<WeightedEvent>,
}

impl Shard {
    fn snapshot(&self, shard: usize) -> ShardSnapshot {
        snapshot_shard(&self.probe, &self.cell, shard)
    }
}

/// Samples one shard's snapshot: the cell (one critical section) decides
/// whether the ledger comes from the reaped final stats or the live
/// probe, and folds the post-quarantine shed in — always consistent,
/// from any thread.
fn snapshot_shard(probe: &StatsProbe, cell: &Mutex<ShardCell>, shard: usize) -> ShardSnapshot {
    let cell = cell.lock().expect("shard cell poisoned");
    let mut stats = match cell.stats {
        Some(stats) => stats,
        None => probe.stats(),
    };
    stats.ingested += cell.quarantine_shed;
    stats.shed_events += cell.quarantine_shed;
    ShardSnapshot {
        shard,
        quarantined: cell.quarantined,
        quarantine_shed: cell.quarantine_shed,
        stats,
    }
}

/// One shard's contribution to a [`ShardedStats`] snapshot.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// True once the shard's supervisor exhausted its restart budget and
    /// the shard was quarantined — its keyspace is degraded from then on.
    pub quarantined: bool,
    /// Events routed to the shard after quarantine (already folded into
    /// `stats.ingested` and `stats.shed_events`).
    pub quarantine_shed: u64,
    /// The shard's own ledger (closes exactly, quarantined or not).
    pub stats: PipelineStats,
}

/// The global accounting snapshot of a sharded pipeline: the field-wise sum
/// of the per-shard ledgers plus the per-shard breakdown.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Sum of the per-shard ledgers (the `fidelity_level` gauge takes the
    /// max — the worst-off shard).
    pub global: PipelineStats,
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
}

impl ShardedStats {
    fn from_snapshots(shards: Vec<ShardSnapshot>) -> Self {
        let mut global = PipelineStats::default();
        for snap in &shards {
            global.absorb(&snap.stats);
        }
        ShardedStats { global, shards }
    }

    /// True when the global ledger closes exactly *and* every per-shard
    /// ledger closes *and* the global counters are exactly the sum of the
    /// shards' — the sharded accounting invariant.
    pub fn accounts_exactly(&self) -> bool {
        self.global.accounts_exactly()
            && self.shards.iter().all(|s| s.stats.accounts_exactly())
            && self.global.ingested == self.shards.iter().map(|s| s.stats.ingested).sum::<u64>()
    }

    /// True when the global report ledger closes exactly.
    pub fn reports_account_exactly(&self) -> bool {
        self.global.reports_account_exactly()
            && self
                .shards
                .iter()
                .all(|s| s.stats.reports_account_exactly())
    }

    /// Indices of quarantined shards.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.quarantined)
            .map(|s| s.shard)
            .collect()
    }

    /// Stable machine-readable serialization (see the [`Serialize`] impl).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ShardedStats is always serializable")
    }
}

/// The global [`PipelineStats`] object extended with `shards` (per-shard
/// snapshots) and `quarantined_shards`: the extension *appends*, so every
/// consumer of the flat schema keeps working.
impl Serialize for ShardedStats {
    fn to_value(&self) -> serde::Value {
        let mut value = self.global.to_value();
        let serde::Value::Map(fields) = &mut value else {
            unreachable!("the global ledger serializes as a map");
        };
        fields.push(("shards".into(), self.shards.to_value()));
        fields.push((
            "quarantined_shards".into(),
            self.quarantined_shards().to_value(),
        ));
        value
    }
}

impl std::fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "global over {} shards:", self.shards.len())?;
        writeln!(f, "{}", self.global)?;
        for snap in &self.shards {
            writeln!(
                f,
                "shard {}{}: ingested {} analyzed {} shed {} dropped {} lost {} restarts {}",
                snap.shard,
                if snap.quarantined {
                    " [quarantined]"
                } else {
                    ""
                },
                snap.stats.ingested,
                snap.stats.analyzed,
                snap.stats.shed_events,
                snap.stats.dropped_events,
                snap.stats.lost_events,
                snap.stats.restarts,
            )?;
        }
        Ok(())
    }
}

/// A thread-safe, cloneable view of a [`ShardedPipeline`]'s ledger (see
/// [`ShardedPipeline::observer`]). Holds each shard's [`StatsProbe`] and
/// supervision cell, so a sample never touches the pipeline itself — safe
/// to hammer from a recorder or metrics thread while the owning thread
/// ingests, restarts, and quarantines.
#[derive(Debug, Clone)]
pub struct ShardedObserver {
    shards: Vec<(StatsProbe, Arc<Mutex<ShardCell>>)>,
}

impl ShardedObserver {
    /// A consistent global + per-shard snapshot, from any thread. Each
    /// shard's ledger closes exactly on every sample: the cell lock makes
    /// the quarantine hand-off atomic, and the live probe orders its reads
    /// so concurrent counter bumps only grow the derived `queued`.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats::from_snapshots(
            self.shards
                .iter()
                .enumerate()
                .map(|(k, (probe, cell))| snapshot_shard(probe, cell, k))
                .collect(),
        )
    }
}

/// One shard's panic record: which shard, the captured cause, and how many
/// restarts its supervisor had performed when last observed. Unlike the
/// single pipeline's `last_panic()`, a quarantined shard's cause survives
/// later panics on other shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    /// Shard index.
    pub shard: usize,
    /// The captured panic message.
    pub cause: String,
    /// Restarts the shard's supervisor performed.
    pub restarts: u64,
}

impl std::fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: {} ({} restart(s))",
            self.shard, self.cause, self.restarts
        )
    }
}

/// The result of [`ShardedPipeline::finish`].
#[derive(Debug)]
pub struct ShardedRun {
    /// Per-shard anomalies merged into global incidents (see
    /// [`merge_incidents`]).
    pub incidents: Vec<GlobalIncident>,
    /// The raw per-shard report sets, indexed by shard (empty after
    /// [`ShardedPipeline::finish_merged`], which moves them into
    /// `incidents`).
    pub shard_reports: Vec<Vec<AnomalyReport>>,
    /// The final global + per-shard ledgers.
    pub stats: ShardedStats,
    /// Every shard panic observed over the run, quarantines included.
    pub panics: Vec<ShardPanic>,
}

/// N supervised pipelines behind one deterministic router (see the module
/// docs for the key contract, quarantine semantics, and ledger identity).
#[derive(Debug)]
pub struct ShardedPipeline {
    collector: Collector,
    router: ShardRouter,
    shards: Vec<Shard>,
}

impl ShardedPipeline {
    /// Spawns `config.shards` supervised pipelines (each a
    /// [`RealtimeDetector::spawn`] of the per-shard config) behind a
    /// [`ShardRouter`].
    pub fn spawn(config: ShardedConfig) -> Self {
        let router = ShardRouter::new(config.shards).with_range_bits(config.range_bits);
        let shards = (0..router.shards())
            .map(|k| {
                let handle = RealtimeDetector::spawn(config.spawn_for(k));
                let probe = handle.probe();
                Shard {
                    handle: Some(handle),
                    reports: Vec::new(),
                    probe,
                    cell: Arc::new(Mutex::new(ShardCell::default())),
                    pending: VecDeque::new(),
                }
            })
            .collect();
        ShardedPipeline {
            collector: Collector::new(),
            router,
            shards,
        }
    }

    /// True while shard `k`'s detector thread is running.
    pub fn is_shard_alive(&self, k: usize) -> bool {
        self.shards[k]
            .handle
            .as_ref()
            .is_some_and(PipelineHandle::is_alive)
    }

    /// True once shard `k` has been quarantined.
    pub fn is_quarantined(&self, k: usize) -> bool {
        self.shards[k]
            .cell
            .lock()
            .expect("shard cell poisoned")
            .quarantined
    }

    /// Shards not yet quarantined.
    pub fn live_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !s.cell.lock().expect("shard cell poisoned").quarantined)
            .count()
    }

    /// Events queued on shard `k` (0 for a quarantined shard).
    pub fn queue_len(&self, k: usize) -> usize {
        self.shards[k]
            .handle
            .as_ref()
            .map_or(0, PipelineHandle::queue_len)
    }

    /// The deepest shard queue right now.
    pub fn max_queue_len(&self) -> usize {
        (0..self.shards.len())
            .map(|k| self.queue_len(k))
            .max()
            .unwrap_or(0)
    }

    /// Ingests one raw update: collector augmentation happens once at the
    /// sharded layer (the RIB is global), then its events route to their
    /// shards as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineClosed`] only when **all** shards are quarantined.
    pub fn ingest_update(
        &mut self,
        msg: &UpdateMessage,
        time: Timestamp,
    ) -> Result<(), PipelineClosed> {
        let events = self.collector.apply_update(msg, time);
        self.ingest_batch(events)
    }

    /// Ingests one already-augmented event into its shard: a batch of one
    /// (see [`ShardedPipeline::ingest_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineClosed`] only when **all** shards are quarantined;
    /// the event is still on the ledger.
    pub fn ingest_event(&mut self, event: Event) -> Result<(), PipelineClosed> {
        self.ingest_batch(std::iter::once(event))
    }

    /// Ingests already-augmented events: each is routed to its shard,
    /// keeping batch order within every shard, and each shard with events
    /// takes its share in one push — one `ingested` add, one liveness
    /// check, what fits moved under one queue lock. A shard observed
    /// dead (restart budget exhausted) is quarantined here: its handle is
    /// reaped and its share — like every later event routed to it — is
    /// counted in its `quarantine_shed`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineClosed`] only when **all** shards are quarantined;
    /// every event of the batch is still on the ledger.
    pub fn ingest_batch(
        &mut self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<(), PipelineClosed> {
        for event in events {
            let k = self.router.route_event(&event);
            self.shards[k].pending.push_back(WeightedEvent::unit(event));
        }
        let mut reaped = false;
        for k in 0..self.shards.len() {
            let shard = &mut self.shards[k];
            if shard.pending.is_empty() {
                continue;
            }
            match shard.handle.as_mut().filter(|handle| handle.is_alive()) {
                Some(handle) => {
                    if handle.push_batch(&mut shard.pending).is_ok() {
                        continue;
                    }
                    // The handle already counted the batch (ingested +
                    // shed); the death is terminal — quarantine the shard.
                    self.reap(k);
                }
                None => {
                    let routed = shard.pending.len() as u64;
                    shard.pending.clear();
                    self.reap(k);
                    self.shards[k]
                        .cell
                        .lock()
                        .expect("shard cell poisoned")
                        .quarantine_shed += routed;
                }
            }
            reaped = true;
        }
        if reaped && self.live_shards() == 0 {
            Err(PipelineClosed)
        } else {
            Ok(())
        }
    }

    /// Reaps shard `k`'s handle, if it still has one: finishes it (a live
    /// shard flushes its final window; a dead one has its stranded queued
    /// events counted as shed, its in-flight ring already counted as
    /// `lost_events` by the supervisor's give-up) and keeps its reports. A
    /// shard whose supervisor gave up — before this call or
    /// during the final drain — is quarantined: its keyspace is degraded
    /// from here on; its siblings are untouched.
    fn reap(&mut self, k: usize) {
        let shard = &mut self.shards[k];
        let Some(handle) = shard.handle.take() else {
            return;
        };
        let dead = !handle.is_alive();
        if dead {
            handle.record_transition(
                "shard-quarantine",
                &format!(
                    "shard {k}: {}",
                    handle
                        .last_panic()
                        .as_deref()
                        .unwrap_or("restart budget exhausted")
                ),
            );
        }
        let (reports, stats) = handle.finish();
        shard.reports = reports;
        // Publish the whole transition — flag, cause, final ledger — in
        // one critical section. An observer sampling concurrently sees
        // either the live ledger (the probe stays valid through `finish`)
        // or the complete reaped one, never the in-between.
        let mut cell = shard.cell.lock().expect("shard cell poisoned");
        cell.quarantined = dead || shard.probe.gave_up();
        cell.cause = shard.probe.last_panic();
        cell.stats = Some(stats);
    }

    /// Records upstream parse errors on the first shard that is still
    /// running (the global sum is what consumers read; a reaped shard's
    /// ledger is frozen).
    pub fn record_parse_errors(&self, n: usize) {
        if let Some(handle) = self.shards.iter().find_map(|s| s.handle.as_ref()) {
            handle.record_parse_errors(n);
        }
    }

    /// A live global + per-shard accounting snapshot. Called from the
    /// feeding thread, every shard's ledger — and therefore the global
    /// sum — closes at every instant, mid-restart and post-quarantine
    /// included.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats::from_snapshots(
            self.shards
                .iter()
                .enumerate()
                .map(|(k, s)| s.snapshot(k))
                .collect(),
        )
    }

    /// A thread-safe observer over the sharded ledger: a recorder or
    /// metrics thread holds one and samples [`ShardedObserver::stats`]
    /// while this pipeline keeps ingesting (and quarantining) on its own
    /// thread. Every sample closes exactly — each shard is read either
    /// from its live probe or from the complete reaped ledger published
    /// in one critical section at quarantine, never the in-between.
    pub fn observer(&self) -> ShardedObserver {
        ShardedObserver {
            shards: self
                .shards
                .iter()
                .map(|s| (s.probe.clone(), Arc::clone(&s.cell)))
                .collect(),
        }
    }

    /// Writes an operational transition marker (e.g. a source quarantine)
    /// into shard 0's recording, if shard 0 is live and recording. A no-op
    /// otherwise — transitions are diagnostics, never load-bearing.
    pub fn record_transition(&self, kind: &str, detail: &str) {
        if let Some(handle) = self.shards[0].handle.as_ref() {
            handle.record_transition(kind, detail);
        }
    }

    /// Every shard panic observed so far: live shards report their most
    /// recent cause, quarantined shards the cause captured at quarantine —
    /// a quarantine's root cause survives later panics elsewhere.
    pub fn panic_causes(&self) -> Vec<ShardPanic> {
        let mut causes = Vec::new();
        for (k, shard) in self.shards.iter().enumerate() {
            let (cause, restarts) = match &shard.handle {
                Some(handle) => (handle.last_panic(), handle.stats().restarts),
                None => {
                    let cell = shard.cell.lock().expect("shard cell poisoned");
                    (cell.cause.clone(), cell.stats.map_or(0, |s| s.restarts))
                }
            };
            if let Some(cause) = cause {
                causes.push(ShardPanic {
                    shard: k,
                    cause,
                    restarts,
                });
            }
        }
        causes
    }

    /// Ends the feed on every live shard, waits for their terminal
    /// flushes, merges the per-shard anomalies into global incidents, and
    /// returns the full run record.
    pub fn finish(self) -> ShardedRun {
        let mut run = self.finish_unmerged();
        run.incidents = merge_incidents(&run.shard_reports);
        run
    }

    /// [`ShardedPipeline::finish`] for a caller that wants only the merged
    /// incidents: the per-shard reports are *moved* through the merge — no
    /// report is cloned between a shard's queue and `incidents` — so
    /// `shard_reports` comes back empty.
    pub fn finish_merged(self) -> ShardedRun {
        let mut run = self.finish_unmerged();
        run.incidents = merge_incidents_owned(std::mem::take(&mut run.shard_reports));
        run
    }

    /// Reaps every shard into a run record whose `incidents` are still to
    /// be merged from its `shard_reports`.
    fn finish_unmerged(mut self) -> ShardedRun {
        for k in 0..self.shards.len() {
            self.reap(k);
        }
        ShardedRun {
            incidents: Vec::new(),
            stats: self.stats(),
            // After the reaps, so a give-up during the final drain is in.
            panics: self.panic_causes(),
            shard_reports: self.shards.into_iter().map(|s| s.reports).collect(),
        }
    }
}

/// A global incident: one merged report plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalIncident {
    /// The (possibly merged) report.
    pub report: AnomalyReport,
    /// Shards that contributed, ascending.
    pub shards: Vec<usize>,
    /// How many per-shard reports were coalesced (1 = passed through
    /// unchanged).
    pub merged_from: usize,
}

impl std::fmt::Display for GlobalIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.report)?;
        if self.merged_from > 1 {
            writeln!(
                f,
                "  merged from {} shard reports (shards {:?})",
                self.merged_from, self.shards
            )?;
        }
        Ok(())
    }
}

/// Merges per-shard report sets into global incidents.
///
/// Two reports coalesce when they share a stem, come from *different*
/// shards (one shard's detector already decided its own reports are
/// distinct incidents), and their time envelopes overlap. Coalescing is
/// transitive (union-find). A merged incident sums the member supports
/// (`event_count`, `prefix_count`, announce/withdraw counts), unions the
/// time envelope and the prefix sample (capped at 10), ORs `degraded`, and
/// keeps the verdict of the largest member (ties: first in shard order).
/// Singletons pass through **unchanged** — the identity the conservative-
/// merge proptest pins: for component-respecting partitions, merged
/// incidents equal the unsharded oracle's.
///
/// The result is sorted by (event count desc, start, end, stem) — a total,
/// deterministic order independent of shard interleaving.
pub fn merge_incidents(per_shard: &[Vec<AnomalyReport>]) -> Vec<GlobalIncident> {
    merge_incidents_owned(per_shard.to_vec())
}

/// [`merge_incidents`] by value: singletons are moved into their incident,
/// never cloned.
fn merge_incidents_owned(per_shard: Vec<Vec<AnomalyReport>>) -> Vec<GlobalIncident> {
    // Flatten deterministically: shard order, then emission order.
    let members: Vec<(usize, AnomalyReport)> = per_shard
        .into_iter()
        .enumerate()
        .flat_map(|(k, reports)| reports.into_iter().map(move |report| (k, report)))
        .collect();

    // Group by stem in first-seen order (stable across runs, unlike a
    // HashMap iteration).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_stem: HashMap<&str, usize> = HashMap::new();
    for (i, (_, report)) in members.iter().enumerate() {
        let g = *by_stem.entry(report.stem.as_str()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    // Equivalence classes (member indices), in first-member order.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for group in &groups {
        // Union-find within the stem group: connect different-shard
        // members with overlapping envelopes.
        let mut parent: Vec<usize> = (0..group.len()).collect();
        for a in 0..group.len() {
            for b in (a + 1)..group.len() {
                let (shard_a, ra) = &members[group[a]];
                let (shard_b, rb) = &members[group[b]];
                if shard_a != shard_b && ra.start <= rb.end && rb.start <= ra.end {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra.max(rb)] = ra.min(rb);
                    }
                }
            }
        }
        let mut class_of: HashMap<usize, usize> = HashMap::new();
        for (i, &member) in group.iter().enumerate() {
            let root = find(&mut parent, i);
            let c = *class_of.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[c].push(member);
        }
    }

    let mut members: Vec<Option<(usize, AnomalyReport)>> = members.into_iter().map(Some).collect();
    let mut incidents: Vec<GlobalIncident> = classes
        .iter()
        .map(|class| {
            merge_class(
                class
                    .iter()
                    .map(|&i| members[i].take().expect("one class per member"))
                    .collect(),
            )
        })
        .collect();

    incidents.sort_by(|a, b| {
        b.report
            .event_count
            .cmp(&a.report.event_count)
            .then(a.report.start.cmp(&b.report.start))
            .then(a.report.end.cmp(&b.report.end))
            .then(a.report.stem.cmp(&b.report.stem))
    });
    incidents
}

/// Path-compressing union-find lookup.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Merges one equivalence class of same-stem `(shard, report)` members. A
/// singleton passes through bit-identically.
fn merge_class(mut class: Vec<(usize, AnomalyReport)>) -> GlobalIncident {
    let mut shards: Vec<usize> = class.iter().map(|(shard, _)| *shard).collect();
    shards.sort_unstable();
    shards.dedup();
    if class.len() == 1 {
        let (_, report) = class.pop().expect("singleton class");
        return GlobalIncident {
            report,
            shards,
            merged_from: 1,
        };
    }
    // Base: the largest member (ties: first in shard/emission order) keeps
    // its verdict and common portion.
    let mut base = 0;
    for (i, (_, report)) in class.iter().enumerate().skip(1) {
        if report.event_count > class[base].1.event_count {
            base = i;
        }
    }
    let mut merged = class[base].1.clone();
    merged.event_count = 0;
    merged.prefix_count = 0;
    merged.announce_count = 0;
    merged.withdraw_count = 0;
    merged.sample_prefixes = Vec::new();
    merged.degraded = false;
    merged.igp_nearby = None;
    for (_, report) in &class {
        merged.event_count += report.event_count;
        merged.prefix_count += report.prefix_count;
        merged.announce_count += report.announce_count;
        merged.withdraw_count += report.withdraw_count;
        merged.start = merged.start.min(report.start);
        merged.end = merged.end.max(report.end);
        merged.degraded |= report.degraded;
        merged.igp_nearby = match (merged.igp_nearby, report.igp_nearby) {
            (None, nearby) => nearby,
            (nearby, None) => nearby,
            (Some(a), Some(b)) => Some(a + b),
        };
        for prefix in &report.sample_prefixes {
            if merged.sample_prefixes.len() >= 10 {
                break;
            }
            if !merged.sample_prefixes.contains(prefix) {
                merged.sample_prefixes.push(prefix.clone());
            }
        }
    }
    GlobalIncident {
        report: merged,
        shards,
        merged_from: class.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{AnomalyKind, Verdict};
    use crate::pipeline::{PipelineConfig, ReportPolicy, SupervisorConfig};
    use crate::replay::{RecorderConfig, Replay};
    use bgpscope_bgp::PathAttributes;
    use bgpscope_bgp::RouterId;
    use std::time::Duration;

    fn withdraw_event(secs: u64, peer_octet: u8, prefix_octet: u8) -> Event {
        Event::withdraw(
            Timestamp::from_secs(secs),
            PeerId::from_octets(10, peer_octet, 0, 1),
            Prefix::from_octets(40, prefix_octet, 0, 0, 16),
            PathAttributes::new(
                RouterId::from_octets(2, 2, 2, 2),
                "11423 209".parse().unwrap(),
            ),
        )
    }

    fn small_pipeline() -> PipelineConfig {
        PipelineConfig {
            window: Timestamp::from_secs(300),
            min_events: 5,
            min_component_events: 4,
            ..PipelineConfig::default()
        }
    }

    fn report(stem: &str, start: u64, end: u64, events: usize) -> AnomalyReport {
        AnomalyReport {
            verdict: Verdict {
                kind: AnomalyKind::SessionReset,
                confidence: 0.9,
                notes: Vec::new(),
            },
            stem: stem.to_owned(),
            common_portion: format!("{stem}-x"),
            event_count: events,
            prefix_count: events,
            sample_prefixes: vec![format!("10.{events}.0.0/16")],
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
            announce_count: 0,
            withdraw_count: events,
            igp_nearby: None,
            degraded: false,
        }
    }

    #[test]
    fn router_is_deterministic_and_total() {
        let router = ShardRouter::new(4).with_range_bits(16);
        let peer = PeerId::from_octets(10, 1, 0, 1);
        let prefix = Prefix::from_octets(40, 7, 0, 0, 16);
        let shard = router.route(peer, prefix);
        assert!(shard < 4);
        assert_eq!(shard, router.route(peer, prefix), "routing must be stable");
        // Same (peer, range) key — different low bits — co-locates.
        assert_eq!(
            shard,
            router.route(peer, Prefix::from_octets(40, 7, 99, 0, 24)),
            "equal keys must co-locate"
        );
        // Every shard is reachable across the keyspace.
        let mut hit = vec![false; 4];
        for p in 0..=255u8 {
            for q in 0..8u8 {
                hit[router.route(
                    PeerId::from_octets(10, q, 0, 1),
                    Prefix::from_octets(p, 0, 0, 0, 8),
                )] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "some shard is unreachable: {hit:?}");
        // range_bits 0 routes by peer alone (and must not shift-overflow).
        let by_peer = ShardRouter::new(3).with_range_bits(0);
        assert_eq!(
            by_peer.route(peer, prefix),
            by_peer.route(peer, Prefix::from_octets(200, 1, 2, 3, 32))
        );
    }

    #[test]
    fn sharded_ledger_is_sum_of_shard_ledgers() {
        let config = ShardedConfig::new(3, SpawnConfig::new(small_pipeline())).with_range_bits(16);
        let mut pipeline = ShardedPipeline::spawn(config);
        for i in 0..600u64 {
            pipeline
                .ingest_event(withdraw_event(i, (i % 5) as u8, (i % 11) as u8))
                .unwrap();
            if i % 97 == 0 {
                let live = pipeline.stats();
                assert!(live.accounts_exactly(), "mid-run ledger broken: {live}");
            }
        }
        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        assert!(run.stats.reports_account_exactly(), "{}", run.stats);
        assert_eq!(run.stats.global.ingested, 600);
        assert_eq!(run.stats.global.queued, 0, "{}", run.stats);
        assert_eq!(run.stats.shards.len(), 3);
        assert!(run.stats.quarantined_shards().is_empty());
        assert!(run.panics.is_empty());
        // Several (peer, range) keys → more than one shard saw traffic.
        assert!(
            run.stats
                .shards
                .iter()
                .filter(|s| s.stats.ingested > 0)
                .count()
                > 1,
            "routing sent everything to one shard: {}",
            run.stats
        );
    }

    /// A batch is routed exactly as its events would be one at a time:
    /// every shard sees the same events in the same order, so ledgers and
    /// merged incidents are equal.
    #[test]
    fn ingest_batch_routes_like_event_by_event() {
        let events: Vec<Event> = (0..600u64)
            .map(|i| withdraw_event(i, (i % 5) as u8, (i % 11) as u8))
            .collect();
        let run = |batch: usize| {
            let config =
                ShardedConfig::new(3, SpawnConfig::new(small_pipeline())).with_range_bits(16);
            let mut pipeline = ShardedPipeline::spawn(config);
            for chunk in events.chunks(batch) {
                pipeline.ingest_batch(chunk.iter().cloned()).unwrap();
            }
            pipeline.finish_merged()
        };
        let (one, batched) = (run(1), run(37));
        assert!(batched.stats.accounts_exactly(), "{}", batched.stats);
        assert_eq!(batched.incidents, one.incidents);
        assert!(!one.incidents.is_empty());
        for (b, o) in batched.stats.shards.iter().zip(&one.stats.shards) {
            assert_eq!(b.stats.ingested, o.stats.ingested);
            assert_eq!(b.stats.analyzed, o.stats.analyzed);
        }
    }

    /// A shard is not a subscriber: whatever report bound and policy the
    /// template asks for, a sharded run delivers every report its shards'
    /// detectors emit, so its incidents are those of one synchronous
    /// detector per shard fed the same routed events, run after run.
    #[test]
    fn sharded_run_keeps_every_report_whatever_the_template_report_bound() {
        let mut feed = Vec::new();
        for w in 0..6u64 {
            for i in 0..10u8 {
                for p in 0..4u8 {
                    feed.push(Event::withdraw(
                        Timestamp::from_secs(w * 300 + 4 * u64::from(i) + u64::from(p)),
                        PeerId::from_octets(10, p, 0, 1),
                        Prefix::from_octets(40, i, 0, 0, 16),
                        PathAttributes::new(
                            RouterId::from_octets(2, 2, 2, 2),
                            format!("11423 209 {}", 700 + u32::from(p)).parse().unwrap(),
                        ),
                    ));
                }
            }
        }
        for shards in [1, 2] {
            let router = ShardRouter::new(shards).with_range_bits(16);
            let mut detectors: Vec<RealtimeDetector> = (0..shards)
                .map(|_| RealtimeDetector::new(small_pipeline()))
                .collect();
            let mut oracle: Vec<Vec<AnomalyReport>> = vec![Vec::new(); shards];
            for event in &feed {
                let k = router.route_event(event);
                oracle[k].extend(detectors[k].ingest_event(event.clone()));
            }
            for (k, detector) in detectors.into_iter().enumerate() {
                oracle[k].extend(detector.finish());
            }
            // One report per window on every shard.
            assert_eq!(oracle.iter().map(Vec::len).sum::<usize>(), 6 * shards);
            let expected = merge_incidents(&oracle);
            for attempt in 0..10 {
                let template = SpawnConfig::new(small_pipeline())
                    .with_report_capacity(1)
                    .with_report_policy(ReportPolicy::Digest);
                let mut pipeline = ShardedPipeline::spawn(
                    ShardedConfig::new(shards, template).with_range_bits(16),
                );
                for event in &feed {
                    pipeline.ingest_event(event.clone()).unwrap();
                }
                let run = pipeline.finish();
                let global = run.stats.global;
                assert_eq!(
                    (global.reports_digested, global.report_shed),
                    (0, 0),
                    "{shards} shard(s), run {attempt}: {}",
                    run.stats
                );
                assert_eq!(
                    run.incidents, expected,
                    "{shards} shard(s), run {attempt}: {} of {} reports delivered",
                    global.reports_delivered, global.reports_emitted
                );
            }
        }
    }

    #[test]
    fn quarantined_shard_is_isolated_and_accounted() {
        // The (200, 200) key routes to shard 0, where parse errors are
        // recorded while it runs: quarantining it checks they move on.
        let peer = PeerId::from_octets(10, 200, 0, 1);
        let prefix = Prefix::from_octets(40, 200, 0, 0, 16);
        let config = ShardedConfig::new(2, {
            SpawnConfig::new(PipelineConfig {
                min_events: 1_000_000, // no analysis: pure supervision
                ..small_pipeline()
            })
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(8)
                    .with_max_restarts(1)
                    .with_backoff(Duration::from_millis(1)),
            )
        })
        .with_range_bits(16);
        let target = ShardRouter::new(2).with_range_bits(16).route(peer, prefix);
        assert_eq!(target, 0);
        let sibling = 1 - target;
        let config = config.with_shard_fault(
            target,
            PanicInjection {
                after_events: 10,
                repeat: u32::MAX,
            },
        );
        let mut pipeline = ShardedPipeline::spawn(config);
        // Feed both shards until the target quarantines; every ingest must
        // keep succeeding (the sibling is alive).
        let mut i = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !pipeline.is_quarantined(target) {
            assert!(
                std::time::Instant::now() < deadline,
                "target shard never quarantined"
            );
            pipeline
                .ingest_event(withdraw_event(i, 1, 7))
                .expect("sibling alive: ingest must succeed");
            pipeline
                .ingest_event(withdraw_event(i, 200, 200))
                .expect("sibling alive");
            i += 1;
            let live = pipeline.stats();
            assert!(live.accounts_exactly(), "mid-run ledger broken: {live}");
        }
        assert!(pipeline.is_shard_alive(sibling), "sibling must survive");
        // Post-quarantine traffic to the dead keyspace is counted, not an
        // error.
        for j in 0..50u64 {
            pipeline
                .ingest_event(withdraw_event(i + j, 200, 200))
                .unwrap();
        }
        // ... and parse errors land on a shard that still keeps a ledger.
        pipeline.record_parse_errors(3);
        let causes = pipeline.panic_causes();
        assert_eq!(causes.len(), 1, "{causes:?}");
        assert_eq!(causes[0].shard, target);
        assert!(causes[0].cause.contains("injected"), "{causes:?}");
        assert_eq!(causes[0].restarts, 2, "max_restarts + the last straw");

        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        assert_eq!(run.stats.global.parse_errors, 3, "{}", run.stats);
        assert_eq!(run.stats.quarantined_shards(), vec![target]);
        let target_snap = run.stats.shards[target];
        assert!(target_snap.quarantined);
        assert!(target_snap.quarantine_shed >= 50, "{}", run.stats);
        assert!(
            target_snap.stats.lost_events <= 8,
            "loss bound broken: {}",
            run.stats
        );
        assert_eq!(target_snap.stats.queued, 0, "{}", run.stats);
        let sibling_snap = run.stats.shards[sibling];
        assert_eq!(sibling_snap.stats.restarts, 0, "sibling restarted");
        assert_eq!(sibling_snap.stats.lost_events, 0, "sibling lost events");
        assert_eq!(sibling_snap.stats.shed_events, 0, "sibling shed");
        assert_eq!(run.panics.len(), 1);
        assert_eq!(run.panics[0].shard, target);
    }

    #[test]
    fn all_shards_quarantined_closes_the_pipeline() {
        let config = ShardedConfig::new(1, {
            SpawnConfig::new(PipelineConfig {
                min_events: 1_000_000,
                ..small_pipeline()
            })
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(8)
                    .with_max_restarts(0)
                    .with_backoff(Duration::from_millis(1)),
            )
        })
        .with_shard_fault(
            0,
            PanicInjection {
                after_events: 5,
                repeat: u32::MAX,
            },
        );
        let mut pipeline = ShardedPipeline::spawn(config);
        let mut closed = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        for i in 0..1_000_000u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "single shard never quarantined"
            );
            if pipeline.ingest_event(withdraw_event(i, 1, 1)).is_err() {
                closed = true;
                break;
            }
        }
        assert!(closed, "a fully quarantined pipeline must report closed");
        assert_eq!(pipeline.live_shards(), 0);
        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        assert_eq!(run.stats.quarantined_shards(), vec![0]);
    }

    /// Per-shard recordings: N shards record to `<path>.shard<k>` without
    /// clobbering, and each replays to its own shard's final ledger.
    #[test]
    fn per_shard_recordings_do_not_clobber_and_replay() {
        let base = std::env::temp_dir().join(format!(
            "bgpscope-sharded-recording-test-{}.rec",
            std::process::id()
        ));
        let config = ShardedConfig::new(
            2,
            SpawnConfig::new(small_pipeline())
                .with_supervisor(SupervisorConfig::default().with_checkpoint_interval(4))
                .with_recorder(RecorderConfig::new(base.clone())),
        )
        .with_range_bits(16);
        let mut pipeline = ShardedPipeline::spawn(config);
        for i in 0..400u64 {
            pipeline
                .ingest_event(withdraw_event(i, (i % 7) as u8, (i % 13) as u8))
                .unwrap();
        }
        let run = pipeline.finish();
        assert!(!base.exists(), "base path written");
        for (k, snap) in run.stats.shards.iter().enumerate() {
            assert!(snap.stats.checkpoints > 0, "shard {k} never checkpointed");
            let path = format!("{}.shard{k}", base.display());
            let mut replay =
                Replay::load(&path).unwrap_or_else(|e| panic!("shard {k} recording: {e}"));
            replay.to_end().expect("replay to end");
            // The recording is per-shard state, not a clobbered global: it
            // replays to this shard's own final ledger, so two shards'
            // recordings cannot have overwritten each other.
            assert_eq!(replay.stats(), snap.stats, "shard {k}");
            let _ = std::fs::remove_file(&path);
            let mut seg = 0;
            while std::fs::remove_file(format!("{path}.seg{seg}")).is_ok() {
                seg += 1;
            }
        }
    }

    #[test]
    fn sharded_to_json_extends_the_flat_schema() {
        let config = ShardedConfig::new(2, SpawnConfig::new(small_pipeline()));
        let mut pipeline = ShardedPipeline::spawn(config);
        for i in 0..20u64 {
            pipeline
                .ingest_event(withdraw_event(i, (i % 3) as u8, (i % 5) as u8))
                .unwrap();
        }
        let run = pipeline.finish();
        let json = run.stats.to_json();
        // The flat PipelineStats schema survives in declaration order …
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
            // … and the sharded extension *appends*.
            "shards",
            "quarantined_shards",
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
        // The shards array nests full per-shard ledgers.
        assert!(json.contains("\"shard\":0"), "{json}");
        assert!(json.contains("\"shard\":1"), "{json}");
        assert!(json.contains("\"quarantined\":false"), "{json}");
        assert!(json.matches("\"ingested\"").count() >= 3, "{json}");
        assert!(json.ends_with("\"quarantined_shards\":[]}"), "{json}");
        // The whole document, byte for byte: one live shard, one
        // quarantined.
        let ledger = |ingested, shed| PipelineStats {
            ingested,
            analyzed: ingested - shed,
            shed_events: shed,
            ..PipelineStats::default()
        };
        let pinned = ShardedStats::from_snapshots(vec![
            ShardSnapshot {
                shard: 0,
                quarantined: false,
                quarantine_shed: 0,
                stats: ledger(7, 0),
            },
            ShardSnapshot {
                shard: 1,
                quarantined: true,
                quarantine_shed: 2,
                stats: ledger(5, 2),
            },
        ]);
        let zeros = "\"dropped_events\":0,\"carry_forward_evictions\":0,\"degraded_windows\":0,\
            \"clamped_events\":0,\"parse_errors\":0,\"carried\":0,\"queued\":0,\"restarts\":0,\
            \"checkpoints\":0,\"replayed_events\":0,\"replayed_in_flight\":0,\"lost_events\":0,\
            \"reports_emitted\":0,\"reports_delivered\":0,\"report_shed\":0,\
            \"reports_digested\":0,\"coalesced_events\":0,\"fidelity_level\":0";
        assert_eq!(
            pinned.to_json(),
            format!(
                "{{\"ingested\":12,\"analyzed\":10,\"shed_events\":2,{zeros},\"shards\":[\
                 {{\"shard\":0,\"quarantined\":false,\"quarantine_shed\":0,\"stats\":\
                 {{\"ingested\":7,\"analyzed\":7,\"shed_events\":0,{zeros}}}}},\
                 {{\"shard\":1,\"quarantined\":true,\"quarantine_shed\":2,\"stats\":\
                 {{\"ingested\":5,\"analyzed\":3,\"shed_events\":2,{zeros}}}}}],\
                 \"quarantined_shards\":[1]}}"
            )
        );
    }

    #[test]
    fn merge_coalesces_equal_stems_across_shards() {
        let per_shard = vec![
            vec![report("666-7007", 100, 200, 30)],
            vec![report("666-7007", 150, 260, 20)],
        ];
        let incidents = merge_incidents(&per_shard);
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        let merged = &incidents[0];
        assert_eq!(merged.merged_from, 2);
        assert_eq!(merged.shards, vec![0, 1]);
        assert_eq!(merged.report.event_count, 50, "support must sum");
        assert_eq!(merged.report.start, Timestamp::from_secs(100));
        assert_eq!(merged.report.end, Timestamp::from_secs(260));
        // The larger member's verdict wins.
        assert_eq!(merged.report.verdict.kind, AnomalyKind::SessionReset);
    }

    #[test]
    fn merge_keeps_same_shard_and_disjoint_incidents_apart() {
        // Same stem on the *same* shard: that shard already decided these
        // are two incidents — the merge must not second-guess it.
        let per_shard = vec![vec![report("a-b", 0, 10, 5), report("a-b", 5, 15, 5)]];
        assert_eq!(merge_incidents(&per_shard).len(), 2);
        // Same stem, different shards, *disjoint* envelopes: different
        // incidents.
        let per_shard = vec![
            vec![report("a-b", 0, 10, 5)],
            vec![report("a-b", 100, 110, 5)],
        ];
        assert_eq!(merge_incidents(&per_shard).len(), 2);
        // Different stems never merge.
        let per_shard = vec![vec![report("a-b", 0, 10, 5)], vec![report("c-d", 0, 10, 5)]];
        assert_eq!(merge_incidents(&per_shard).len(), 2);
    }

    #[test]
    fn merge_singletons_pass_through_bit_identical() {
        let original = report("a-b", 3, 9, 7);
        let incidents = merge_incidents(&[vec![original.clone()]]);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].report, original);
        assert_eq!(incidents[0].merged_from, 1);
        assert_eq!(incidents[0].shards, vec![0]);
    }

    #[test]
    fn merge_is_transitive_across_three_shards() {
        // a overlaps b, b overlaps c, a does not overlap c: one incident.
        let per_shard = vec![
            vec![report("a-b", 0, 10, 5)],
            vec![report("a-b", 8, 20, 6)],
            vec![report("a-b", 18, 30, 7)],
        ];
        let incidents = merge_incidents(&per_shard);
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        assert_eq!(incidents[0].merged_from, 3);
        assert_eq!(incidents[0].shards, vec![0, 1, 2]);
        assert_eq!(incidents[0].report.event_count, 18);
        assert_eq!(incidents[0].report.start, Timestamp::from_secs(0));
        assert_eq!(incidents[0].report.end, Timestamp::from_secs(30));
    }
}
