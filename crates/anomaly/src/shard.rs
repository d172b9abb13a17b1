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
//! A shard's [`ShardSnapshot::health`] moves as an ingest source's does: a
//! restart degrades it, its next incarnation's first checkpoint recovers
//! it, and the shard is **quarantined** the moment its supervisor exhausts
//! its [`SupervisorConfig::restart`] budget — which does *not* close the
//! sharded pipeline. Its in-flight ring is already counted as that shard's
//! `lost_events`; the next time the producer routes there, the events
//! stranded in its queue are counted as shed, and every event routed to it
//! from then on is counted in [`ShardSnapshot::quarantine_shed`] (folded
//! into the shard's `ingested`/`shed_events`, never silently discarded).
//! Only when *all* shards are quarantined does ingest return
//! [`PipelineClosed`].
//!
//! A shard is its handle: the health, the panic cause, the restart count and
//! the ledger are read from the handle's [`StatsProbe`], which outlives
//! the handle, so a sample from any thread — before, during or after a
//! quarantine or `finish` — reads one source and closes exactly.
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
//! [`SupervisorConfig::restart`]: crate::pipeline::SupervisorConfig::restart

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use bgpscope_bgp::probe::ProbeMap;
use bgpscope_bgp::{Event, PeerId, Prefix, Timestamp, UpdateMessage};
use bgpscope_collector::Collector;

use crate::pipeline::{
    PanicInjection, PipelineClosed, PipelineHandle, PipelineStats, RealtimeDetector, SpawnConfig,
    StatsProbe, WeightedEvent,
};
use crate::report::AnomalyReport;
use crate::supervision::Health;

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
    /// so shards never clobber each other's files. Its report bound does
    /// not apply: a shard is not a subscriber, so every shard's report
    /// queue is unbounded and is read once, when the shard finishes.
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

/// One shard: its handle, the reused buffer its share of a batch is
/// routed into, and the count of events routed to it after quarantine
/// (shared with every [`ShardedObserver`]).
#[derive(Debug)]
struct Shard {
    handle: PipelineHandle,
    /// This shard's events of the batch being ingested, in batch order;
    /// empty between batches.
    pending: VecDeque<WeightedEvent>,
    quarantine_shed: Arc<AtomicU64>,
}

impl Shard {
    fn snapshot(&self, shard: usize) -> ShardSnapshot {
        snapshot_shard(&self.handle.probe(), &self.quarantine_shed, shard)
    }
}

/// Samples one shard's snapshot from its probe, from any thread: the
/// probe's ledger closes, and the post-quarantine shed read after it is
/// folded into `ingested` and `shed_events` alike.
fn snapshot_shard(probe: &StatsProbe, quarantine_shed: &AtomicU64, shard: usize) -> ShardSnapshot {
    let mut stats = probe.stats();
    let quarantine_shed = quarantine_shed.load(Ordering::Acquire);
    stats.ingested += quarantine_shed;
    stats.shed_events += quarantine_shed;
    ShardSnapshot {
        shard,
        health: probe.health(),
        quarantine_shed,
        stats,
    }
}

/// One shard's contribution to a [`ShardedStats`] snapshot.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// The shard's supervision health (see the module docs); once
    /// Quarantined, its keyspace is degraded.
    pub health: Health,
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
            .filter(|s| s.health == Health::Quarantined)
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
            write!(f, "shard {}", snap.shard)?;
            if snap.health != Health::Healthy {
                write!(f, " [{}]", snap.health)?;
            }
            writeln!(
                f,
                ": ingested {} analyzed {} shed {} dropped {} lost {} restarts {}",
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
/// post-quarantine shed count, so a sample never touches the pipeline
/// itself — safe to hammer from a recorder or metrics thread while the
/// owning thread ingests, restarts, and quarantines.
#[derive(Debug, Clone)]
pub struct ShardedObserver {
    shards: Vec<(StatsProbe, Arc<AtomicU64>)>,
}

impl ShardedObserver {
    /// A consistent global + per-shard snapshot, from any thread. Each
    /// shard's ledger closes exactly on every sample: the probe reads the
    /// supervisor's side under its mutex before the producer's counters,
    /// so a counter bumped in between only grows the derived `queued`.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats::from_snapshots(
            self.shards
                .iter()
                .enumerate()
                .map(|(k, (probe, shed))| snapshot_shard(probe, shed, k))
                .collect(),
        )
    }

    /// Every shard's most recent panic, with its restart count.
    fn panic_causes(&self) -> Vec<ShardPanic> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(shard, (probe, _))| {
                Some(ShardPanic {
                    shard,
                    cause: probe.last_panic()?,
                    restarts: probe.stats().restarts,
                })
            })
            .collect()
    }
}

/// One shard's panic record: which shard, the captured cause, and how many
/// restarts its supervisor had performed when last observed. Each shard
/// keeps its own cause, so a quarantine's survives later panics on other
/// shards.
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
            .map(|k| Shard {
                handle: RealtimeDetector::spawn(config.spawn_for(k)),
                pending: VecDeque::new(),
                quarantine_shed: Arc::default(),
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
        self.shards[k].handle.is_alive()
    }

    /// True once shard `k` has been quarantined: its supervisor gave up.
    pub fn is_quarantined(&self, k: usize) -> bool {
        self.shards[k].handle.gave_up()
    }

    /// Shards not yet quarantined.
    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|s| !s.handle.gave_up()).count()
    }

    /// Events in shard `k`'s channel (for a quarantined shard, those
    /// stranded there until the producer next routes to it).
    pub fn queue_len(&self, k: usize) -> usize {
        self.shards[k].handle.queue_len()
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
    /// check, what fits moved under one queue lock. A quarantined shard's
    /// share is counted in its `quarantine_shed`, and what its supervisor
    /// left queued when it gave up is counted as shed.
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
        let mut quarantined = false;
        for shard in &mut self.shards {
            if shard.pending.is_empty()
                || !shard.handle.gave_up() && shard.handle.push_batch(&mut shard.pending).is_ok()
            {
                continue;
            }
            // The supervisor gave up (a push it failed already counted its
            // batch as ingested + shed, and left `pending` empty).
            shard.handle.shed_stranded();
            shard
                .quarantine_shed
                .fetch_add(shard.pending.len() as u64, Ordering::AcqRel);
            shard.pending.clear();
            quarantined = true;
        }
        if quarantined && self.live_shards() == 0 {
            Err(PipelineClosed)
        } else {
            Ok(())
        }
    }

    /// Records upstream parse errors on shard 0's ledger (the global sum
    /// is what consumers read; a quarantined shard keeps its ledger).
    pub fn record_parse_errors(&self, n: usize) {
        self.shards[0].handle.record_parse_errors(n);
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
    /// thread. Every sample closes exactly, through quarantines and after
    /// `finish`: each shard is read from its probe alone.
    pub fn observer(&self) -> ShardedObserver {
        ShardedObserver {
            shards: self
                .shards
                .iter()
                .map(|s| (s.handle.probe(), Arc::clone(&s.quarantine_shed)))
                .collect(),
        }
    }

    /// Writes an operational transition marker (e.g. a source quarantine)
    /// into shard 0's recording. A no-op when the run is not recorded —
    /// transitions are diagnostics, never load-bearing.
    pub fn record_transition(&self, kind: &str, detail: &str) {
        self.shards[0].handle.record_transition(kind, detail);
    }

    /// Every shard panic observed so far: each shard's most recent cause,
    /// so a quarantine's root cause survives later panics elsewhere.
    pub fn panic_causes(&self) -> Vec<ShardPanic> {
        self.observer().panic_causes()
    }

    /// Ends the feed on every shard, waits for their terminal
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

    /// Finishes every shard into a run record whose `incidents` are still
    /// to be merged from its `shard_reports`.
    fn finish_unmerged(self) -> ShardedRun {
        let observer = self.observer();
        let shard_reports = self
            .shards
            .into_iter()
            .map(|shard| shard.handle.finish().0)
            .collect();
        // Read after the finishes, so a give-up during the final drain is in.
        ShardedRun {
            incidents: Vec::new(),
            stats: observer.stats(),
            panics: observer.panic_causes(),
            shard_reports,
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
///
/// O(n log n) in the reports: each stem group is joined by one sort and a
/// sweep (`join_overlapping`), and the incidents are built in their sorted
/// places.
pub fn merge_incidents(per_shard: &[Vec<AnomalyReport>]) -> Vec<GlobalIncident> {
    merge_incidents_owned(per_shard.to_vec())
}

/// [`merge_incidents`] by value: singletons are moved into their incident,
/// never cloned.
fn merge_incidents_owned(per_shard: Vec<Vec<AnomalyReport>>) -> Vec<GlobalIncident> {
    // Flatten deterministically: shard order, then emission order. Each
    // report is moved once more, into its incident.
    let mut members: Vec<Option<(usize, AnomalyReport)>> = per_shard
        .into_iter()
        .enumerate()
        .flat_map(|(k, reports)| reports.into_iter().map(move |report| Some((k, report))))
        .collect();

    let (classes, order) = {
        let member = |i: usize| members[i].as_ref().expect("no member is taken yet");

        // Group by stem in first-seen order (stable across runs, unlike a
        // HashMap iteration).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_stem: ProbeMap<&str, usize> = ProbeMap::new();
        for i in 0..members.len() {
            let g = by_stem.get_or_insert_with(&member(i).1.stem.as_str(), || {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }

        // Equivalence classes (member indices), in first-member order.
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for group in &groups {
            let spans: Vec<Span> = group
                .iter()
                .map(|&i| {
                    let (shard, report) = member(i);
                    (*shard, report.start, report.end)
                })
                .collect();
            let mut parent = join_overlapping(&spans);
            // Root (a group position) → its class.
            let mut class_of = vec![usize::MAX; group.len()];
            for (i, &m) in group.iter().enumerate() {
                let root = find(&mut parent, i);
                if class_of[root] == usize::MAX {
                    class_of[root] = classes.len();
                    classes.push(Vec::new());
                }
                classes[class_of[root]].push(m);
            }
        }

        // Sorted by (event count desc, start, end, stem), ties in class
        // order. A merged incident sums its members' counts and spans their
        // envelopes, so the keys come from the members, and each incident is
        // built in its place: the classes are sorted, not the incidents.
        let mut order: Vec<(Reverse<usize>, Timestamp, Timestamp, usize)> = classes
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let reports = || class.iter().map(|&i| &member(i).1);
                let events = reports().map(|report| report.event_count).sum();
                let start = reports().map(|report| report.start).min();
                let end = reports().map(|report| report.end).max();
                let (start, end) = start.zip(end).expect("a class has a member");
                (Reverse(events), start, end, c)
            })
            .collect();
        let stem = |c: usize| member(classes[c][0]).1.stem.as_str();
        order.sort_unstable_by(|a, b| {
            (a.0, a.1, a.2)
                .cmp(&(b.0, b.1, b.2))
                .then_with(|| stem(a.3).cmp(stem(b.3)))
                .then(a.3.cmp(&b.3))
        });
        (classes, order)
    };

    let mut take = |i: usize| members[i].take().expect("one class per member");
    order
        .into_iter()
        .map(|(.., c)| match classes[c][..] {
            [only] => {
                let (shard, report) = take(only);
                GlobalIncident {
                    report,
                    shards: vec![shard],
                    merged_from: 1,
                }
            }
            ref class => merge_class(class.iter().map(|&i| take(i)).collect()),
        })
        .collect()
}

/// A stem group member's shard and envelope: `(shard, start, end)`.
type Span = (usize, Timestamp, Timestamp);

/// Union-find over one stem group, given its members' spans: joins every
/// two members from different shards whose envelopes overlap, and returns
/// the parent links, indexed like `spans`.
///
/// One sort by start and a sweep, O(g log g) in the group's size. Sorted
/// by start, a member overlaps exactly the earlier members that have not
/// ended before it starts — the active ones — and is joined to those of
/// other shards. Once joined, a shard's
/// active members are one class, and a later member overlaps one of them
/// if and only if it overlaps the one that ends last: only that one stays
/// active. A group from one shard joins nothing. Envelopes are ordered
/// (`start <= end`), as every report a detector makes has them.
fn join_overlapping(spans: &[Span]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..spans.len()).collect();
    let (shard, start, end) = (
        |i: usize| spans[i].0,
        |i: usize| spans[i].1,
        |i: usize| spans[i].2,
    );
    if (1..spans.len()).all(|i| shard(i) == shard(0)) {
        return parent;
    }
    let mut by_start: Vec<usize> = (0..spans.len()).collect();
    by_start.sort_by_key(|&i| start(i));
    // Per shard met so far: its active members.
    let mut active: Vec<(usize, Vec<usize>)> = Vec::new();
    for i in by_start {
        for (other, live) in &mut active {
            if *other == shard(i) {
                continue;
            }
            live.retain(|&j| end(j) >= start(i));
            let Some(&last) = live.iter().max_by_key(|&&j| end(j)) else {
                continue;
            };
            for &j in live.iter() {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
            live.clear();
            live.push(last);
        }
        match active.iter_mut().find(|(other, _)| *other == shard(i)) {
            Some((_, live)) => live.push(i),
            None => active.push((shard(i), vec![i])),
        }
    }
    parent
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
    use crate::pipeline::{PipelineConfig, SupervisorConfig};
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

    /// A shard is not a subscriber: whatever report bound the template asks
    /// for, a sharded run delivers every report its shards' detectors emit,
    /// so its incidents are those of one synchronous detector per shard fed
    /// the same routed events, run after run. A shard that honoured the
    /// template's bound of one would park in egress at its second report,
    /// its ingest queue of eight would fill, and the producer would wait
    /// forever — so the feed runs on its own thread under a deadline, and
    /// that failure is an assertion rather than a hang.
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
                    .with_capacity(8)
                    .with_report_capacity(1);
                let mut pipeline = ShardedPipeline::spawn(
                    ShardedConfig::new(shards, template).with_range_bits(16),
                );
                let events = feed.clone();
                let (done, run) = crossbeam::channel::bounded(1);
                std::thread::spawn(move || {
                    for event in events {
                        pipeline.ingest_event(event).unwrap();
                    }
                    let _ = done.send(pipeline.finish());
                });
                let run = match run.recv_timeout(Duration::from_secs(30)) {
                    Ok(run) => run,
                    Err(e) => {
                        panic!("{shards} shard(s), run {attempt}: feed did not finish: {e:?}")
                    }
                };
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
        // recorded: quarantining it checks a quarantined shard's ledger
        // still counts them.
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
        // ... and parse errors still land on the ledger.
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
        assert_eq!(target_snap.health, Health::Quarantined);
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

    /// The probe is the one home of a shard's supervision state: the
    /// moment shard 1's supervisor gives up — before the producer routes
    /// anything more — every view of the pipeline reads the quarantine,
    /// the cause and the restart count the probe reads.
    #[test]
    fn quarantine_shows_at_give_up_in_every_view_as_the_probe_reads_it() {
        let router = ShardRouter::new(2).with_range_bits(16);
        let key = (0..=255u8)
            .find(|&k| router.route_event(&withdraw_event(0, k, k)) == 1)
            .expect("some key routes to shard 1");
        let config = ShardedConfig::new(2, {
            SpawnConfig::new(PipelineConfig {
                min_events: 1_000_000,
                ..small_pipeline()
            })
            .with_supervisor(SupervisorConfig::default().with_max_restarts(0))
        })
        .with_range_bits(16)
        .with_shard_fault(
            1,
            PanicInjection {
                after_events: 5,
                repeat: u32::MAX,
            },
        );
        let mut pipeline = ShardedPipeline::spawn(config);
        let probe = pipeline.shards[1].handle.probe();
        for i in 0..5u64 {
            pipeline.ingest_event(withdraw_event(i, key, key)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pipeline.is_shard_alive(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "shard 1's supervisor never gave up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(probe.health(), Health::Quarantined);
        let cause = probe.last_panic().expect("the injected panic is recorded");
        assert!(cause.contains("injected"), "{cause}");
        let restarts = probe.stats().restarts;
        assert_eq!(restarts, 1, "max_restarts + the last straw");

        // No event has been routed since the give-up.
        assert!(pipeline.is_quarantined(1));
        assert!(!pipeline.is_quarantined(0));
        assert_eq!(pipeline.live_shards(), 1);
        let stats = pipeline.stats();
        assert_eq!(stats.quarantined_shards(), [1], "{stats}");
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(stats.shards[1].stats, probe.stats());
        assert_eq!(pipeline.observer().stats().quarantined_shards(), [1]);
        let causes = vec![ShardPanic {
            shard: 1,
            cause,
            restarts,
        }];
        assert_eq!(pipeline.panic_causes(), causes);

        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        assert_eq!(run.stats.quarantined_shards(), [1]);
        assert_eq!(run.stats.shards[1].stats, probe.stats());
        assert_eq!(run.panics, causes);
    }

    /// A shard's health moves as a source's does: a restart degrades it,
    /// its next incarnation's first checkpoint recovers it, and a give-up
    /// quarantines it — in `ShardedStats` and in its JSON alike.
    #[test]
    fn a_restart_degrades_a_shard_until_its_next_checkpoint_and_a_give_up_quarantines_it() {
        let router = ShardRouter::new(2).with_range_bits(16);
        let key = |shard| {
            (0..=255u8)
                .find(|&k| router.route_event(&withdraw_event(0, k, k)) == shard)
                .expect("some key routes to each shard")
        };
        let keys = [key(0), key(1)];
        // One restart allowed; shard 0 panics once, shard 1 at every fifth
        // pull. No analysis, so a checkpoint comes every 8 events only.
        let spawn = |repeat| {
            SpawnConfig::new(PipelineConfig {
                min_events: 1_000_000,
                ..small_pipeline()
            })
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(8)
                    .with_max_restarts(1)
                    .with_backoff(Duration::from_millis(1)),
            )
            .with_fault(PanicInjection {
                after_events: 5,
                repeat,
            })
        };
        let mut pipeline = ShardedPipeline {
            collector: Collector::new(),
            router,
            shards: [1, u32::MAX]
                .map(|repeat| Shard {
                    handle: RealtimeDetector::spawn(spawn(repeat)),
                    pending: VecDeque::new(),
                    quarantine_shed: Arc::default(),
                })
                .into(),
        };
        let feed = |pipeline: &mut ShardedPipeline, shard: usize, times: std::ops::Range<u64>| {
            for i in times {
                let event = withdraw_event(i, keys[shard], keys[shard]);
                pipeline.ingest_event(event).unwrap();
            }
        };
        let await_health = |pipeline: &ShardedPipeline, want: [Health; 2]| {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                let stats = pipeline.stats();
                if stats.shards.iter().map(|s| s.health).eq(want) {
                    return stats;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "never {want:?}: {stats}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let json_reads = |stats: &ShardedStats, shard: usize, health: &str| {
            let json = stats.to_json();
            let field = format!("{{\"shard\":{shard},\"health\":\"{health}\"");
            assert!(json.contains(&field), "{json}");
        };

        // The fifth pull panics on both; the replay of five events reaches
        // no checkpoint, so both stay degraded.
        feed(&mut pipeline, 0, 0..5);
        feed(&mut pipeline, 1, 0..5);
        let stats = await_health(&pipeline, [Health::Degraded; 2]);
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(stats.shards[0].stats.restarts, 1, "{stats}");
        assert_eq!(stats.shards[0].stats.checkpoints, 0, "{stats}");
        json_reads(&stats, 0, "degraded");
        json_reads(&stats, 1, "degraded");
        assert!(stats.quarantined_shards().is_empty(), "{stats}");

        // Three more events reach shard 0's checkpoint; five more reach
        // shard 1's next panic, past its budget.
        feed(&mut pipeline, 0, 5..8);
        feed(&mut pipeline, 1, 5..10);
        let stats = await_health(&pipeline, [Health::Recovered, Health::Quarantined]);
        assert!(stats.accounts_exactly(), "{stats}");
        assert_eq!(stats.shards[0].stats.restarts, 1, "{stats}");
        json_reads(&stats, 0, "recovered");
        json_reads(&stats, 1, "quarantined");
        assert_eq!(stats.quarantined_shards(), [1], "{stats}");
        assert!(
            stats.to_string().contains("shard 0 [recovered]:"),
            "{stats}"
        );

        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        let health: Vec<Health> = run.stats.shards.iter().map(|s| s.health).collect();
        assert_eq!(health, [Health::Recovered, Health::Quarantined]);
        assert_eq!(run.stats.shards[1].stats.restarts, 2, "{}", run.stats);
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

    /// A shard whose supervisor gave up with events still queued: the
    /// producer sheds them after the give-up snapshot was framed, so only
    /// the sealed `End` ledger has them as shed. Replay at the final
    /// cursor must read that ledger — queued 0 — and not the give-up
    /// snapshot's overlay, which still counts them as queued.
    #[test]
    fn a_given_up_shards_recording_replays_to_its_sealed_ledger() {
        let base = std::env::temp_dir().join(format!(
            "bgpscope-give-up-recording-test-{}.rec",
            std::process::id()
        ));
        let router = ShardRouter::new(2).with_range_bits(16);
        let key_of = |shard: usize| {
            (0..=255u8)
                .find(|&k| router.route_event(&withdraw_event(0, k, k)) == shard)
                .expect("some key routes to the shard")
        };
        let (key0, key1) = (key_of(0), key_of(1));
        let config = ShardedConfig::new(
            2,
            SpawnConfig::new(small_pipeline())
                .with_supervisor(SupervisorConfig::default().with_max_restarts(0))
                .with_recorder(RecorderConfig::new(base.clone())),
        )
        .with_range_bits(16)
        .with_shard_fault(
            1,
            PanicInjection {
                after_events: 5,
                repeat: u32::MAX,
            },
        );
        let mut pipeline = ShardedPipeline::spawn(config);
        // One push: shard 1's supervisor pulls a batch off its queue,
        // panics at its 5th event and gives up with the rest still queued.
        let events = (0..600u64).map(|i| withdraw_event(i, key1, key1));
        pipeline.ingest_batch(events).unwrap();
        for i in 0..40u64 {
            pipeline
                .ingest_event(withdraw_event(i, key0, key0))
                .unwrap();
        }
        let run = pipeline.finish();
        assert!(run.stats.accounts_exactly(), "{}", run.stats);
        assert_eq!(run.stats.quarantined_shards(), [1]);
        for (k, snap) in run.stats.shards.iter().enumerate() {
            let path = format!("{}.shard{k}", base.display());
            let mut replay =
                Replay::load(&path).unwrap_or_else(|e| panic!("shard {k} recording: {e}"));
            replay.to_end().expect("replay to end");
            let end = replay.end_stats().expect("a sealed recording");
            assert_eq!(end.queued, 0, "shard {k}: {end}");
            assert_eq!(replay.stats(), end, "shard {k}");
            // A shard's ledger adds what the producer shed at routing
            // after the give-up; the pipeline's own ledger is the End.
            let mut live = snap.stats;
            live.ingested -= snap.quarantine_shed;
            live.shed_events -= snap.quarantine_shed;
            assert_eq!(end, live, "shard {k}");
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
        assert!(json.contains("\"health\":\"healthy\""), "{json}");
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
                health: Health::Healthy,
                quarantine_shed: 0,
                stats: ledger(7, 0),
            },
            ShardSnapshot {
                shard: 1,
                health: Health::Quarantined,
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
                 {{\"shard\":0,\"health\":\"healthy\",\"quarantine_shed\":0,\"stats\":\
                 {{\"ingested\":7,\"analyzed\":7,\"shed_events\":0,{zeros}}}}},\
                 {{\"shard\":1,\"health\":\"quarantined\",\"quarantine_shed\":2,\"stats\":\
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
