//! Every call the benchmark makes into the program lives in this file, so
//! an API refactor of the program touches one benchmark file. The rest of
//! the benchmark sees only the plain types defined or re-exported here.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bgpscope::prelude::*;
use bgpscope::workload::shift;
use bgpscope_mrt::RecordReader;
use bgpscope_stemming::{SequenceEncoder, SubsequenceCounter};

pub use bgpscope::prelude::{Event, Timestamp};

/// The analysis window of the default pipeline configuration, in
/// microseconds of event time.
pub fn window_micros() -> u64 {
    PipelineConfig::default().window.as_micros()
}

// ---------------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------------

/// `count` background-churn events from [`ChurnGenerator`] over fixed-size
/// pools: four peers, six nexthops, 32 AS paths (eight each of 2, 3, 4 and
/// 5 hops, so the mean path length does not move with the seed) and
/// `n_prefixes` /24s. `asn` supplies the seeded AS numbers. Timestamps are
/// the generator's; the caller re-stamps them.
pub fn churn_events(
    seed: u64,
    n_prefixes: usize,
    count: usize,
    mut asn: impl FnMut() -> u32,
) -> Vec<Event> {
    let peers = (1..=4u8)
        .map(|i| PeerId::from_octets(10, 0, 0, i))
        .collect();
    let nexthops = (1..=6u8)
        .map(|i| RouterId::from_octets(10, 1, 0, i))
        .collect();
    let paths = (0..32)
        .map(|i| AsPath::from_u32s((0..2 + i % 4).map(|_| asn())))
        .collect();
    let prefixes = (0..n_prefixes)
        .map(|i| {
            Prefix::from_octets(
                64 + ((i >> 16) & 0x3F) as u8,
                ((i >> 8) & 0xFF) as u8,
                (i & 0xFF) as u8,
                0,
                24,
            )
        })
        .collect();
    ChurnGenerator::new(seed, peers, nexthops, paths, prefixes)
        .events(Timestamp::ZERO, Timestamp::from_secs(3600), count)
        .into_events()
}

/// One session-flap spike of `count` events on its own peer: a table
/// transfer of `count / 2` prefixes over 3-hop paths, then the loss of the
/// session 30 s later. Announce-then-withdraw (rather than the reverse) so
/// that rebuild augmentation keeps every event. Events are 50 µs apart,
/// strictly increasing, starting at `start`.
pub fn flap_spike(
    index: u8,
    count: usize,
    start: Timestamp,
    mut asn: impl FnMut() -> u32,
) -> Vec<Event> {
    let peer = PeerId::from_octets(10, 9, 9, index + 1);
    let hop = RouterId::from_octets(11, 9, 9, index + 1);
    let (transit, upstream) = (asn(), asn());
    let tails: Vec<u32> = (0..13).map(|_| asn()).collect();
    let prefixes = (count / 2).max(1);
    let route = |i: usize| {
        let prefix = Prefix::from_octets(
            100 + index,
            ((i >> 8) & 0xFF) as u8,
            (i & 0xFF) as u8,
            0,
            24,
        );
        let attrs = PathAttributes::new(
            hop,
            AsPath::from_u32s([transit, upstream, tails[i % tails.len()]]),
        );
        (prefix, attrs)
    };
    let at = |offset: u64, i: usize| Timestamp(start.as_micros() + offset + 50 * i as u64);
    let mut events = Vec::with_capacity(2 * prefixes);
    for i in 0..prefixes {
        let (prefix, attrs) = route(i);
        events.push(Event::announce(at(0, i), peer, prefix, attrs));
    }
    for i in 0..prefixes {
        let (prefix, attrs) = route(i);
        events.push(Event::withdraw(at(30_000_000, i), peer, prefix, attrs));
    }
    events
}

/// What a simulated episode cost to produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCost {
    pub wall_s: f64,
    pub deliveries: u64,
}

fn episode(incident: IncidentStream, start: Timestamp, began: Instant) -> (Vec<Event>, SimCost) {
    let cost = SimCost {
        wall_s: began.elapsed().as_secs_f64(),
        deliveries: incident.stats.messages_delivered,
    };
    (shift(&incident.stream, start).into_events(), cost)
}

/// The §IV-D leaked-routes incident (7-hop leaked path), simulated by
/// `netsim` at `scale` of the paper's size, shifted to `start`.
pub fn leak_episode(seed: u64, scale: f64, start: Timestamp) -> (Vec<Event>, SimCost) {
    let began = Instant::now();
    let incident = Berkeley { scale, seed }.leak_incident();
    episode(incident, start, began)
}

/// The §IV-F MED oscillation on one prefix, `cycles` cycles of 500 µs,
/// shifted to `start`.
pub fn oscillation_episode(seed: u64, cycles: u32, start: Timestamp) -> (Vec<Event>, SimCost) {
    let began = Instant::now();
    let incident = IspAnon { scale: 0.005, seed }
        .med_oscillation_incident(cycles, Timestamp::from_micros(500));
    episode(incident, start, began)
}

/// The peer an event came from, as an opaque sortable key.
pub fn peer_key(event: &Event) -> u32 {
    event.peer.0.as_u32()
}

// ---------------------------------------------------------------------------
// mrt
// ---------------------------------------------------------------------------

/// The events of one archive, held the way `write_events` wants them, so
/// that encoding (which set-up times) does not start with a copy.
#[derive(Debug)]
pub struct Archive(EventStream);

impl Archive {
    pub fn from_events(events: Vec<Event>) -> Self {
        Archive(EventStream::from_events(events))
    }

    pub fn events(&self) -> &[Event] {
        self.0.events()
    }

    /// Encodes the events as an MRT archive (`write_events`).
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_events(&mut bytes, &self.0).expect("encode archive");
        bytes
    }
}

/// Decodes a whole archive with the streaming reader
/// (`RecordReader::next_event`), strict mode.
pub fn decode(reader: impl Read) -> Vec<Event> {
    let mut records = RecordReader::new(reader);
    let mut events = Vec::new();
    while let Some(event) = records.next_event().expect("benchmark archives decode") {
        events.push(event);
    }
    events
}

// ---------------------------------------------------------------------------
// collector
// ---------------------------------------------------------------------------

/// Rebuild augmentation, as the ingest path's augment stage does it: one
/// `Collector::apply_update` per decoded event. Returns the forwarded
/// events and the number of withdrawals filtered.
pub fn augment(events: &[Event]) -> (Vec<Event>, u64) {
    let mut collector = Collector::new();
    let mut out = Vec::with_capacity(events.len());
    let mut filtered = 0;
    for event in events {
        let msg = match event.kind {
            EventKind::Announce => {
                UpdateMessage::announce(event.peer, event.attrs.clone(), [event.prefix])
            }
            EventKind::Withdraw => UpdateMessage::withdraw(event.peer, [event.prefix]),
        };
        let produced = collector.apply_update(&msg, event.time);
        if produced.is_empty() && event.kind == EventKind::Withdraw {
            filtered += 1;
        }
        out.extend(produced);
    }
    (out, filtered)
}

// ---------------------------------------------------------------------------
// Reports and the synchronous oracle
// ---------------------------------------------------------------------------

/// A report reduced to a comparable key: the hash of its serialized form.
pub type ReportKey = u64;

fn report_key(report: &AnomalyReport) -> ReportKey {
    let mut hasher = DefaultHasher::new();
    serde_json::to_string(report)
        .expect("reports serialize")
        .hash(&mut hasher);
    hasher.finish()
}

fn report_keys(reports: &[AnomalyReport]) -> Vec<ReportKey> {
    reports.iter().map(report_key).collect()
}

/// One analysis pass of the oracle: the half-open range of (augmented)
/// event indices it covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCut {
    pub start: usize,
    pub end: usize,
}

/// The reference computation: a synchronous `RealtimeDetector` over the
/// augmented events.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Report keys in emission order.
    pub reports: Vec<ReportKey>,
    /// `triggers[k]` is the index of the event whose ingestion emitted
    /// report `k` (the last event for reports of the final flush).
    pub triggers: Vec<usize>,
    /// How many of the reports came from the final flush.
    pub flush_reports: usize,
    /// The analysis passes, in order.
    pub windows: Vec<WindowCut>,
    /// Events the detector discarded unanalyzed (must be 0 on a benchmark
    /// workload).
    pub dropped: u64,
    pub elapsed_s: f64,
}

/// Runs the oracle. The window cuts come from watching the detector's
/// `analyzed` counter: a pass triggered by event `i` covers everything
/// buffered before it (a window rotation), or that plus `i` itself (the
/// spike fast-path).
pub fn oracle(events: &[Event]) -> Oracle {
    let mut detector = RealtimeDetector::new(PipelineConfig::default());
    let mut out = Oracle::default();
    let mut reports = Vec::new();
    let mut pending_from = 0usize;
    let mut analyzed = 0u64;
    let began = Instant::now();
    for (i, event) in events.iter().enumerate() {
        let emitted = detector.ingest_event(event.clone());
        out.triggers.extend(std::iter::repeat_n(i, emitted.len()));
        reports.extend(emitted);
        let now = detector.stats().analyzed;
        let covered = (now - analyzed) as usize;
        analyzed = now;
        let pending = i - pending_from;
        if covered == 0 {
            continue;
        }
        let end = if covered == pending { i } else { i + 1 };
        assert_eq!(
            covered,
            end - pending_from,
            "an analysis pass covers the whole buffer"
        );
        out.windows.push(WindowCut {
            start: pending_from,
            end,
        });
        pending_from = end;
    }
    let emitted = detector.flush();
    let last = events.len().saturating_sub(1);
    out.triggers
        .extend(std::iter::repeat_n(last, emitted.len()));
    out.flush_reports = emitted.len();
    reports.extend(emitted);
    let stats = detector.stats();
    out.elapsed_s = began.elapsed().as_secs_f64();
    if stats.analyzed > analyzed {
        out.windows.push(WindowCut {
            start: pending_from,
            end: events.len(),
        });
    }
    out.dropped = stats.dropped_events;
    out.reports = report_keys(&reports);
    out
}

/// The sharded reference: one synchronous detector per shard behind the
/// program's router, per-shard reports merged by `merge_incidents` — what
/// `ShardedPipeline` computes, without threads, queues or supervision.
pub fn sharded_oracle(events: &[Event], shards: usize) -> Oracle {
    let router = ShardRouter::new(shards);
    let mut detectors: Vec<RealtimeDetector> = (0..shards)
        .map(|_| RealtimeDetector::new(PipelineConfig::default()))
        .collect();
    let mut per_shard: Vec<Vec<AnomalyReport>> = vec![Vec::new(); shards];
    let began = Instant::now();
    for event in events {
        let k = router.route_event(event);
        per_shard[k].extend(detectors[k].ingest_event(event.clone()));
    }
    let mut dropped = 0;
    for (k, mut detector) in detectors.into_iter().enumerate() {
        per_shard[k].extend(detector.flush());
        dropped += detector.stats().dropped_events;
    }
    let merged: Vec<AnomalyReport> = merge_incidents(&per_shard)
        .into_iter()
        .map(|incident| incident.report)
        .collect();
    Oracle {
        reports: report_keys(&merged),
        dropped,
        elapsed_s: began.elapsed().as_secs_f64(),
        ..Oracle::default()
    }
}

// ---------------------------------------------------------------------------
// The ingest paths (end to end)
// ---------------------------------------------------------------------------

/// How an end-to-end run is configured.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// One archive → `ingest`; several → `MultiSourceIngest`.
    pub archives: Vec<PathBuf>,
    pub shards: usize,
    /// Arms the incident recorder at this manifest path.
    pub recording: Option<PathBuf>,
}

/// What an end-to-end run reported, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    pub reports: Vec<ReportKey>,
    pub events_decoded: u64,
    pub events_forwarded: u64,
    pub records_skipped: u64,
    /// Shed + dropped (lost included) events and shed + digested reports.
    pub events_failed: u64,
    pub ledger_closed: bool,
    pub restarts: u64,
    /// Program-reported stage occupancy (`IngestReport`).
    pub decode_busy_s: f64,
    pub decode_blocked_out_s: f64,
    pub augment_busy_s: f64,
    pub augment_blocked_in_s: f64,
    pub augment_blocked_out_s: f64,
    /// Events merged from each source (fan-in runs).
    pub source_events: Vec<u64>,
    /// Events ingested by each shard (sharded runs).
    pub shard_events: Vec<u64>,
}

/// The unbounded report queue every benchmark pipeline uses. `ingest`
/// never drains reports during a run, so the default bound of 1,024 under
/// `Block` live-locks once an archive yields more reports than that (see
/// "Defects found" in the README).
fn spawn_config(recording: Option<&Path>) -> SpawnConfig {
    let spawn = SpawnConfig::default().with_report_capacity(0);
    match recording {
        Some(path) => spawn.with_recorder(RecorderConfig::new(path).with_label("benchmark")),
        None => spawn,
    }
}

/// Events and reports a pipeline's final ledger counts as not delivered:
/// shed + dropped (lost included) events, shed + digested reports.
fn undelivered(stats: &PipelineStats) -> u64 {
    stats.shed_events + stats.dropped_events + stats.report_shed + stats.reports_digested
}

fn open(path: &Path) -> BufReader<std::fs::File> {
    BufReader::new(
        std::fs::File::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display())),
    )
}

/// Replays the archives through the real ingest path and returns the
/// report.
pub fn run_ingest(spec: &RunSpec) -> RunOutcome {
    let config = IngestConfig::default()
        .with_spawn(spawn_config(spec.recording.as_deref()))
        .with_shards(spec.shards);
    let report = if let [archive] = spec.archives.as_slice() {
        ingest(open(archive), config)
    } else {
        // A stall on a shared host must not quarantine a healthy source:
        // the run would still finish, but short of events.
        let policy = SourcePolicy::default().with_stall_timeout(Duration::from_secs(30));
        let mut fanin = MultiSourceIngest::new(config, policy);
        for (i, archive) in spec.archives.iter().enumerate() {
            let archive = archive.clone();
            fanin = fanin.source(SourceSpec::new(format!("collector{i}"), move || {
                Ok(Box::new(open(&archive)) as Box<dyn Read + Send>)
            }));
        }
        fanin.run()
    }
    .expect("benchmark archives ingest");

    let stats = &report.stats;
    let mut ledger_closed = stats.accounts_exactly()
        && stats.reports_account_exactly()
        && report.sources_account_exactly();
    let mut shard_events = Vec::new();
    if let Some(sharded) = &report.shard_stats {
        ledger_closed &= sharded.accounts_exactly() && sharded.reports_account_exactly();
        shard_events = sharded.shards.iter().map(|s| s.stats.ingested).collect();
    }
    RunOutcome {
        reports: report_keys(&report.reports),
        events_decoded: report.events_decoded,
        events_forwarded: report.events_forwarded,
        records_skipped: report.records_skipped,
        events_failed: undelivered(stats),
        ledger_closed,
        restarts: stats.restarts,
        decode_busy_s: report.decode.busy_secs,
        decode_blocked_out_s: report.decode.blocked_out_secs,
        augment_busy_s: report.augment.busy_secs,
        augment_blocked_in_s: report.augment.blocked_in_secs,
        augment_blocked_out_s: report.augment.blocked_out_secs,
        source_events: report.sources.iter().map(|s| s.events_merged).collect(),
        shard_events,
    }
}

// ---------------------------------------------------------------------------
// pipeline (the spawned detector, driven directly)
// ---------------------------------------------------------------------------

/// A spawned, supervised pipeline fed event by event — the live-feed API.
pub struct Spawned {
    handle: PipelineHandle,
}

/// The final ledger of a directly driven pipeline.
#[derive(Debug, Clone, Default)]
pub struct SpawnedOutcome {
    /// Reports drained by `finish`, after the last `poll_reports`.
    pub reports: Vec<ReportKey>,
    pub events_failed: u64,
    pub ledger_closed: bool,
    pub restarts: u64,
}

impl Spawned {
    pub fn spawn(recording: Option<&Path>) -> Self {
        Spawned {
            handle: RealtimeDetector::spawn(spawn_config(recording)),
        }
    }

    pub fn ingest_event(&mut self, event: Event) {
        self.handle
            .ingest_event(event)
            .expect("benchmark pipeline stays open");
    }

    /// Drains the reports delivered so far.
    pub fn poll_reports(&self, into: &mut Vec<ReportKey>) {
        while let Ok(report) = self.handle.reports().try_recv() {
            into.push(report_key(&report));
        }
    }

    /// Blocks until a report arrives or `timeout` passes.
    pub fn wait_report(&self, timeout: Duration) -> Option<ReportKey> {
        self.handle
            .reports()
            .recv_timeout(timeout)
            .ok()
            .map(|report| report_key(&report))
    }

    pub fn queue_len(&self) -> usize {
        self.handle.queue_len()
    }

    pub fn finish(self) -> SpawnedOutcome {
        let (reports, stats) = self.handle.finish();
        SpawnedOutcome {
            reports: report_keys(&reports),
            events_failed: undelivered(&stats),
            ledger_closed: stats.accounts_exactly() && stats.reports_account_exactly(),
            restarts: stats.restarts,
        }
    }
}

/// Drives a synchronous detector and calls `checkpoint()` at the
/// supervisor's cadence: every 256 events and after every analysis pass.
/// Returns (calls, events cloned, seconds inside `checkpoint`).
pub fn checkpoint_cadence(events: &[Event]) -> (u64, u64, f64) {
    let interval = SupervisorConfig::default().checkpoint_interval;
    let mut detector = RealtimeDetector::new(PipelineConfig::default());
    let (mut calls, mut cloned, mut inside) = (0u64, 0u64, 0f64);
    let mut since = 0usize;
    let mut analyzed = 0u64;
    for event in events {
        detector.ingest_event(event.clone());
        since += 1;
        let now = detector.stats().analyzed;
        if now != analyzed || since >= interval {
            let began = Instant::now();
            let checkpoint = detector.checkpoint();
            inside += began.elapsed().as_secs_f64();
            calls += 1;
            cloned += checkpoint.buffer.len() as u64;
            std::hint::black_box(checkpoint);
            since = 0;
            analyzed = now;
        }
    }
    (calls, cloned, inside)
}

// ---------------------------------------------------------------------------
// stemming and classify, one oracle window at a time
// ---------------------------------------------------------------------------

/// Per-window kernel costs, summed over the oracle's windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    pub events: u64,
    pub count_s: f64,
    pub distinct_sequences: u64,
    pub decompose_s: f64,
    pub rounds: u64,
    pub classify_s: f64,
    pub reports: u64,
}

/// Runs the analysis kernels over each oracle window in isolation:
/// the sub-sequence counter build, the full decomposition, and
/// classification of every reportable component.
pub fn kernels(events: &[Event], windows: &[WindowCut]) -> KernelCosts {
    let config = PipelineConfig::default();
    let stemming = Stemming::with_config(config.stemming.clone());
    let mut costs = KernelCosts::default();
    for cut in windows {
        let stream = EventStream::from_events(events[cut.start..cut.end].to_vec());
        costs.events += stream.len() as u64;

        let began = Instant::now();
        let mut encoder = SequenceEncoder::new();
        let mut counter = SubsequenceCounter::with_parallelism(
            config.stemming.max_subseq_len,
            config.stemming.parallelism,
        );
        for event in &stream {
            counter.add(&encoder.encode(event));
        }
        counter.materialize_counts();
        costs.count_s += began.elapsed().as_secs_f64();
        costs.distinct_sequences += counter.distinct_sequences() as u64;

        let began = Instant::now();
        let result = stemming.decompose_weighted_indexed(&stream, |_, _| 1);
        costs.decompose_s += began.elapsed().as_secs_f64();
        costs.rounds += result.components().len() as u64;

        let began = Instant::now();
        for component in result.components() {
            if component.event_count() < config.min_component_events {
                continue;
            }
            let verdict = classify(component, &stream);
            std::hint::black_box(AnomalyReport::new(component, verdict, result.symbols()));
            costs.reports += 1;
        }
        costs.classify_s += began.elapsed().as_secs_f64();
    }
    costs
}

// ---------------------------------------------------------------------------
// shard
// ---------------------------------------------------------------------------

/// Routes every event (`ShardRouter::route_event`) and returns the
/// per-shard counts.
pub fn route_counts(events: &[Event], shards: usize) -> Vec<u64> {
    let router = ShardRouter::new(shards);
    let mut counts = vec![0u64; shards];
    for event in events {
        counts[router.route_event(event)] += 1;
    }
    counts
}

/// A `ShardedPipeline` run over pre-augmented events. Returns the merged
/// report keys, the seconds spent in the whole run, and the seconds spent
/// re-running `merge_incidents` on the per-shard reports alone.
pub fn sharded_run(events: &[Event], shards: usize) -> (Vec<ReportKey>, f64, f64) {
    let began = Instant::now();
    let mut pipeline = ShardedPipeline::spawn(ShardedConfig::new(shards, spawn_config(None)));
    for event in events {
        pipeline
            .ingest_event(event.clone())
            .expect("benchmark shards stay open");
    }
    let run = pipeline.finish();
    let elapsed = began.elapsed().as_secs_f64();
    let began = Instant::now();
    std::hint::black_box(merge_incidents(&run.shard_reports));
    let merge = began.elapsed().as_secs_f64();
    let reports: Vec<AnomalyReport> = run.incidents.into_iter().map(|i| i.report).collect();
    (report_keys(&reports), elapsed, merge)
}

// ---------------------------------------------------------------------------
// replay (read side)
// ---------------------------------------------------------------------------

/// Read-side costs of one recording.
#[derive(Debug, Clone, Default)]
pub struct ReplayCosts {
    pub events_total: u64,
    pub frames: u64,
    pub load_s: f64,
    /// One entry per seek, in seconds.
    pub seeks_s: Vec<f64>,
    pub timeline_s: f64,
    pub animation_s: f64,
}

/// Loads a recording and scrubs it: one `seek_events` per target
/// (fractions of the run in `[0, 1)`), the anomaly timeline, and the TAMP
/// animation of the trailing window at the last cursor.
pub fn replay_scrub(recording: &Path, targets: &[f64]) -> ReplayCosts {
    let began = Instant::now();
    let mut replay = Replay::load(recording).expect("benchmark recording loads");
    let mut costs = ReplayCosts {
        load_s: began.elapsed().as_secs_f64(),
        events_total: replay.events_total(),
        frames: replay.frames_total(),
        ..ReplayCosts::default()
    };
    for fraction in targets {
        let target = (fraction * costs.events_total as f64) as u64;
        let began = Instant::now();
        replay
            .seek_events(target)
            .expect("seek inside the recording");
        costs.seeks_s.push(began.elapsed().as_secs_f64());
    }
    let began = Instant::now();
    std::hint::black_box(replay.timeline());
    costs.timeline_s = began.elapsed().as_secs_f64();
    let began = Instant::now();
    std::hint::black_box(
        replay
            .animation_at_cursor(PipelineConfig::default().window)
            .expect("animation window reads"),
    );
    costs.animation_s = began.elapsed().as_secs_f64();
    costs
}

/// Total bytes of a recording's manifest and segments.
pub fn recording_bytes(recording: &Path) -> u64 {
    let mut bytes = std::fs::metadata(recording).map_or(0, |m| m.len());
    let mut segment = 0;
    while let Ok(meta) = std::fs::metadata(format!("{}.seg{segment}", recording.display())) {
        bytes += meta.len();
        segment += 1;
    }
    bytes
}

/// The recording a sharded run leaves for shard `k`.
pub fn shard_recording(recording: &Path, k: usize) -> PathBuf {
    format!("{}.shard{k}", recording.display()).into()
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    bgpscope::ingest::peak_rss_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_maps_each_report_to_the_event_whose_ingestion_emitted_it() {
        // Three windows of 60 events, 1,000 s apart (the window is 900 s):
        // window 0 is analysed when event 60 arrives, window 1 when event
        // 120 arrives, window 2 by the final flush.
        let mut next_asn = 1_000;
        let mut events = Vec::new();
        for w in 0..3u8 {
            let start = Timestamp::from_secs(u64::from(w) * 1_000);
            events.extend(flap_spike(w, 60, start, || {
                next_asn += 1;
                next_asn
            }));
        }
        let oracle = oracle(&events);
        let cut = |start, end| WindowCut { start, end };
        assert_eq!(oracle.windows, [cut(0, 60), cut(60, 120), cut(120, 180)]);
        assert_eq!(oracle.dropped, 0);
        assert_eq!(oracle.triggers.len(), oracle.reports.len());
        let mut distinct = oracle.triggers.clone();
        distinct.dedup();
        assert_eq!(distinct, [60, 120, 179]);
        let flushed = oracle.triggers.iter().filter(|&&t| t == 179).count();
        assert_eq!(oracle.flush_reports, flushed);
    }

    #[test]
    fn augmentation_filters_withdrawals_of_routes_never_announced() {
        let mut events = flap_spike(0, 4, Timestamp::ZERO, || 7);
        // Withdraw-first: the peer has announced nothing yet.
        events.rotate_left(2);
        let (out, filtered) = augment(&events);
        assert_eq!((out.len(), filtered), (2, 2));
    }
}
