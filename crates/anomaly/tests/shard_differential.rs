//! Differential property tests for the sharded pipeline's conservative
//! incident merge (the sharding analogue of `checkpoint_differential.rs`).
//!
//! Two properties back the merge's conservativeness claim against a
//! single-detector oracle:
//!
//! 1. **Component-respecting partitions are invisible** — when the shard
//!    router's key granularity respects component boundaries (every
//!    correlated cluster co-locates on one shard), running per-shard
//!    detectors and merging yields *bit-identical* reports to the
//!    unsharded oracle: same stems, same counts, same envelopes, same
//!    verdicts, and `merged_from == 1` everywhere — the merge stage
//!    invents nothing.
//! 2. **Component-splitting partitions are conservative** — when a finer
//!    routing key slices a cluster across shards, the merge never
//!    fabricates or loses evidence: per underlying incident, the summed
//!    supports (event / announce / withdraw / prefix counts) and the union
//!    time envelope equal the oracle's exactly. (The stem *string* is not
//!    the grouping key here: stems are presentation and legitimately
//!    depend on local evidence — a shard that sees one prefix of a
//!    three-prefix cluster names the stem by prefix, the oracle by AS
//!    pair. Incidents are identified instead by the cluster's address
//!    family, which splitting cannot change.)
//! 3. **The merge is the one it replaced** — `merge_incidents` joins the
//!    members of a stem group with one sort and a sweep. Over generated
//!    report sets (1 to 4 shards, three stems, envelopes that overlap and
//!    chain), its incidents equal, by `==`, those of the loop that tested
//!    every pair, kept here verbatim as the oracle: the same classes, the
//!    same members in each, in the same order.

use proptest::prelude::*;

use std::collections::HashMap;

use bgpscope_anomaly::{
    merge_incidents, AnomalyKind, AnomalyReport, GlobalIncident, PipelineConfig, RealtimeDetector,
    ShardRouter, Verdict,
};
use bgpscope_bgp::{AsPath, Event, PathAttributes, PeerId, Prefix, RouterId, Timestamp};

/// One synthetic anomaly cluster: a distinct peer, a distinct 2-hop AS
/// path (hence a distinct stem), and up to four /24s under one /16 — so a
/// 16-bit routing key keeps the cluster whole and a 24-bit key slices it.
#[derive(Debug, Clone)]
struct Cluster {
    id: u8,
    prefixes: u8,
    events_per_prefix: u8,
    start_ms: u64,
    gap_ms: u64,
}

fn arb_clusters() -> impl Strategy<Value = Vec<Cluster>> {
    proptest::collection::vec((1u8..=4, 4u8..=8, 0u64..600_000, 50u64..500), 2..=5).prop_map(
        |params| {
            params
                .into_iter()
                .enumerate()
                .map(
                    |(i, (prefixes, events_per_prefix, start_ms, gap_ms))| Cluster {
                        id: i as u8,
                        prefixes,
                        events_per_prefix,
                        start_ms,
                        gap_ms,
                    },
                )
                .collect()
        },
    )
}

/// Renders a cluster into events. Every event shares the cluster's full
/// path, and every per-prefix group has at least `min_support` events, so
/// both the oracle and any per-prefix slice of the cluster clear the
/// Stemming support threshold — the regime where the conservative-merge
/// totals are exact.
fn cluster_events(c: &Cluster) -> Vec<Event> {
    let peer = PeerId::from_octets(10, c.id, 0, 1);
    let hop = RouterId::from_octets(192, 0, 2, c.id);
    let path = AsPath::from_u32s(vec![1000 + u32::from(c.id), 2000 + u32::from(c.id)]);
    let mut events = Vec::new();
    for p in 0..c.prefixes {
        let prefix = Prefix::from_octets(40 + c.id, 0, p, 0, 24);
        for e in 0..c.events_per_prefix {
            let t = c.start_ms + u64::from(e) * c.gap_ms + u64::from(p);
            let attrs = PathAttributes::new(hop, path.clone());
            events.push(if e % 2 == 0 {
                Event::announce(Timestamp::from_millis(t), peer, prefix, attrs)
            } else {
                Event::withdraw(Timestamp::from_millis(t), peer, prefix, attrs)
            });
        }
    }
    events
}

/// One giant window and unit thresholds: all analysis happens in the
/// terminal flush, so oracle and shards decompose exactly the streams they
/// were fed — no window-rotation timing to diverge on.
fn config() -> PipelineConfig {
    PipelineConfig {
        window: Timestamp::from_secs(10_000_000),
        min_events: 1,
        min_component_events: 1,
        ..PipelineConfig::default()
    }
}

fn run_detector(events: &[Event]) -> Vec<AnomalyReport> {
    let mut detector = RealtimeDetector::new(config());
    let mut reports = Vec::new();
    for event in events {
        reports.extend(detector.ingest_event(event.clone()));
    }
    reports.extend(detector.flush());
    reports
}

/// The merge stage's canonical order, applied to oracle reports so the
/// two sides compare element-wise.
fn canonical(mut reports: Vec<AnomalyReport>) -> Vec<AnomalyReport> {
    reports.sort_by(|a, b| {
        b.event_count
            .cmp(&a.event_count)
            .then(a.start.cmp(&b.start))
            .then(a.end.cmp(&b.end))
            .then(a.stem.cmp(&b.stem))
    });
    reports
}

/// The full interleaved stream, globally time-ordered (stable, so each
/// shard's restriction preserves the oracle's relative order).
fn interleaved(clusters: &[Cluster]) -> Vec<Event> {
    let mut all: Vec<Event> = clusters.iter().flat_map(cluster_events).collect();
    all.sort_by_key(|e| e.time);
    all
}

/// Partition the global stream by the router, preserving order.
fn partition(router: &ShardRouter, all: &[Event]) -> Vec<Vec<Event>> {
    let mut per_shard: Vec<Vec<Event>> = vec![Vec::new(); router.shards()];
    for event in all {
        per_shard[router.route_event(event)].push(event.clone());
    }
    per_shard
}

/// Per-stem totals: summed supports and the union time envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StemTally {
    events: usize,
    prefixes: usize,
    announces: usize,
    withdraws: usize,
    start: Timestamp,
    end: Timestamp,
}

/// Split-invariant incident identity: every generated cluster owns one
/// top octet (`40 + id`), so the first byte of any sample prefix recovers
/// the cluster no matter how the partition sliced it. Stem strings do NOT
/// work as this key — they change shape with local prefix diversity.
fn cluster_key(report: &AnomalyReport) -> u8 {
    let sample = report
        .sample_prefixes
        .first()
        .expect("every report carries at least one sample prefix");
    sample
        .split('.')
        .next()
        .and_then(|octet| octet.parse().ok())
        .expect("sample prefix renders as dotted quad")
}

fn tally<'a>(
    reports: impl Iterator<Item = &'a AnomalyReport>,
) -> std::collections::BTreeMap<u8, StemTally> {
    let mut map = std::collections::BTreeMap::new();
    for report in reports {
        let entry = map.entry(cluster_key(report)).or_insert(StemTally {
            events: 0,
            prefixes: 0,
            announces: 0,
            withdraws: 0,
            start: report.start,
            end: report.end,
        });
        entry.events += report.event_count;
        entry.prefixes += report.prefix_count;
        entry.announces += report.announce_count;
        entry.withdraws += report.withdraw_count;
        entry.start = entry.start.min(report.start);
        entry.end = entry.end.max(report.end);
    }
    map
}

proptest! {
    /// Property 1: a 16-bit routing key co-locates every cluster, so the
    /// sharded-then-merged run is indistinguishable from the oracle.
    #[test]
    fn component_respecting_partition_merges_to_the_oracle(
        clusters in arb_clusters(),
        shards in 2usize..=5,
    ) {
        let all = interleaved(&clusters);
        let oracle = canonical(run_detector(&all));

        let router = ShardRouter::new(shards).with_range_bits(16);
        let shard_reports: Vec<Vec<AnomalyReport>> = partition(&router, &all)
            .iter()
            .map(|events| run_detector(events))
            .collect();
        let merged = merge_incidents(&shard_reports);

        // Nothing to coalesce: every incident is one shard's report,
        // passed through bit-identically.
        prop_assert!(
            merged.iter().all(|g| g.merged_from == 1),
            "component-respecting partition must merge nothing"
        );
        let merged_reports = canonical(merged.into_iter().map(|g| g.report).collect());
        prop_assert_eq!(merged_reports, oracle);
    }

    /// Property 2: a 24-bit routing key slices clusters across shards; the
    /// merged incidents must still account for exactly the oracle's
    /// evidence — per cluster, summed supports and the union envelope match.
    #[test]
    fn component_splitting_partition_is_conservative(
        clusters in arb_clusters(),
        shards in 2usize..=5,
    ) {
        let all = interleaved(&clusters);
        let oracle = run_detector(&all);

        let router = ShardRouter::new(shards).with_range_bits(24);
        let shard_reports: Vec<Vec<AnomalyReport>> = partition(&router, &all)
            .iter()
            .map(|events| run_detector(events))
            .collect();
        let merged = merge_incidents(&shard_reports);

        let oracle_tally = tally(oracle.iter());
        let merged_tally = tally(merged.iter().map(|g| &g.report));
        prop_assert_eq!(merged_tally, oracle_tally);

        // Provenance stays honest: an incident merged from k reports names
        // k distinct shards.
        for incident in &merged {
            prop_assert_eq!(incident.shards.len(), incident.merged_from);
            let mut sorted = incident.shards.clone();
            sorted.dedup();
            prop_assert_eq!(&sorted, &incident.shards, "shard list must be ascending/distinct");
        }
    }
}

/// One generated report:
/// `(stem, start_s, length_s, events, degraded, igp_nearby, prefixes)`.
type ReportDraw = (usize, u64, u64, usize, bool, usize, usize);

/// A report from a draw: one of three stems, an envelope inside 0–140 s
/// (so envelopes overlap, nest and chain), 1–4 events, and up to three
/// sample prefixes from a pool of five, so merged samples share entries.
fn drawn_report(
    (stem, start, length, events, degraded, igp, prefixes): ReportDraw,
) -> AnomalyReport {
    let stem = ["a-b", "b-c", "c-d"][stem].to_owned();
    AnomalyReport {
        verdict: Verdict {
            kind: [AnomalyKind::SessionReset, AnomalyKind::Unknown][events % 2],
            confidence: 0.1 * events as f64,
            notes: Vec::new(),
        },
        common_portion: format!("{stem}-{events}"),
        stem,
        event_count: events,
        prefix_count: prefixes.max(1),
        sample_prefixes: (0..prefixes)
            .map(|k| format!("10.{}.0.0/16", (start as usize + k) % 5))
            .collect(),
        start: Timestamp::from_secs(start),
        end: Timestamp::from_secs(start + length),
        announce_count: events / 2,
        withdraw_count: events - events / 2,
        igp_nearby: igp.checked_sub(1),
        degraded,
    }
}

fn arb_shard_reports() -> impl Strategy<Value = Vec<Vec<AnomalyReport>>> {
    let draw = (
        0usize..3,
        0u64..100,
        0u64..40,
        1usize..5,
        any::<bool>(),
        0usize..3,
        0usize..4,
    );
    collection::vec(collection::vec(draw, 0..12), 1..5).prop_map(|shards| {
        shards
            .into_iter()
            .map(|draws| draws.into_iter().map(drawn_report).collect())
            .collect()
    })
}

// The merge before the sweep, verbatim: every pair of a stem group tested.
fn quadratic_merge(per_shard: Vec<Vec<AnomalyReport>>) -> Vec<GlobalIncident> {
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

proptest! {
    /// Property 3: the sweep merges exactly as the pairwise loop did.
    #[test]
    fn merge_matches_the_pairwise_oracle(shard_reports in arb_shard_reports()) {
        prop_assert_eq!(
            merge_incidents(&shard_reports),
            quadratic_merge(shard_reports.clone())
        );
    }
}
