//! Differential harness: `classify` — one sort of the component's events,
//! every signature read off its runs — must return the **same `Verdict`**,
//! kind, confidence and every note byte for byte, as the map-and-set
//! implementation it replaced, kept below verbatim as the oracle
//! (`classify_oracle`, test-only, never a second public path).
//!
//! The generator builds streams of every shape the classifier tells apart —
//! hijack, flap, oscillation, reset, mass withdrawal, leak, shift and
//! unclassified noise — with their parameters drawn across the thresholds,
//! so both sides of each test are hit. Each stream is classified twice over:
//! every component Stemming extracts from it, and the whole stream as one
//! component whose indices come in a scrambled order (and sometimes
//! repeat), which is what makes per-timeline order matter.
//! `every_shape_reaches_its_signature` keeps the generator honest: each
//! shape must produce its own verdict.
//!
//! Case count honors `PROPTEST_CASES` (CI raises it to 1024, in `--release`).

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use bgpscope_anomaly::{classify, AnomalyKind, Verdict};
use bgpscope_bgp::intern::Symbol;
use bgpscope_bgp::{
    AsPath, Asn, Event, EventKind, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
};
use bgpscope_stemming::{Component, Stem, Stemming};

/// The shapes, in the order `build` takes them, and the verdict each is
/// built to reach.
const SHAPES: [AnomalyKind; 8] = [
    AnomalyKind::OriginHijack,
    AnomalyKind::RouteFlap,
    AnomalyKind::MedOscillation,
    AnomalyKind::SessionReset,
    AnomalyKind::MassWithdrawal,
    AnomalyKind::RouteLeak,
    AnomalyKind::PathShift,
    AnomalyKind::Unknown,
];

/// splitmix64: the builders' randomness, from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

fn peer(n: u64) -> PeerId {
    PeerId::from_octets(128, 32, 1, n as u8)
}

fn hop(n: u64) -> RouterId {
    RouterId::from_octets(128, 32, 0, n as u8)
}

fn prefix(n: u64) -> Prefix {
    Prefix::from_octets(10, (n / 256) as u8, (n % 256) as u8, 0, 24)
}

fn path(asns: &[u32]) -> AsPath {
    AsPath::from_u32s(asns.iter().copied())
}

fn event(
    announce: bool,
    micros: u64,
    peer: PeerId,
    prefix: Prefix,
    hop: RouterId,
    path: AsPath,
) -> Event {
    let attrs = PathAttributes::new(hop, path);
    let time = Timestamp::from_micros(micros);
    if announce {
        Event::announce(time, peer, prefix, attrs)
    } else {
        Event::withdraw(time, peer, prefix, attrs)
    }
}

/// A stream of shape `SHAPES[shape]`, its parameters drawn from `seed`.
fn build(shape: usize, seed: u64) -> EventStream {
    let mut rng = Rng(seed);
    let mut events = Vec::new();
    let second = 1_000_000;
    match shape {
        // Hijack: a few events per prefix, some prefixes also announced
        // from a second origin (or, now and then, none of them).
        0 => {
            let prefixes = rng.range(1, 7);
            let hijacked = rng.range(0, prefixes + 1);
            for p in 0..prefixes {
                for k in 0..rng.range(1, 5) {
                    let announce = rng.chance(80);
                    let t = (p * 10 + k) * second;
                    events.push(event(
                        announce,
                        t,
                        peer(rng.range(1, 3)),
                        prefix(p),
                        hop(1),
                        path(&[100, 200, 300 + p as u32]),
                    ));
                }
                if p < hijacked {
                    let origin = [666, 667][rng.range(0, 2) as usize];
                    events.push(event(
                        true,
                        (p * 10 + 7) * second,
                        peer(1),
                        prefix(p),
                        hop(2),
                        path(&[origin]),
                    ));
                }
            }
        }
        // Flap: announce / withdraw cycles a minute or so apart, on one or
        // two prefixes, each from one peer or from two interleaved ones
        // (separate timelines of the same prefix).
        1 => {
            let prefixes = rng.range(1, 3);
            let cycles = rng.range(3, 30);
            let gap = rng.range(1, 120) * second;
            for p in 0..prefixes {
                let peers = rng.range(1, 3);
                for k in 0..cycles * 2 {
                    events.push(event(
                        k % 2 == 0,
                        k * gap + p,
                        peer(rng.range(1, peers + 1)),
                        prefix(p),
                        hop(1),
                        path(&[100, 200]),
                    ));
                }
            }
        }
        // Oscillation: fast alternation between two paths (sometimes the
        // same one twice, sometimes two origins), sub-millisecond to
        // seconds apart, heard from one peer or two. Withdrawals now and
        // then name a path no announcement in the window carries.
        2 => {
            let prefixes = rng.range(1, 3);
            let flips = rng.range(8, 120);
            let gap = rng.range(10, 2_000_000);
            let same = rng.chance(15);
            let crossed = rng.chance(30);
            let peers = rng.range(1, 3);
            for p in 0..prefixes {
                for k in 0..flips {
                    let announce = !rng.chance(10);
                    let (h, asns): (u64, &[u32]) = if !announce && rng.chance(30) {
                        (3, &[5, 9])
                    } else if k % 2 == 0 || same {
                        (1, &[2, 9])
                    } else if crossed {
                        (2, &[1, 8])
                    } else {
                        (2, &[1, 9])
                    };
                    events.push(event(
                        announce,
                        k * gap + p,
                        peer(rng.range(1, peers + 1)),
                        prefix(p),
                        hop(h),
                        path(asns),
                    ));
                }
            }
        }
        // Reset: one peer withdraws its table, then re-announces a share
        // of the same paths (the rest on new ones), a minute later.
        3 => {
            let prefixes = rng.range(3, 40);
            let restored = rng.range(0, 101);
            let peers = if rng.chance(70) { 1 } else { 3 };
            for p in 0..prefixes {
                let asns = [11423, 209, 701 + (p % 5) as u32];
                let who = peer(rng.range(1, peers + 1));
                events.push(event(
                    false,
                    p * 50_000,
                    who,
                    prefix(p),
                    hop(1),
                    path(&asns),
                ));
                if rng.chance(restored) {
                    events.push(event(
                        true,
                        60 * second + p * 50_000,
                        who,
                        prefix(p),
                        hop(1),
                        path(&asns),
                    ));
                } else if rng.chance(30) {
                    events.push(event(
                        true,
                        60 * second + p * 50_000,
                        who,
                        prefix(p),
                        hop(2),
                        path(&[3356, 701]),
                    ));
                }
            }
        }
        // Mass withdrawal: withdrawals from several peers on varied paths,
        // with a sprinkling of unrelated announcements.
        4 => {
            let prefixes = rng.range(3, 40);
            for p in 0..prefixes {
                let who = peer(rng.range(1, 5));
                events.push(event(
                    false,
                    p * second,
                    who,
                    prefix(p),
                    hop(rng.range(1, 4)),
                    path(&[100 + (p % 7) as u32, 200]),
                ));
                if rng.chance(12) {
                    events.push(event(
                        true,
                        p * second + 1,
                        who,
                        prefix(p),
                        hop(1),
                        path(&[300, 400]),
                    ));
                }
            }
        }
        // Leak: each prefix withdrawn from a short path and announced on
        // one 1–6 hops longer.
        5 => {
            let prefixes = rng.range(3, 30);
            for p in 0..prefixes {
                let stretch = rng.range(1, 7) as usize;
                let long: Vec<u32> =
                    [11423, 11422, 10927, 1909, 195, 2152, 3356][..1 + stretch].to_vec();
                if rng.chance(80) {
                    events.push(event(
                        false,
                        p * second,
                        peer(1),
                        prefix(p),
                        hop(1),
                        path(&[11423, 209]),
                    ));
                }
                events.push(event(
                    true,
                    p * second + 1,
                    peer(1),
                    prefix(p),
                    hop(2),
                    path(&long),
                ));
            }
        }
        // Shift: each prefix announced on path A, then on path B of a
        // similar length (or A again), now and then withdrawn — sometimes
        // from a path no announcement in the window carries.
        6 => {
            let prefixes = rng.range(3, 30);
            for p in 0..prefixes {
                events.push(event(
                    true,
                    p * second,
                    peer(1),
                    prefix(p),
                    hop(1),
                    path(&[701, 9000]),
                ));
                let (h, asns): (u64, &[u32]) = if rng.chance(75) {
                    (2, &[3356, 9000])
                } else {
                    (1, &[701, 9000])
                };
                events.push(event(
                    true,
                    100 * second + p,
                    peer(1),
                    prefix(p),
                    hop(h),
                    path(asns),
                ));
                if rng.chance(20) {
                    let (h, asns): (u64, &[u32]) = if rng.chance(50) {
                        (3, &[174, 9000])
                    } else {
                        (h, asns)
                    };
                    events.push(event(
                        false,
                        200 * second + p,
                        peer(1),
                        prefix(p),
                        hop(h),
                        path(asns),
                    ));
                }
            }
        }
        // Noise: anything, over a small universe.
        _ => {
            for _ in 0..rng.range(0, 150) {
                let asns: Vec<u32> = (0..rng.range(0, 5))
                    .map(|_| rng.range(1, 30) as u32)
                    .collect();
                events.push(event(
                    rng.chance(50),
                    rng.range(0, 100_000) * 1_000,
                    peer(rng.range(1, 4)),
                    Prefix::from_octets(
                        10,
                        rng.range(0, 25) as u8,
                        0,
                        0,
                        [16, 20, 24][rng.range(0, 3) as usize],
                    ),
                    hop(rng.range(1, 6)),
                    path(&asns),
                ));
            }
        }
    }
    events.sort_by_key(|e| e.time);
    events.into_iter().collect()
}

/// The whole stream as one component, its indices in an order drawn from
/// `seed`: ascending, reversed, or shuffled — and sometimes with repeats.
fn whole(stream: &EventStream, seed: u64) -> Component {
    let mut rng = Rng(seed ^ 0x5EED);
    let mut indices: Vec<usize> = (0..stream.len()).collect();
    match rng.range(0, 4) {
        0 => {}
        1 => indices.reverse(),
        _ => {
            for i in (1..indices.len()).rev() {
                indices.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
        }
    }
    if rng.chance(20) && !indices.is_empty() {
        for _ in 0..rng.range(1, 4) {
            let at = rng.range(0, indices.len() as u64) as usize;
            indices.insert(at, indices[rng.range(0, indices.len() as u64) as usize]);
        }
    }
    let events = stream.events();
    let announce_count = indices
        .iter()
        .filter(|&&i| events[i].kind == EventKind::Announce)
        .count();
    Component {
        subsequence: vec![Symbol(0), Symbol(1)],
        stem: Stem(Symbol(0), Symbol(1)),
        support: indices.len() as u64,
        prefixes: indices.iter().map(|&i| events[i].prefix).collect(),
        start: indices
            .iter()
            .map(|&i| events[i].time)
            .min()
            .unwrap_or(Timestamp::ZERO),
        end: indices
            .iter()
            .map(|&i| events[i].time)
            .max()
            .unwrap_or(Timestamp::ZERO),
        announce_count,
        withdraw_count: indices.len() - announce_count,
        event_indices: indices,
    }
}

proptest! {
    #[test]
    fn classify_matches_the_oracle(shape in 0usize..SHAPES.len(), seed in any::<u64>()) {
        let stream = build(shape, seed);
        let result = Stemming::new().decompose(&stream);
        for component in result.components() {
            prop_assert_eq!(classify(component, &stream), classify_oracle(component, &stream));
        }
        let component = whole(&stream, seed);
        prop_assert_eq!(classify(&component, &stream), classify_oracle(&component, &stream));
    }
}

#[test]
fn every_shape_reaches_its_signature() {
    for (shape, &kind) in SHAPES.iter().enumerate() {
        let reached = (0..256u64).any(|seed| {
            let stream = build(shape, seed);
            let component = whole(&stream, seed);
            classify_oracle(&component, &stream).kind == kind
        });
        assert!(reached, "no seed of shape {shape} reaches {kind:?}");
    }
}

#[test]
fn an_empty_component_matches_the_oracle() {
    let component = whole(&EventStream::new(), 0);
    assert_eq!(
        classify(&component, &EventStream::new()),
        classify_oracle(&component, &EventStream::new())
    );
}

// ---------------------------------------------------------------------------
// The oracle: `classify` as it was before it sorted once, verbatim.
// ---------------------------------------------------------------------------

fn classify_oracle(component: &Component, stream: &EventStream) -> Verdict {
    let events: Vec<&bgpscope_bgp::Event> = component
        .event_indices
        .iter()
        .map(|&i| &stream.events()[i])
        .collect();
    if events.is_empty() {
        return Verdict {
            kind: AnomalyKind::Unknown,
            confidence: 0.0,
            notes: vec!["empty component".into()],
        };
    }

    let n = events.len() as f64;
    let wd_frac = component.withdraw_count as f64 / n;
    let ann_frac = component.announce_count as f64 / n;
    let epp = component.events_per_prefix();
    let mut notes = Vec::new();

    // 1. Origin hijack — only when the component is not flap-shaped: a fast
    // oscillation between alternate paths can also cross origins, but its
    // events-per-prefix signature is the stronger evidence.
    let mut origins: BTreeMap<_, BTreeSet<Asn>> = BTreeMap::new();
    for e in &events {
        if e.kind == EventKind::Announce {
            if let Some(origin) = e.attrs.as_path.origin_as() {
                origins.entry(e.prefix).or_default().insert(origin);
            }
        }
    }
    if epp < 8.0 {
        if let Some((prefix, asns)) = origins.iter().find(|(_, s)| s.len() >= 2) {
            notes.push(format!(
                "prefix {prefix} announced by {} distinct origin ASes: {:?}",
                asns.len(),
                asns
            ));
            return Verdict {
                kind: AnomalyKind::OriginHijack,
                confidence: 0.9,
                notes,
            };
        }
    }

    // 2. Oscillation / flap. Events-per-prefix alone cannot separate a flap
    // from a leak that moved prefixes back and forth a couple of times — the
    // discriminating signal is *sustained repetition*: how many times each
    // (peer, prefix) timeline changed state. A two-cycle leak yields a
    // handful of transitions; a flap yields two per cycle, indefinitely.
    let transitions = mean_transitions_per_peer_prefix(&events);
    if epp >= 8.0 && transitions >= 12.0 {
        notes.push(format!(
            "{epp:.1} events per prefix, {transitions:.0} transitions per (peer, prefix)"
        ));
        // Oscillation vs flap: the cycle period. A flapping session cycles
        // on human timescales (the paper's customer: once a minute); the
        // MED oscillation cycles in micro/milliseconds. Estimate the period
        // as the component duration over the per-(peer, prefix) transition
        // count.
        let cycle_period_secs = component.timerange().as_secs_f64() / transitions.max(1.0);
        let paths = distinct_paths(&events);
        let alternating_paths =
            origins.values().map(BTreeSet::len).max().unwrap_or(0) >= 2 || paths >= 2;
        if cycle_period_secs <= 1.0 && alternating_paths {
            notes.push(format!(
                "~{cycle_period_secs:.4} s cycle period with {paths} distinct paths"
            ));
            return Verdict {
                kind: AnomalyKind::MedOscillation,
                confidence: 0.85,
                notes,
            };
        }
        notes.push(format!(
            "~{:.1} s cycle period, median inter-arrival {}",
            cycle_period_secs,
            median_interarrival(&events)
        ));
        return Verdict {
            kind: AnomalyKind::RouteFlap,
            confidence: 0.8,
            notes,
        };
    }

    // 3. Session reset / mass withdrawal. The gate is lenient (25%
    // withdrawals) because a reset window usually also contains the
    // pre-incident announcements and the post-reset table re-exchange; the
    // restored-paths check below is the discriminating signal.
    if component.prefix_count() >= 5 && wd_frac >= 0.25 {
        let peers: BTreeSet<_> = events.iter().map(|e| e.peer).collect();
        // Re-announcement check: announcements that restore a withdrawn path.
        let withdrawn_paths: BTreeSet<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Withdraw)
            .map(|e| (&e.prefix, &e.attrs.as_path))
            .collect();
        let restored = events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Announce
                    && withdrawn_paths.contains(&(&e.prefix, &e.attrs.as_path))
            })
            .count();
        if restored as f64 >= 0.5 * component.withdraw_count as f64 {
            // Withdrawals paired with re-announcements of the same paths:
            // the session came back and the tables were re-exchanged.
            notes.push(format!(
                "withdrawal-dominated ({:.0}%), {} restored paths",
                wd_frac * 100.0,
                restored
            ));
            return Verdict {
                kind: AnomalyKind::SessionReset,
                confidence: 0.8,
                notes,
            };
        }
        if wd_frac >= 0.8 {
            if peers.len() == 1 {
                notes.push(format!(
                    "pure withdrawal storm from a single peer ({} events)",
                    component.withdraw_count
                ));
                return Verdict {
                    kind: AnomalyKind::SessionReset,
                    confidence: 0.7,
                    notes,
                };
            }
            notes.push(format!(
                "withdrawal-dominated ({:.0}%), diffuse",
                wd_frac * 100.0
            ));
            return Verdict {
                kind: AnomalyKind::MassWithdrawal,
                confidence: 0.6,
                notes,
            };
        }
    }

    // 4. Route leak: per prefix, announcements stretch onto a *much* longer
    // path than the prefix's shortest known path. Leaked paths typically
    // gain several AS hops (the paper's example: 2 hops -> 6 hops); flaps
    // and failovers move between paths of comparable length.
    if ann_frac >= 0.5 && component.prefix_count() >= 5 {
        // Per prefix: the shortest path seen in ANY event (withdrawals show
        // the pre-leak path) vs the longest ANNOUNCED path (the leak).
        let mut span: BTreeMap<_, (usize, usize)> = BTreeMap::new(); // (min any, max announced)
        for e in &events {
            let len = e.attrs.as_path.hop_count();
            let entry = span.entry(e.prefix).or_insert((len, 0));
            entry.0 = entry.0.min(len);
            if e.kind == EventKind::Announce {
                entry.1 = entry.1.max(len);
            }
        }
        let elongated = span.values().filter(|(lo, hi)| *hi >= lo + 3).count();
        let elongated_frac = elongated as f64 / component.prefix_count().max(1) as f64;
        if elongated_frac >= 0.5 {
            notes.push(format!(
                "{:.0}% of prefixes announced on paths 3+ hops longer than their shortest",
                elongated_frac * 100.0
            ));
            return Verdict {
                kind: AnomalyKind::RouteLeak,
                confidence: 0.75,
                notes,
            };
        }
    }

    // 5. Mass path shift: announce-dominated, most prefixes announced on
    // two or more distinct paths (they moved), path lengths similar (so not
    // a leak).
    if ann_frac >= 0.8 && component.prefix_count() >= 5 {
        let mut paths_per_prefix: BTreeMap<_, BTreeSet<_>> = BTreeMap::new();
        for e in &events {
            if e.kind == EventKind::Announce {
                paths_per_prefix
                    .entry(e.prefix)
                    .or_default()
                    .insert((e.attrs.next_hop, &e.attrs.as_path));
            }
        }
        let moved = paths_per_prefix.values().filter(|s| s.len() >= 2).count();
        let moved_frac = moved as f64 / component.prefix_count().max(1) as f64;
        if moved_frac >= 0.5 {
            notes.push(format!(
                "{:.0}% of prefixes announced on 2+ distinct paths",
                moved_frac * 100.0
            ));
            return Verdict {
                kind: AnomalyKind::PathShift,
                confidence: 0.7,
                notes,
            };
        }
    }

    notes.push(format!(
        "{} events, {} prefixes, {:.0}% withdrawals — no signature matched",
        events.len(),
        component.prefix_count(),
        wd_frac * 100.0
    ));
    Verdict {
        kind: AnomalyKind::Unknown,
        confidence: 0.2,
        notes,
    }
}

/// Median gap between consecutive event times in the component.
fn median_interarrival(events: &[&bgpscope_bgp::Event]) -> Timestamp {
    let mut times: Vec<Timestamp> = events.iter().map(|e| e.time).collect();
    times.sort_unstable();
    let mut gaps: Vec<u64> = times
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]).as_micros())
        .collect();
    if gaps.is_empty() {
        return Timestamp::ZERO;
    }
    gaps.sort_unstable();
    Timestamp::from_micros(gaps[gaps.len() / 2])
}

/// Mean number of state transitions per (peer, prefix) timeline — a
/// transition is any consecutive pair of events that differ in kind,
/// nexthop, or AS path.
fn mean_transitions_per_peer_prefix(events: &[&bgpscope_bgp::Event]) -> f64 {
    use std::collections::hash_map::{Entry, HashMap};
    // Per (peer, prefix): the last state seen and the transitions so far.
    let mut timelines = HashMap::new();
    // Events are scanned in stream order (component indices are ordered).
    for e in events {
        let state = (e.kind, e.attrs.next_hop, &e.attrs.as_path);
        match timelines.entry((e.peer, e.prefix)) {
            Entry::Occupied(mut timeline) => {
                let (last, transitions) = timeline.get_mut();
                if *last != state {
                    *last = state;
                    *transitions += 1;
                }
            }
            Entry::Vacant(timeline) => {
                timeline.insert((state, 0u64));
            }
        }
    }
    if timelines.is_empty() {
        return 0.0;
    }
    let transitions: u64 = timelines.values().map(|(_, transitions)| transitions).sum();
    transitions as f64 / timelines.len() as f64
}

/// Number of distinct (nexthop, AS path) pairs among announcements.
fn distinct_paths(events: &[&bgpscope_bgp::Event]) -> usize {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Announce)
        .map(|e| (e.attrs.next_hop, &e.attrs.as_path))
        .collect::<BTreeSet<_>>()
        .len()
}
