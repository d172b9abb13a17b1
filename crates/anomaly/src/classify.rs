//! Structural classification of Stemming components.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use bgpscope_bgp::{Asn, EventKind, EventStream, Timestamp};
use bgpscope_stemming::Component;

/// The anomaly taxonomy, following the paper's case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// §II / §IV: a peering session reset — mass withdrawal of a peer's
    /// routes (usually followed by re-announcement).
    SessionReset,
    /// §IV-D: prefixes moved onto a longer (leaked) path.
    RouteLeak,
    /// §IV-E: continuous route flapping (announce/withdraw cycles over a
    /// long period).
    RouteFlap,
    /// §IV-F: persistent sub-second oscillation between alternate paths
    /// (the MED pattern).
    MedOscillation,
    /// Intro: a prefix announced with a different origin AS than before.
    OriginHijack,
    /// Withdraw-dominated but too diffuse to call a reset.
    MassWithdrawal,
    /// Announce-dominated mass movement of prefixes between paths of
    /// similar length — a failover / exit shift (e.g. an IGP-driven best
    /// change, or a session loss behind a dual-homed edge).
    PathShift,
    /// No signature matched.
    Unknown,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnomalyKind::SessionReset => "session reset",
            AnomalyKind::RouteLeak => "route leak",
            AnomalyKind::RouteFlap => "continuous route flap",
            AnomalyKind::MedOscillation => "persistent MED-style oscillation",
            AnomalyKind::OriginHijack => "origin hijack",
            AnomalyKind::MassWithdrawal => "mass withdrawal",
            AnomalyKind::PathShift => "mass path shift (failover)",
            AnomalyKind::Unknown => "unclassified",
        };
        write!(f, "{s}")
    }
}

/// A classification with supporting evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The classified anomaly kind.
    pub kind: AnomalyKind,
    /// Heuristic confidence in `0..=1`.
    pub confidence: f64,
    /// Human-readable evidence notes.
    pub notes: Vec<String>,
}

/// Classifies one component against the stream it was extracted from.
///
/// Signatures (checked in order):
///
/// 1. **Origin hijack** — some prefix is announced with two different origin
///    ASes inside the component.
/// 2. **Oscillation / flap** — many events per prefix. Sub-second median
///    inter-arrival with alternation between ≥ 2 distinct paths ⇒ MED-style
///    oscillation; slower cycles ⇒ continuous flap.
/// 3. **Session reset / mass withdrawal** — withdrawal-dominated over many
///    prefixes. A single peer (or withdrawals paired with re-announcements
///    of the same paths) ⇒ reset.
/// 4. **Route leak** — announcement-dominated with announcements moving
///    prefixes onto clearly longer AS paths than the withdrawn ones.
pub fn classify(component: &Component, stream: &EventStream) -> Verdict {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::{Event, PathAttributes, PeerId, Prefix, RouterId};
    use bgpscope_stemming::Stemming;

    fn peer(n: u8) -> PeerId {
        PeerId::from_octets(1, 1, 1, n)
    }

    fn hop(n: u8) -> RouterId {
        RouterId::from_octets(2, 2, 2, n)
    }

    fn top_verdict(stream: &EventStream) -> Verdict {
        let result = Stemming::new().decompose(stream);
        classify(&result.components()[0], stream)
    }

    #[test]
    fn session_reset_signature() {
        let mut stream = EventStream::new();
        for i in 0..40u8 {
            stream.push(Event::withdraw(
                Timestamp::from_millis(i as u64 * 50),
                peer(1),
                Prefix::from_octets(10, i, 0, 0, 16),
                PathAttributes::new(hop(1), "11423 209 701".parse().unwrap()),
            ));
        }
        // Re-announcements a minute later (session re-established).
        for i in 0..40u8 {
            stream.push(Event::announce(
                Timestamp::from_secs(60 + i as u64),
                peer(1),
                Prefix::from_octets(10, i, 0, 0, 16),
                PathAttributes::new(hop(1), "11423 209 701".parse().unwrap()),
            ));
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::SessionReset, "notes: {:?}", v.notes);
    }

    #[test]
    fn med_oscillation_signature() {
        let mut stream = EventStream::new();
        let px: Prefix = "4.5.0.0/16".parse().unwrap();
        for i in 0..200u64 {
            let attrs = if i % 2 == 0 {
                PathAttributes::new(hop(1), "2 9".parse().unwrap())
            } else {
                PathAttributes::new(hop(2), "1 9".parse().unwrap())
            };
            stream.push(Event::announce(
                Timestamp::from_millis(i * 10),
                peer(1),
                px,
                attrs,
            ));
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::MedOscillation, "notes: {:?}", v.notes);
        assert!(v.confidence > 0.5);
    }

    #[test]
    fn slow_flap_signature() {
        let mut stream = EventStream::new();
        let px: Prefix = "20.0.0.0/16".parse().unwrap();
        // One cycle per minute: too slow for the oscillation signature.
        for i in 0..60u64 {
            let attrs = PathAttributes::new(hop(1), "100 200".parse().unwrap());
            let e = if i % 2 == 0 {
                Event::announce(Timestamp::from_secs(i * 60), peer(1), px, attrs)
            } else {
                Event::withdraw(Timestamp::from_secs(i * 60), peer(1), px, attrs)
            };
            stream.push(e);
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::RouteFlap, "notes: {:?}", v.notes);
    }

    #[test]
    fn hijack_signature() {
        let mut stream = EventStream::new();
        let px: Prefix = "1.2.3.0/24".parse().unwrap();
        for i in 0..3u64 {
            stream.push(Event::announce(
                Timestamp::from_secs(i),
                peer(1),
                px,
                PathAttributes::new(hop(1), "100 300".parse().unwrap()),
            ));
        }
        for i in 3..6u64 {
            stream.push(Event::announce(
                Timestamp::from_secs(i),
                peer(1),
                px,
                PathAttributes::new(hop(2), "666".parse().unwrap()),
            ));
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::OriginHijack, "notes: {:?}", v.notes);
        assert!(v.notes[0].contains("666") || v.notes[0].contains("distinct origin"));
    }

    #[test]
    fn route_leak_signature() {
        let mut stream = EventStream::new();
        for i in 0..20u8 {
            let px = Prefix::from_octets(30, i, 0, 0, 16);
            // Withdrawn from the short path…
            stream.push(Event::withdraw(
                Timestamp::from_secs(i as u64),
                peer(1),
                px,
                PathAttributes::new(hop(1), "11423 209".parse().unwrap()),
            ));
            // …announced on a 6-hop leaked path.
            stream.push(Event::announce(
                Timestamp::from_secs(i as u64 + 1),
                peer(1),
                px,
                PathAttributes::new(
                    hop(2),
                    "11423 11422 10927 1909 195 2152 3356".parse().unwrap(),
                ),
            ));
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::RouteLeak, "notes: {:?}", v.notes);
    }

    #[test]
    fn path_shift_signature() {
        // Dual-homed failover: every prefix announced on path A, then on
        // path B — announce-only, similar lengths.
        let mut stream = EventStream::new();
        for i in 0..20u8 {
            let px = Prefix::from_octets(40, i, 0, 0, 16);
            stream.push(Event::announce(
                Timestamp::from_secs(i as u64),
                peer(1),
                px,
                PathAttributes::new(hop(1), "701 9000".parse().unwrap()),
            ));
            stream.push(Event::announce(
                Timestamp::from_secs(100 + i as u64),
                peer(1),
                px,
                PathAttributes::new(hop(2), "3356 9000".parse().unwrap()),
            ));
        }
        let v = top_verdict(&stream);
        assert_eq!(v.kind, AnomalyKind::PathShift, "notes: {:?}", v.notes);
    }

    #[test]
    fn empty_component_unknown() {
        use bgpscope_bgp::intern::Symbol;
        use bgpscope_stemming::{Component, Stem};
        let c = Component {
            subsequence: vec![Symbol(0), Symbol(1)],
            stem: Stem(Symbol(0), Symbol(1)),
            support: 0,
            prefixes: Default::default(),
            event_indices: vec![],
            start: Timestamp::ZERO,
            end: Timestamp::ZERO,
            announce_count: 0,
            withdraw_count: 0,
        };
        let v = classify(&c, &EventStream::new());
        assert_eq!(v.kind, AnomalyKind::Unknown);
        assert_eq!(v.confidence, 0.0);
    }
}
