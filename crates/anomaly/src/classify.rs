//! Structural classification of Stemming components.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use bgpscope_bgp::{AsPath, Asn, Event, EventKind, EventStream, RouterId, Timestamp};
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
/// Signatures, checked in order; the first that matches decides:
///
/// 1. **Origin hijack** — fewer than 8 events per prefix, and some prefix is
///    announced with two different origin ASes (the note names the first
///    such prefix).
/// 2. **Oscillation / flap** — at least 8 events per prefix, and a mean of at
///    least 12 state changes per (peer, prefix) timeline, a change being a
///    consecutive pair that differs in kind, nexthop or AS path. A cycle
///    period (the component's span over that mean) of at most 1 s, with
///    either two origins for some prefix or two distinct announced
///    (nexthop, path) pairs ⇒ MED-style oscillation; otherwise ⇒ continuous
///    flap.
/// 3. **Session reset / mass withdrawal** — at least 5 prefixes and 25%
///    withdrawals. Announcements restoring a withdrawn (prefix, path), at
///    least half as many as the withdrawals ⇒ reset. Failing that, 80%
///    withdrawals from a single peer ⇒ reset; from several ⇒ mass
///    withdrawal.
/// 4. **Route leak** — at least 5 prefixes and 50% announcements, and at
///    least half the prefixes announced on a path 3+ hops longer than the
///    shortest path any of their events carries.
/// 5. **Path shift** — at least 5 prefixes and 80% announcements, and at
///    least half the prefixes announced on two or more distinct
///    (nexthop, path) pairs.
///
/// Otherwise — and for an empty component — the verdict is **Unknown**.
///
/// The component's events are sorted once by (prefix, peer), component
/// order kept inside each run, and every signature is read off that one
/// vector's prefix runs and (prefix, peer) runs; the reset test re-sorts it
/// in place by (prefix, path), the oscillation test by (nexthop, path). A
/// component costs the same few allocations whatever its size.
pub fn classify(component: &Component, stream: &EventStream) -> Verdict {
    if component.event_indices.is_empty() {
        return Verdict {
            kind: AnomalyKind::Unknown,
            confidence: 0.0,
            notes: vec!["empty component".into()],
        };
    }
    let stream = stream.events();
    // An event's position in the component is its last sort key, so the
    // unstable sort, which allocates nothing, keeps component order.
    let mut events: Vec<Ref<'_>> = component
        .event_indices
        .iter()
        .enumerate()
        .map(|(at, &i)| (&stream[i], at))
        .collect();
    events.sort_unstable_by(|(a, i), (b, j)| (a.prefix, a.peer, i).cmp(&(b.prefix, b.peer, j)));

    let n = events.len() as f64;
    let wd_frac = component.withdraw_count as f64 / n;
    let ann_frac = component.announce_count as f64 / n;
    let epp = component.events_per_prefix();
    let mut notes = Vec::new();

    // 1. Origin hijack — only when the component is not flap-shaped: a fast
    // oscillation between alternate paths can also cross origins, but its
    // events-per-prefix signature is the stronger evidence.
    if epp < 8.0 {
        if let Some(run) = prefix_runs(&events).find(|run| has_two_origins(run)) {
            let asns: BTreeSet<Asn> = announced(run)
                .filter_map(|e| e.attrs.as_path.origin_as())
                .collect();
            notes.push(format!(
                "prefix {} announced by {} distinct origin ASes: {:?}",
                run[0].0.prefix,
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
    if epp >= 8.0 {
        let transitions = mean_transitions_per_peer_prefix(&events);
        if transitions >= 12.0 {
            notes.push(format!(
                "{epp:.1} events per prefix, {transitions:.0} transitions per (peer, prefix)"
            ));
            // Oscillation vs flap: the cycle period. A flapping session
            // cycles on human timescales (the paper's customer: once a
            // minute); the MED oscillation cycles in micro/milliseconds.
            // Estimate the period as the component duration over the
            // per-(peer, prefix) transition count.
            let cycle_period_secs = component.timerange().as_secs_f64() / transitions.max(1.0);
            let two_origins = prefix_runs(&events).any(has_two_origins);
            let paths = distinct_paths(&mut events);
            if cycle_period_secs <= 1.0 && (two_origins || paths >= 2) {
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
    }

    // 3. Session reset / mass withdrawal. The gate is lenient (25%
    // withdrawals) because a reset window usually also contains the
    // pre-incident announcements and the post-reset table re-exchange; the
    // restored-paths check below is the discriminating signal.
    if component.prefix_count() >= 5 && wd_frac >= 0.25 {
        let restored = restored_paths(&mut events);
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
            let first_peer = events[0].0.peer;
            if events.iter().all(|(e, _)| e.peer == first_peer) {
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
        let elongated = prefix_runs(&events)
            .filter(|run| {
                let shortest = run.iter().map(|(e, _)| e.attrs.as_path.hop_count()).min();
                let longest = announced(run).map(|e| e.attrs.as_path.hop_count()).max();
                longest.unwrap_or(0) >= shortest.unwrap_or(0) + 3
            })
            .count();
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
        let moved = prefix_runs(&events)
            .filter(|run| two_distinct(announced(run).map(path_of)))
            .count();
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

/// One event of the component being classified, with its position in the
/// component.
type Ref<'a> = (&'a Event, usize);

/// The runs of `events` that share a prefix.
fn prefix_runs<'e, 'a>(events: &'e [Ref<'a>]) -> impl Iterator<Item = &'e [Ref<'a>]> {
    events.chunk_by(|(a, _), (b, _)| a.prefix == b.prefix)
}

/// The announcements among `events`.
fn announced<'e, 'a>(events: &'e [Ref<'a>]) -> impl Iterator<Item = &'a Event> + 'e {
    events
        .iter()
        .map(|&(e, _)| e)
        .filter(|e| e.kind == EventKind::Announce)
}

/// Whether `run`'s announcements name two different origin ASes.
fn has_two_origins(run: &[Ref<'_>]) -> bool {
    two_distinct(announced(run).filter_map(|e| e.attrs.as_path.origin_as()))
}

/// Whether `items` yields two different values.
fn two_distinct<T: PartialEq>(mut items: impl Iterator<Item = T>) -> bool {
    match items.next() {
        Some(first) => items.any(|item| item != first),
        None => false,
    }
}

/// An announcement's path as the oscillation and shift tests tell paths
/// apart: nexthop and AS path.
fn path_of(e: &Event) -> (RouterId, &AsPath) {
    (e.attrs.next_hop, &e.attrs.as_path)
}

/// Median gap between consecutive event times in the component.
fn median_interarrival(events: &[Ref<'_>]) -> Timestamp {
    // The sorted times become their gaps in place: one buffer.
    let mut gaps: Vec<u64> = events.iter().map(|(e, _)| e.time.as_micros()).collect();
    gaps.sort_unstable();
    for i in 1..gaps.len() {
        gaps[i - 1] = gaps[i] - gaps[i - 1];
    }
    gaps.pop();
    if gaps.is_empty() {
        return Timestamp::ZERO;
    }
    gaps.sort_unstable();
    Timestamp::from_micros(gaps[gaps.len() / 2])
}

/// Mean number of state transitions per (peer, prefix) timeline — a
/// transition is any consecutive pair of events that differ in kind,
/// nexthop, or AS path. `events` are in (prefix, peer) order, component
/// order inside each run.
fn mean_transitions_per_peer_prefix(events: &[Ref<'_>]) -> f64 {
    fn state(e: &Event) -> (EventKind, RouterId, &AsPath) {
        (e.kind, e.attrs.next_hop, &e.attrs.as_path)
    }
    let mut timelines = 0u64;
    let mut transitions = 0u64;
    for run in events.chunk_by(|(a, _), (b, _)| (a.prefix, a.peer) == (b.prefix, b.peer)) {
        timelines += 1;
        transitions += run
            .windows(2)
            .filter(|pair| state(pair[0].0) != state(pair[1].0))
            .count() as u64;
    }
    transitions as f64 / timelines.max(1) as f64
}

/// Number of distinct (nexthop, AS path) pairs among announcements. Sorts
/// `events` by that pair, so equal ones are adjacent.
fn distinct_paths(events: &mut [Ref<'_>]) -> usize {
    events.sort_unstable_by(|(a, _), (b, _)| path_of(a).cmp(&path_of(b)));
    let mut distinct = 0;
    let mut last = None;
    for path in announced(events).map(path_of) {
        if last != Some(path) {
            distinct += 1;
            last = Some(path);
        }
    }
    distinct
}

/// Announcements that restore a withdrawn (prefix, AS path) — with the
/// withdrawals, a session's tables going and coming back. Sorts `events` by
/// (prefix, path), which keeps each prefix's events together.
fn restored_paths(events: &mut [Ref<'_>]) -> usize {
    events.sort_unstable_by(|(a, _), (b, _)| {
        (a.prefix, &a.attrs.as_path).cmp(&(b.prefix, &b.attrs.as_path))
    });
    events
        .chunk_by(|(a, _), (b, _)| (a.prefix, &a.attrs.as_path) == (b.prefix, &b.attrs.as_path))
        .filter(|run| run.iter().any(|(e, _)| e.kind == EventKind::Withdraw))
        .map(|run| announced(run).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::{PathAttributes, PeerId, Prefix};
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
