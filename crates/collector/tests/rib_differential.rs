//! The collector's Adj-RIB-Ins — prefix → attribute id per peer, over one
//! shared attribute table — against a by-value oracle: one
//! `BTreeMap<Prefix, PathAttributes>` per peer, the form the RIB had before
//! it held ids. Over generated streams of announcements, implicit
//! replacements, live and stale withdrawals (through `augment` and through
//! multi-prefix `apply_update`), session losses, session
//! re-establishments and snapshots, every returned event, route and prefix
//! count, snapshot and per-route lookup must match the oracle, and the
//! table must hold exactly the distinct sets the oracle's routes hold.
//!
//! The attribute sets come from a small pool that varies the AS path, next
//! hop, MED and communities, and each use either shares the pool's path
//! allocation (what a decoder hands out for a repeated path) or builds the
//! same hops anew: equal sets behind distinct allocations must collapse to
//! one id, and sets that differ only in MED or communities must not.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;

use bgpscope_bgp::{
    AsPath, Community, Event, PathAttributes, PeerId, Prefix, Route, RouterId, Timestamp,
    UpdateMessage,
};
use bgpscope_collector::Collector;

/// One generated attribute set: indexes into the pools below, plus
/// whether the AS path is a fresh allocation of the pooled hops.
#[derive(Debug, Clone, Copy)]
struct AttrSpec {
    path: usize,
    hop: u8,
    med: Option<u32>,
    communities: u8,
    fresh: bool,
}

const PATHS: [&[u32]; 4] = [&[701, 1299], &[701, 3356, 209], &[11423], &[]];

#[derive(Debug, Clone)]
enum Op {
    /// One per-prefix event through `augment`.
    Augment {
        withdraw: bool,
        peer: u8,
        prefix: u8,
        attrs: AttrSpec,
    },
    /// One UPDATE through `apply_update`: withdrawals, then announcements.
    Update {
        peer: u8,
        withdrawn: Vec<u8>,
        nlri: Vec<u8>,
        attrs: Option<AttrSpec>,
    },
    SessionLost(u8),
    SessionEstablished(u8, Vec<(u8, AttrSpec)>),
    Snapshot,
}

fn arb_attrs() -> impl Strategy<Value = AttrSpec> {
    (
        0..PATHS.len(),
        1u8..3,
        proptest::option::of(0u32..2),
        0u8..4,
        any::<bool>(),
    )
        .prop_map(|(path, hop, med, communities, fresh)| AttrSpec {
            path,
            hop,
            med,
            communities,
            fresh,
        })
}

/// Peers 1..=3 announce; peer 9 only ever withdraws.
fn arb_peer() -> impl Strategy<Value = u8> {
    prop_oneof![6 => 1u8..4, 1 => Just(9u8)]
}

fn arb_prefixes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..8, 0..4)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Few peers and prefixes, so announces often replace a live route
        // and withdrawals often find nothing to remove.
        8 => (any::<bool>(), arb_peer(), 0u8..8, arb_attrs()).prop_map(
            |(withdraw, peer, prefix, attrs)| Op::Augment { withdraw, peer, prefix, attrs }
        ),
        3 => (arb_peer(), arb_prefixes(), arb_prefixes(), proptest::option::of(arb_attrs()))
            .prop_map(|(peer, withdrawn, nlri, attrs)| Op::Update { peer, withdrawn, nlri, attrs }),
        1 => arb_peer().prop_map(Op::SessionLost),
        1 => (arb_peer(), proptest::collection::vec((0u8..8, arb_attrs()), 0..6))
            .prop_map(|(peer, table)| Op::SessionEstablished(peer, table)),
        1 => Just(Op::Snapshot),
    ]
}

fn peer_id(n: u8) -> PeerId {
    PeerId::from_octets(1, 1, 1, n)
}

fn prefix(n: u8) -> Prefix {
    Prefix::from_octets(10, n, 0, 0, 16)
}

/// The attribute set `spec` names; the path is the pooled allocation or a
/// fresh copy of its hops.
fn attrs_of(pool: &[AsPath], spec: AttrSpec) -> PathAttributes {
    let pooled = &pool[spec.path];
    let path = if spec.fresh {
        AsPath::from_asns(pooled.asns().iter().copied())
    } else {
        pooled.clone()
    };
    let mut attrs = PathAttributes::new(RouterId::from_octets(2, 2, 2, spec.hop), path);
    for bit in 0..2 {
        if spec.communities & (1 << bit) != 0 {
            attrs.add_community(Community::new(65_000, bit));
        }
    }
    if let Some(med) = spec.med {
        attrs = attrs.with_med(med);
    }
    attrs
}

/// The by-value Adj-RIB-Ins and event count the collector must agree with.
#[derive(Default)]
struct Oracle {
    peers: BTreeMap<PeerId, BTreeMap<Prefix, PathAttributes>>,
    events: u64,
}

impl Oracle {
    fn announce(&mut self, peer: PeerId, prefix: Prefix, attrs: PathAttributes) {
        self.peers.entry(peer).or_default().insert(prefix, attrs);
    }

    fn withdraw(&mut self, peer: PeerId, prefix: Prefix) -> Option<PathAttributes> {
        self.peers.get_mut(&peer)?.remove(&prefix)
    }

    fn snapshot(&self, time: Timestamp) -> Vec<Route> {
        self.peers
            .iter()
            .flat_map(|(&peer, rib)| {
                rib.iter().map(move |(&prefix, attrs)| Route {
                    prefix,
                    peer,
                    attrs: attrs.clone(),
                    time,
                })
            })
            .collect()
    }
}

/// Runs `op` on both sides and checks what each returned.
fn step(rex: &mut Collector, oracle: &mut Oracle, pool: &[AsPath], i: usize, op: &Op) {
    let time = Timestamp::from_secs(i as u64);
    match op {
        Op::Augment {
            withdraw,
            peer,
            prefix: px,
            attrs,
        } => {
            let (peer, px) = (peer_id(*peer), prefix(*px));
            let claimed = attrs_of(pool, *attrs);
            let expected = if *withdraw {
                oracle
                    .withdraw(peer, px)
                    .map(|old| Event::withdraw(time, peer, px, old))
            } else {
                oracle.announce(peer, px, claimed.clone());
                Some(Event::announce(time, peer, px, claimed.clone()))
            };
            oracle.events += u64::from(expected.is_some());
            let event = if *withdraw {
                Event::withdraw(time, peer, px, claimed)
            } else {
                Event::announce(time, peer, px, claimed)
            };
            prop_assert_eq!(rex.augment(event), expected);
        }
        Op::Update {
            peer,
            withdrawn,
            nlri,
            attrs,
        } => {
            let peer = peer_id(*peer);
            let attrs = attrs.map(|spec| attrs_of(pool, spec));
            let msg = UpdateMessage {
                peer,
                withdrawn: withdrawn.iter().map(|&n| prefix(n)).collect(),
                attrs: attrs.clone(),
                nlri: nlri.iter().map(|&n| prefix(n)).collect(),
            };
            let mut expected = Vec::new();
            for &px in &msg.withdrawn {
                if let Some(old) = oracle.withdraw(peer, px) {
                    expected.push(Event::withdraw(time, peer, px, old));
                }
            }
            if let Some(attrs) = &attrs {
                for &px in &msg.nlri {
                    oracle.announce(peer, px, attrs.clone());
                    expected.push(Event::announce(time, peer, px, attrs.clone()));
                }
            }
            oracle.events += expected.len() as u64;
            prop_assert_eq!(rex.apply_update(&msg, time), expected);
        }
        Op::SessionLost(peer) => {
            let peer = peer_id(*peer);
            let expected: Vec<Event> = oracle
                .peers
                .get_mut(&peer)
                .map(std::mem::take)
                .unwrap_or_default()
                .into_iter()
                .map(|(px, attrs)| Event::withdraw(time, peer, px, attrs))
                .collect();
            oracle.events += expected.len() as u64;
            // The storm comes in the RIB's order; compare by prefix.
            let mut storm = rex.session_lost(peer, time);
            storm.sort_by_key(|e| e.prefix);
            prop_assert_eq!(storm, expected);
        }
        Op::SessionEstablished(peer, table) => {
            let peer = peer_id(*peer);
            let table: Vec<(Prefix, PathAttributes)> = table
                .iter()
                .map(|&(px, spec)| (prefix(px), attrs_of(pool, spec)))
                .collect();
            oracle.peers.entry(peer).or_default();
            let expected: Vec<Event> = table
                .iter()
                .map(|(px, attrs)| {
                    oracle.announce(peer, *px, attrs.clone());
                    Event::announce(time, peer, *px, attrs.clone())
                })
                .collect();
            oracle.events += expected.len() as u64;
            prop_assert_eq!(rex.session_established(peer, &table, time), expected);
        }
        Op::Snapshot => prop_assert_eq!(rex.snapshot(time), oracle.snapshot(time)),
    }
}

/// Everything the collector exposes about its RIBs, against the oracle.
fn same_ribs(rex: &Collector, oracle: &Oracle) {
    prop_assert_eq!(rex.events_seen(), oracle.events);
    let routes: usize = oracle.peers.values().map(BTreeMap::len).sum();
    prop_assert_eq!(rex.route_count(), routes);
    let prefixes: BTreeSet<Prefix> = oracle
        .peers
        .values()
        .flat_map(|r| r.keys())
        .copied()
        .collect();
    prop_assert_eq!(rex.prefix_count(), prefixes.len());
    let peers: BTreeSet<PeerId> = rex.peers().collect();
    prop_assert!(peers.iter().eq(oracle.peers.keys()));
    // One table entry per distinct set the live routes hold, and each
    // route resolves to its set.
    let distinct: HashSet<&PathAttributes> =
        oracle.peers.values().flat_map(|r| r.values()).collect();
    prop_assert_eq!(rex.attr_sets(), distinct.len());
    for (&peer, rib) in &oracle.peers {
        for n in 0..8 {
            let got = rex.route(peer, prefix(n)).map(|(_, attrs)| attrs);
            prop_assert_eq!(got, rib.get(&prefix(n)));
        }
    }
}

proptest! {
    #[test]
    fn collector_ribs_match_the_by_value_oracle(
        ops in proptest::collection::vec(arb_op(), 0..150),
    ) {
        let pool: Vec<AsPath> = PATHS.iter().map(|hops| AsPath::from_u32s(hops.iter().copied())).collect();
        let mut rex = Collector::new();
        let mut oracle = Oracle::default();
        for (i, op) in ops.iter().enumerate() {
            step(&mut rex, &mut oracle, &pool, i, op);
            same_ribs(&rex, &oracle);
        }
        prop_assert_eq!(rex.snapshot(Timestamp::ZERO), oracle.snapshot(Timestamp::ZERO));
    }
}

fn attrs(hop: u8, path: &[u32]) -> PathAttributes {
    PathAttributes::new(
        RouterId::from_octets(2, 2, 2, hop),
        AsPath::from_u32s(path.iter().copied()),
    )
}

/// The table holds nothing once every route is gone, whichever way each
/// went, and a freed id is handed to the next new set.
#[test]
fn the_table_empties_with_the_ribs_and_reuses_a_freed_id() {
    let mut rex = Collector::new();
    let (a, b) = (peer_id(1), peer_id(2));
    let shared = attrs(1, &[701, 1299]);
    rex.session_established(
        a,
        &[(prefix(0), shared.clone()), (prefix(1), attrs(1, &[11423]))],
        Timestamp::ZERO,
    );
    rex.augment(Event::announce(
        Timestamp::ZERO,
        b,
        prefix(0),
        shared.clone(),
    ));
    rex.augment(Event::announce(
        Timestamp::ZERO,
        b,
        prefix(1),
        shared.with_med(1),
    ));
    assert_eq!(rex.attr_sets(), 3);

    let (freed, _) = rex.route(a, prefix(1)).expect("a live route");
    rex.apply_update(&UpdateMessage::withdraw(a, [prefix(1)]), Timestamp::ZERO);
    assert_eq!(rex.attr_sets(), 2);
    let next = attrs(2, &[3356]);
    rex.augment(Event::announce(Timestamp::ZERO, a, prefix(2), next.clone()));
    let (reused, held) = rex.route(a, prefix(2)).expect("a live route");
    assert_eq!(reused, freed, "the freed id goes to the next new set");
    assert_eq!(held, &next);

    rex.session_lost(a, Timestamp::from_secs(1));
    for n in 0..2 {
        let withdraw = Event::withdraw(Timestamp::from_secs(2), b, prefix(n), attrs(9, &[]));
        assert!(rex.augment(withdraw).is_some());
    }
    assert_eq!(rex.route_count(), 0);
    assert_eq!(rex.attr_sets(), 0);
}
