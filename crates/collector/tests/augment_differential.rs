//! `Collector::augment` against its oracle: the one-prefix UPDATE each
//! archive event stands for, replayed through `Collector::apply_update` —
//! the path batch ingestion took before `augment` existed, kept here
//! verbatim. Over generated per-peer streams (announces, implicit
//! replacements, withdrawals, stale withdrawals, withdrawals from peers
//! that never announced, with and without communities) both sides must
//! emit the same events, hold the same RIBs and count the same events.

use proptest::prelude::*;

use bgpscope_bgp::{
    AsPath, Community, Event, EventKind, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
    UpdateMessage,
};
use bgpscope_collector::Collector;

/// The UPDATE a decoded archive event stands for, ready to be replayed
/// through a collector.
fn update_of(event: &Event) -> UpdateMessage {
    match event.kind {
        EventKind::Announce => {
            UpdateMessage::announce(event.peer, event.attrs.clone(), [event.prefix])
        }
        EventKind::Withdraw => UpdateMessage::withdraw(event.peer, [event.prefix]),
    }
}

/// A peer that only ever withdraws: the collector never learns it.
const SILENT_PEER: u8 = 200;

#[derive(Debug, Clone)]
struct Op {
    withdraw: bool,
    peer: u8,
    prefix: u8,
    path: Vec<u32>,
    communities: Vec<u32>,
    med: Option<u32>,
}

/// (AS path, community values, MED).
type Attrs = (Vec<u32>, Vec<u32>, Option<u32>);

fn arb_attrs() -> impl Strategy<Value = Attrs> {
    (
        proptest::collection::vec(1u32..40, 0..5),
        proptest::collection::vec(1u32..6, 0..3),
        proptest::option::of(0u32..3),
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Few peers and prefixes, so announces often replace a live route
        // and withdrawals often find nothing to remove.
        4 => (1u8..4, 0u8..6, arb_attrs()).prop_map(|(peer, prefix, (path, communities, med))| {
            Op { withdraw: false, peer, prefix, path, communities, med }
        }),
        3 => (1u8..4, 0u8..6, arb_attrs()).prop_map(|(peer, prefix, (path, communities, med))| {
            Op { withdraw: true, peer, prefix, path, communities, med }
        }),
        1 => (0u8..6, arb_attrs()).prop_map(|(prefix, (path, communities, med))| {
            Op { withdraw: true, peer: SILENT_PEER, prefix, path, communities, med }
        }),
    ]
}

/// The archive event for `op` at `i`. A withdrawal carries whatever
/// attributes the archive claims; augmentation must replace them.
fn event_of(i: usize, op: &Op) -> Event {
    let mut attrs = PathAttributes::new(
        RouterId::from_octets(2, 2, 2, op.peer),
        AsPath::from_u32s(op.path.iter().copied()),
    );
    for &c in &op.communities {
        attrs.add_community(Community::new(65_000, c as u16));
    }
    if let Some(med) = op.med {
        attrs = attrs.with_med(med);
    }
    let time = Timestamp::from_secs(i as u64);
    let peer = PeerId::from_octets(1, 1, 1, op.peer);
    let prefix = Prefix::from_octets(10, op.prefix, 0, 0, 16);
    if op.withdraw {
        Event::withdraw(time, peer, prefix, attrs)
    } else {
        Event::announce(time, peer, prefix, attrs)
    }
}

proptest! {
    #[test]
    fn augment_matches_apply_update_of_the_one_prefix_update(
        ops in proptest::collection::vec(arb_op(), 0..120),
    ) {
        let mut oracle = Collector::new();
        let mut moved = Collector::new();
        for (i, op) in ops.iter().enumerate() {
            let event = event_of(i, op);
            let expected = oracle.apply_update(&update_of(&event), event.time);
            prop_assert!(expected.len() <= 1, "one prefix, at most one event");
            let got = moved.augment(event);
            prop_assert_eq!(got, expected.into_iter().next());
            prop_assert_eq!(moved.events_seen(), oracle.events_seen());
            prop_assert_eq!(moved.route_count(), oracle.route_count());
        }
        prop_assert_eq!(moved.snapshot(Timestamp::ZERO), oracle.snapshot(Timestamp::ZERO));
        let mut peers: Vec<PeerId> = moved.peers().collect();
        let mut oracle_peers: Vec<PeerId> = oracle.peers().collect();
        peers.sort();
        oracle_peers.sort();
        prop_assert_eq!(peers, oracle_peers);
    }
}

/// The generated streams must reach every case the differential claims.
#[test]
fn generated_streams_cover_every_augment_case() {
    let ops = [
        (false, 1, 0, vec![]),          // announce, empty communities
        (false, 1, 0, vec![3]),         // implicit replacement, communities
        (true, 1, 0, vec![]),           // withdraw of a live route
        (true, 1, 0, vec![1]),          // stale withdraw
        (true, SILENT_PEER, 0, vec![]), // unknown peer
    ];
    let mut rex = Collector::new();
    let outputs: Vec<Option<Event>> = ops
        .iter()
        .enumerate()
        .map(|(i, (withdraw, peer, prefix, communities))| {
            let op = Op {
                withdraw: *withdraw,
                peer: *peer,
                prefix: *prefix,
                path: vec![701, 1299],
                communities: communities.clone(),
                med: None,
            };
            rex.augment(event_of(i, &op))
        })
        .collect();
    assert!(outputs[0].as_ref().unwrap().attrs.communities.is_empty());
    assert_eq!(outputs[1].as_ref().unwrap().attrs.communities.len(), 1);
    assert_eq!(
        outputs[2].as_ref().unwrap().attrs,
        outputs[1].as_ref().unwrap().attrs
    );
    assert!(outputs[3].is_none() && outputs[4].is_none());
    assert_eq!(rex.peers().count(), 1);
}
