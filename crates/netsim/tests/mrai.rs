//! MRAI conformance: the pacing rules of RFC 4271 §9.2.1.1, checked
//! against the wire (the delivery log), not against internal counters.

use std::collections::HashMap;

use bgpscope_bgp::{AsPath, Asn, PathAttributes, Prefix, RouterId, Timestamp, UpdateMessage};
use bgpscope_netsim::{
    FlapSchedule, Injector, MraiConfig, ProtocolConfig, SessionKind, Sim, SimBuilder,
};

fn rid(n: u8) -> RouterId {
    RouterId::from_octets(10, 0, 0, n)
}

fn chain(seed: u64, protocol: ProtocolConfig) -> Sim {
    let mut sim = SimBuilder::new(seed)
        .router(rid(1), Asn(1))
        .router(rid(2), Asn(2))
        .router(rid(3), Asn(3))
        .session(rid(1), rid(2), SessionKind::Ebgp)
        .session(rid(2), rid(3), SessionKind::Ebgp)
        .monitor(rid(3))
        .protocol(protocol)
        .build();
    sim.jitter_max_micros = 0;
    sim.record_deliveries = true;
    sim
}

/// Announcement instants per `(from, to, prefix)` from the wire.
fn announce_times(
    log: &[(RouterId, RouterId, UpdateMessage, Timestamp)],
) -> HashMap<(RouterId, RouterId, Prefix), Vec<Timestamp>> {
    let mut out: HashMap<(RouterId, RouterId, Prefix), Vec<Timestamp>> = HashMap::new();
    for (from, to, msg, t) in log {
        for &px in &msg.nlri {
            out.entry((*from, *to, px)).or_default().push(*t);
        }
    }
    out
}

/// Withdrawal instants per `(from, to, prefix)` from the wire.
fn withdraw_times(
    log: &[(RouterId, RouterId, UpdateMessage, Timestamp)],
) -> HashMap<(RouterId, RouterId, Prefix), Vec<Timestamp>> {
    let mut out: HashMap<(RouterId, RouterId, Prefix), Vec<Timestamp>> = HashMap::new();
    for (from, to, msg, t) in log {
        for &px in &msg.withdrawn {
            out.entry((*from, *to, px)).or_default().push(*t);
        }
    }
    out
}

fn assert_min_gap(times: &HashMap<(RouterId, RouterId, Prefix), Vec<Timestamp>>, min: Timestamp) {
    for ((from, to, px), ts) in times {
        for w in ts.windows(2) {
            let gap = w[1].saturating_since(w[0]);
            assert!(
                gap >= min,
                "{from}->{to} re-advertised {px} after only {gap:?} (MRAI {min:?})"
            );
        }
    }
}

/// No two advertisements of the same prefix on the same session closer
/// than MRAI, even when the origin flaps an order of magnitude faster.
#[test]
fn advertisements_respect_min_gap() {
    let mrai = Timestamp::from_secs(2);
    let mut sim = chain(
        3,
        ProtocolConfig::default().with_mrai(MraiConfig::uniform(mrai)),
    );
    let px: Prefix = "30.0.0.0/16".parse().unwrap();
    Injector::route_flap(
        &mut sim,
        rid(1),
        px,
        PathAttributes::new(rid(1), AsPath::empty()),
        FlapSchedule {
            start: Timestamp::from_secs(1),
            period: Timestamp::from_millis(300),
            down_time: Timestamp::from_millis(150),
            count: 30,
        },
    );
    sim.run_to_completion();
    let log = sim.take_delivery_log();
    let ann = announce_times(&log);
    assert!(!ann.is_empty());
    assert_min_gap(&ann, mrai);
    // Pacing actually bit: far fewer wire advertisements than origin events.
    let total: usize = ann.values().map(Vec::len).sum();
    assert!(
        total < 30,
        "30 flap cycles should collapse under a 2 s MRAI, saw {total} advertisements"
    );
}

/// Within one MRAI window the latest state wins: intermediate attribute
/// versions never reach the wire.
#[test]
fn coalescing_is_last_writer_wins() {
    let mrai = Timestamp::from_secs(5);
    let mut sim = chain(
        4,
        ProtocolConfig::default().with_mrai(MraiConfig::uniform(mrai)),
    );
    let px: Prefix = "30.0.0.0/16".parse().unwrap();
    // Burn the open window with a first announcement...
    sim.originate_with(
        rid(1),
        px,
        PathAttributes::new(rid(1), AsPath::empty()).with_med(0),
        Timestamp::ZERO,
    );
    // ...then rewrite the route five times inside the closed window.
    for i in 1..=5u32 {
        sim.originate_with(
            rid(1),
            px,
            PathAttributes::new(rid(1), AsPath::empty()).with_med(i),
            Timestamp::from_millis(100 * i as u64),
        );
    }
    sim.run_to_completion();
    let log = sim.take_delivery_log();
    let meds: Vec<u32> = log
        .iter()
        .filter(|(from, to, m, _)| *from == rid(1) && *to == rid(2) && !m.nlri.is_empty())
        .filter_map(|(_, _, m, _)| m.attrs.as_ref().and_then(|a| a.med))
        .map(|m| m.0)
        .collect();
    assert_eq!(
        meds,
        vec![0, 5],
        "wire must carry only the window-opening and the final state"
    );
}

/// RFC default: withdrawals bypass the advertisement timer and reach the
/// wire promptly even mid-window.
#[test]
fn withdrawals_bypass_by_default() {
    let mrai = Timestamp::from_secs(10);
    let mut sim = chain(
        5,
        ProtocolConfig::default().with_mrai(MraiConfig::uniform(mrai)),
    );
    let px: Prefix = "30.0.0.0/16".parse().unwrap();
    sim.originate(rid(1), px, Timestamp::ZERO);
    // Withdraw right inside the closed window.
    sim.withdraw(rid(1), px, Timestamp::from_millis(500));
    sim.run_to_completion();
    let log = sim.take_delivery_log();
    let wd = withdraw_times(&log);
    let first_hop = wd
        .get(&(rid(1), rid(2), px))
        .expect("withdrawal reached the wire");
    assert!(
        first_hop[0] < Timestamp::from_secs(2),
        "withdrawal waited for the timer: {:?}",
        first_hop[0]
    );
}

/// WRATE mode: with `rate_limit_withdrawals`, a mid-window withdrawal
/// coalesces like any other change and leaves only at timer expiry.
#[test]
fn withdrawals_coalesce_in_wrate_mode() {
    let mrai = Timestamp::from_secs(10);
    let mut sim = chain(
        6,
        ProtocolConfig::default()
            .with_mrai(MraiConfig::uniform(mrai).with_rate_limited_withdrawals(true)),
    );
    let px: Prefix = "30.0.0.0/16".parse().unwrap();
    sim.originate(rid(1), px, Timestamp::ZERO);
    sim.withdraw(rid(1), px, Timestamp::from_millis(500));
    sim.run_to_completion();
    let log = sim.take_delivery_log();
    let wd = withdraw_times(&log);
    let first_hop = wd
        .get(&(rid(1), rid(2), px))
        .expect("withdrawal reached the wire");
    assert!(
        first_hop[0] >= mrai,
        "WRATE withdrawal left before the window closed: {:?}",
        first_hop[0]
    );
    // And the closed-window advertisement + withdrawal never both crossed:
    // announce at t≈0 opens the window, the withdrawal is the only later
    // (from rid(1)) event for the prefix.
    let ann = announce_times(&log);
    assert_eq!(ann[&(rid(1), rid(2), px)].len(), 1);
}

/// The backward-compat oracle: an explicit MRAI of zero (and instant FSM)
/// is *bit-identical* to the untouched default config — feed, delivery
/// log, and stats. The legacy path is keyed off `interval == 0`, so there
/// is no second code path to drift.
#[test]
fn mrai_zero_is_bit_identical_to_legacy_default() {
    let run = |protocol: ProtocolConfig| {
        let mut sim = chain(7, protocol);
        // Leave jitter on for this one: the oracle must hold on the
        // default-shaped engine, not a simplified one.
        sim.jitter_max_micros = 2_000;
        let px: Prefix = "30.0.0.0/16".parse().unwrap();
        Injector::route_flap(
            &mut sim,
            rid(1),
            px,
            PathAttributes::new(rid(1), AsPath::empty()),
            FlapSchedule {
                start: Timestamp::from_secs(1),
                period: Timestamp::from_millis(200),
                down_time: Timestamp::from_millis(100),
                count: 20,
            },
        );
        Injector::session_flap(
            &mut sim,
            rid(2),
            rid(3),
            FlapSchedule {
                start: Timestamp::from_secs(2),
                period: Timestamp::from_secs(2),
                down_time: Timestamp::from_secs(1),
                count: 2,
            },
        );
        sim.run_to_completion();
        let deliveries = sim.take_delivery_log();
        let stats = sim.stats();
        let out = sim.finish();
        (out.collector_feed, deliveries, stats)
    };
    let legacy = run(ProtocolConfig::default());
    let explicit_zero = run(ProtocolConfig::default()
        .with_mrai(MraiConfig::uniform(Timestamp::ZERO).with_jitter_per_mille(250)));
    assert_eq!(legacy.0, explicit_zero.0, "collector feeds diverged");
    assert_eq!(legacy.1, explicit_zero.1, "delivery logs diverged");
    assert_eq!(legacy.2, explicit_zero.2, "stats diverged");
    assert_eq!(legacy.2.mrai_flushes, 0, "MRAI=0 must never count flushes");
}
