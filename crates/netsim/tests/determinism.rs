//! The simulator's determinism contract, as properties.
//!
//! Two independent seeded streams drive the engine: per-session jitter
//! streams (delivery latency) and a schedule stream (tie-shuffle order for
//! equal-timestamp events). The contract:
//!
//! 1. Same seed → bit-identical everything: collector feed, IGP log,
//!    delivery log, stats. Replays are exact, timers and FSM included.
//! 2. A different *schedule* seed may reorder equal-time ties, but never
//!    violates per-session FIFO and never changes where routing converges.
//! 3. The streams are decoupled: editing a fault plan in one part of the
//!    network leaves delivery timestamps elsewhere bit-identical (the
//!    tie-shuffle is a keyed hash of `(time, channel)`, not a shared
//!    sequential RNG, so unrelated events cannot steal each other's draws).

use std::collections::HashMap;

use proptest::prelude::*;

use bgpscope_bgp::{Asn, Prefix, RouterId, Timestamp};
use bgpscope_netsim::{
    FlapSchedule, FsmConfig, Injector, MraiConfig, ProtocolConfig, SessionKind, Sim, SimBuilder,
};

fn rid(n: u8) -> RouterId {
    RouterId::from_octets(10, 0, 0, n)
}

/// A connected random topology (chain + extra edges), with small but
/// realistic protocol timers so MRAI and FSM paths are exercised.
fn build(seed: u64, n: u8, extra_edges: &[(u8, u8)], protocol: ProtocolConfig) -> Sim {
    let mut builder = SimBuilder::new(seed).protocol(protocol);
    for i in 0..n {
        builder = builder.router(rid(i), Asn(100 + i as u32));
    }
    for i in 1..n {
        builder = builder.session(rid(i - 1), rid(i), SessionKind::Ebgp);
    }
    let mut existing: std::collections::HashSet<(u8, u8)> = (1..n).map(|i| (i - 1, i)).collect();
    for &(a, b) in extra_edges {
        let (a, b) = (a % n, b % n);
        let key = (a.min(b), a.max(b));
        if a != b && !existing.contains(&key) {
            existing.insert(key);
            builder = builder.session(rid(key.0), rid(key.1), SessionKind::Ebgp);
        }
    }
    builder.monitor(rid(0)).build()
}

fn fast_protocol() -> ProtocolConfig {
    ProtocolConfig::default()
        .with_mrai(MraiConfig::uniform(Timestamp::from_millis(200)).with_jitter_per_mille(250))
        .with_fsm(FsmConfig::timed(
            Timestamp::from_millis(900),
            Timestamp::from_millis(300),
            Timestamp::from_millis(100),
        ))
}

/// Drives a sim through originations and a session flap, returning every
/// observable artifact.
#[allow(clippy::type_complexity)]
fn drive(
    mut sim: Sim,
    n: u8,
    origins: &[(u8, u8)],
    flap: Option<(u8, u8)>,
) -> (
    Vec<(bgpscope_bgp::UpdateMessage, Timestamp)>,
    Vec<bgpscope_igp::IgpEvent>,
    Vec<(RouterId, RouterId, bgpscope_bgp::UpdateMessage, Timestamp)>,
    bgpscope_netsim::SimStats,
) {
    sim.record_deliveries = true;
    for (i, &(router, px)) in origins.iter().enumerate() {
        sim.originate(
            rid(router % n),
            Prefix::from_octets(30, px, 0, 0, 16),
            Timestamp::from_millis(i as u64 * 7),
        );
    }
    if let Some((a, b)) = flap {
        let (a, b) = (a % n, b % n);
        if a != b {
            Injector::session_flap(
                &mut sim,
                rid(a),
                rid(b),
                FlapSchedule {
                    start: Timestamp::from_secs(2),
                    period: Timestamp::from_secs(3),
                    down_time: Timestamp::from_secs(1),
                    count: 2,
                },
            );
        }
    }
    sim.run_to_completion();
    let deliveries = sim.take_delivery_log();
    let stats = sim.stats();
    let out = sim.finish();
    (
        out.collector_feed,
        out.igp_log.events().to_vec(),
        deliveries,
        stats,
    )
}

/// Per-session FIFO: for each ordered `(from, to)` pair, delivery
/// timestamps never go backwards.
fn assert_fifo(log: &[(RouterId, RouterId, bgpscope_bgp::UpdateMessage, Timestamp)]) {
    let mut last: HashMap<(RouterId, RouterId), Timestamp> = HashMap::new();
    for &(from, to, _, t) in log {
        if let Some(&prev) = last.get(&(from, to)) {
            assert!(
                t >= prev,
                "session {from}->{to} delivered out of order: {prev:?} then {t:?}"
            );
        }
        last.insert((from, to), t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: the same seed replays every artifact bit-for-bit, with
    /// MRAI pacing, interval jitter, and the timed FSM all active.
    #[test]
    fn same_seed_is_bit_identical(
        seed in 0u64..10_000,
        n in 3u8..8,
        extra in proptest::collection::vec((0u8..8, 0u8..8), 0..4),
        origins in proptest::collection::vec((0u8..8, 0u8..12), 1..6),
        flap in proptest::option::of((0u8..8, 0u8..8)),
    ) {
        let run = || drive(build(seed, n, &extra, fast_protocol()), n, &origins, flap);
        let (feed1, igp1, del1, stats1) = run();
        let (feed2, igp2, del2, stats2) = run();
        prop_assert_eq!(feed1, feed2, "collector feed not replayed");
        prop_assert_eq!(igp1, igp2, "IGP log not replayed");
        prop_assert_eq!(del1, del2, "delivery log not replayed");
        prop_assert_eq!(stats1, stats2, "stats not replayed");
    }

    /// Contract 2: a different schedule seed may reorder equal-time ties
    /// but preserves per-session FIFO and the converged routing outcome.
    #[test]
    fn schedule_seed_only_shuffles_ties(
        seed in 0u64..10_000,
        reseed in 10_000u64..20_000,
        n in 3u8..8,
        extra in proptest::collection::vec((0u8..8, 0u8..8), 0..4),
        origins in proptest::collection::vec((0u8..8, 0u8..12), 1..6),
    ) {
        let run = |schedule_seed: Option<u64>| {
            let mut sim = build(seed, n, &extra, ProtocolConfig::default());
            if let Some(s) = schedule_seed {
                sim.reseed_schedule(s);
            }
            drive(sim, n, &origins, None)
        };
        let (_, _, del1, _) = run(None);
        let (_, _, del2, _) = run(Some(reseed));
        assert_fifo(&del1);
        assert_fifo(&del2);

        // Converged state is schedule-independent: rebuild and inspect RIBs.
        let final_best = |schedule_seed: Option<u64>| {
            let mut sim = build(seed, n, &extra, ProtocolConfig::default());
            if let Some(s) = schedule_seed {
                sim.reseed_schedule(s);
            }
            for (i, &(router, px)) in origins.iter().enumerate() {
                sim.originate(
                    rid(router % n),
                    Prefix::from_octets(30, px, 0, 0, 16),
                    Timestamp::from_millis(i as u64 * 7),
                );
            }
            sim.run_to_completion();
            let mut best: Vec<(RouterId, Prefix, String)> = Vec::new();
            for i in 0..n {
                let r = sim.router(rid(i)).unwrap();
                for (prefix, route) in r.rib.best_routes() {
                    best.push((rid(i), prefix, format!("{:?}", route.attrs)));
                }
            }
            best.sort();
            best
        };
        prop_assert_eq!(final_best(None), final_best(Some(reseed)));
    }
}

/// Contract 2, content form: on a unique-path topology (a chain), where
/// routing cannot explore alternatives, reshuffling ties preserves the
/// *multiset* of per-prefix collector events exactly — only equal-time
/// interleaving moves.
#[test]
fn tie_reorder_preserves_event_multisets_on_unique_paths() {
    let run = |schedule_seed: Option<u64>| {
        let mut builder = SimBuilder::new(5);
        for i in 0..5u8 {
            builder = builder.router(rid(i), Asn(100 + i as u32));
        }
        for i in 1..5u8 {
            builder = builder.session(rid(i - 1), rid(i), SessionKind::Ebgp);
        }
        let mut sim = builder.monitor(rid(0)).build();
        if let Some(s) = schedule_seed {
            sim.reseed_schedule(s);
        }
        sim.record_deliveries = true;
        // Equal-time originations: maximal tie pressure.
        for px in 0..6u8 {
            sim.originate(
                rid(4),
                Prefix::from_octets(30, px, 0, 0, 16),
                Timestamp::ZERO,
            );
        }
        sim.run_to_completion();
        let deliveries = sim.take_delivery_log();
        assert_fifo(&deliveries);
        let mut events: Vec<String> = sim
            .take_collector_feed()
            .iter()
            .map(|(m, _)| format!("{m:?}"))
            .collect();
        events.sort();
        events
    };
    let base = run(None);
    assert!(!base.is_empty());
    for s in [1u64, 2, 3] {
        assert_eq!(base, run(Some(s)), "multiset changed under reseed {s}");
    }
}

/// Contract 3 (the regression for the old shared-RNG hazard): two
/// disconnected islands in one sim; adding a session flap on island B must
/// leave island A's delivery timestamps bit-identical, because B's events
/// can neither steal A's per-session jitter draws nor shift A's tie keys.
#[test]
fn fault_on_one_island_leaves_the_other_bit_identical() {
    let build_islands = || {
        SimBuilder::new(77)
            // Island A: chain 0-1-2.
            .router(rid(0), Asn(100))
            .router(rid(1), Asn(101))
            .router(rid(2), Asn(102))
            .session(rid(0), rid(1), SessionKind::Ebgp)
            .session(rid(1), rid(2), SessionKind::Ebgp)
            // Island B: pair 10-11, no path to A.
            .router(rid(10), Asn(110))
            .router(rid(11), Asn(111))
            .session(rid(10), rid(11), SessionKind::Ebgp)
            .monitor(rid(0))
            .build()
    };
    let run = |flap_b: bool| {
        let mut sim = build_islands();
        sim.record_deliveries = true;
        for px in 0..8u8 {
            // Staggered times on island A, plus traffic on B.
            sim.originate(
                rid(2),
                Prefix::from_octets(30, px, 0, 0, 16),
                Timestamp::from_millis(px as u64 * 13),
            );
            sim.originate(
                rid(11),
                Prefix::from_octets(40, px, 0, 0, 16),
                Timestamp::from_millis(px as u64 * 13),
            );
        }
        if flap_b {
            Injector::session_flap(
                &mut sim,
                rid(10),
                rid(11),
                FlapSchedule {
                    start: Timestamp::from_millis(40),
                    period: Timestamp::from_millis(100),
                    down_time: Timestamp::from_millis(50),
                    count: 3,
                },
            );
        }
        sim.run_to_completion();
        let island_a: Vec<_> = sim
            .take_delivery_log()
            .into_iter()
            .filter(|&(from, _, _, _)| from == rid(0) || from == rid(1) || from == rid(2))
            .collect();
        island_a
    };
    let quiet = run(false);
    let faulted = run(true);
    assert!(!quiet.is_empty());
    assert_eq!(
        quiet, faulted,
        "island B's fault perturbed island A's deliveries"
    );
}
