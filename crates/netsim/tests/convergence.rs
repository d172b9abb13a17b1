//! Convergence invariants on generated Internet-scale hierarchies.
//!
//! These tests drive [`TopologyGen`] topologies (valley-free
//! customer/provider/peer graphs) to quiescence and check that the
//! emergent routing is sane: the event queue drains (no livelock), best
//! paths are loop-free, and neighboring RIBs agree. The 1k-AS legs run in
//! the normal suite; the 10k-AS leg is `#[ignore]`d and exercised by the
//! release-mode CI step.

use bgpscope_bgp::{Prefix, RouterId, Timestamp};
use bgpscope_netsim::{MraiConfig, ProtocolConfig, Sim, TopologyGen};

/// Quiesced-state sanity: every router holds a loop-free best path for
/// every live prefix, and each best path is one hop longer than the
/// advertising neighbor's own best path (neighbor agreement).
fn assert_converged(sim: &Sim, routers: &[RouterId], prefixes: &[Prefix]) {
    for &id in routers {
        let router = sim.router(id).expect("router exists");
        for &px in prefixes {
            let best = router
                .rib
                .best(&px)
                .unwrap_or_else(|| panic!("{id} has no route for {px}"));
            assert_eq!(
                best.attrs.as_path.unique_len(),
                best.attrs.as_path.hop_count(),
                "{id} installed a looped path for {px}: {}",
                best.attrs.as_path
            );
            assert!(
                !best.attrs.as_path.contains(router.asn),
                "{id} installed a path through its own AS for {px}"
            );
            let learned_from = best.peer.router_id();
            if learned_from == id {
                // Locally originated at this router; no neighbor to agree with.
                continue;
            }
            if let Some(neighbor) = sim.router(learned_from) {
                let neighbor_best = neighbor.rib.best(&px).unwrap_or_else(|| {
                    panic!("{learned_from} advertised {px} to {id} but has no route")
                });
                assert_eq!(
                    best.attrs.as_path.first_as(),
                    Some(neighbor.asn),
                    "{id}'s path for {px} does not start at its neighbor's AS"
                );
                assert_eq!(
                    best.attrs.as_path.hop_count(),
                    neighbor_best.attrs.as_path.hop_count() + 1,
                    "{id}'s path for {px} is not one hop beyond {learned_from}'s"
                );
            }
        }
    }
}

/// Builds an `ases`-AS hierarchy, converges `n_prefixes` stub
/// originations, withdraws the first one (trigger for MRAI-paced path
/// hunting), and returns the sim plus bookkeeping. Returns the quiescence
/// time of the withdrawal storm.
fn converge_and_withdraw(
    ases: usize,
    n_prefixes: usize,
    mrai: MraiConfig,
) -> (Sim, Vec<RouterId>, Vec<Prefix>, Timestamp) {
    let (mut sim, topo) = TopologyGen::new(1234, ases)
        .protocol(ProtocolConfig::default().with_mrai(mrai))
        .build();
    let origins = topo.sample_stubs(n_prefixes, 7);
    let prefixes: Vec<Prefix> = (0..origins.len())
        .map(|i| Prefix::from_octets(30, i as u8, 0, 0, 16))
        .collect();
    for (i, (&origin, &px)) in origins.iter().zip(&prefixes).enumerate() {
        sim.originate(origin, px, Timestamp::from_millis(i as u64 * 50));
    }
    let perturb_at = Timestamp::from_secs(400);
    sim.withdraw(origins[0], prefixes[0], perturb_at);
    sim.run_to_completion();
    let stats = sim.stats();
    assert!(
        stats.messages_delivered < sim.max_deliveries,
        "livelock: hit the {} delivery fuse",
        sim.max_deliveries
    );
    assert!(
        stats.last_delivery >= perturb_at,
        "the withdrawal produced no traffic at all"
    );
    let quiesce = stats.last_delivery.saturating_since(perturb_at);
    let routers: Vec<RouterId> = topo.nodes.iter().map(|n| n.id).collect();
    (sim, routers, prefixes, quiesce)
}

/// 1k ASes, MRAI on: the hierarchy quiesces, every router agrees on
/// loop-free best paths for the surviving prefixes, and nobody retains the
/// withdrawn one.
#[test]
fn thousand_as_hierarchy_converges_loop_free() {
    let (sim, routers, prefixes, _) =
        converge_and_withdraw(1_000, 4, MraiConfig::uniform(Timestamp::from_secs(5)));
    assert_converged(&sim, &routers, &prefixes[1..]);
    for &id in &routers {
        assert!(
            sim.router(id).unwrap().rib.best(&prefixes[0]).is_none(),
            "{id} retained the withdrawn prefix"
        );
    }
}

/// Quiescence time scales with MRAI. A pure withdrawal storm dies at wire
/// speed under any MRAI (withdrawals bypass the timer by default), so the
/// perturbation here is attribute churn ending in an announcement: the
/// intermediate states coalesce inside closed windows and the final state
/// rides the timer out, level by level. The exact ratio is
/// workload-shaped, so it is recorded, not pinned; the ordering is
/// asserted.
#[test]
fn quiescence_scales_with_mrai() {
    let quiesce_under = |mrai: Timestamp| {
        let (mut sim, topo) = TopologyGen::new(1234, 1_000)
            .protocol(ProtocolConfig::default().with_mrai(MraiConfig::uniform(mrai)))
            .build();
        let origin = topo.sample_stubs(1, 7)[0];
        let px = Prefix::from_octets(30, 0, 0, 0, 16);
        sim.originate(origin, px, Timestamp::ZERO);
        // Converged by t=400s; then a 6-step MED churn, one step per second.
        let perturb_at = Timestamp::from_secs(400);
        for step in 0..6u32 {
            let attrs = bgpscope_bgp::PathAttributes::new(origin, bgpscope_bgp::AsPath::empty())
                .with_med(step + 1);
            sim.originate_with(
                origin,
                px,
                attrs,
                perturb_at + Timestamp::from_secs(step as u64),
            );
        }
        sim.run_to_completion();
        let stats = sim.stats();
        assert!(
            stats.messages_delivered < sim.max_deliveries,
            "livelock under MRAI {mrai:?}"
        );
        assert!(stats.last_delivery >= perturb_at);
        stats.last_delivery.saturating_since(perturb_at)
    };
    let fast = quiesce_under(Timestamp::from_secs(5));
    let slow = quiesce_under(Timestamp::from_secs(30));
    eprintln!(
        "quiescence after attribute churn: MRAI 5s -> {:.3}s, MRAI 30s -> {:.3}s",
        fast.as_micros() as f64 / 1e6,
        slow.as_micros() as f64 / 1e6,
    );
    assert!(
        slow > fast,
        "a longer MRAI must stretch the churn tail: 30s -> {slow:?}, 5s -> {fast:?}"
    );
}

/// The 10k-AS leg: same invariants at Internet scale. Run explicitly with
/// `cargo test --release -- --ignored` (the CI release job does).
#[test]
#[ignore = "10k-AS leg: run in release mode (CI does)"]
fn ten_thousand_as_hierarchy_converges_loop_free() {
    let (sim, routers, prefixes, quiesce) =
        converge_and_withdraw(10_000, 4, MraiConfig::uniform(Timestamp::from_secs(5)));
    eprintln!(
        "10k-AS quiescence after withdrawal: {:.3}s simulated, {} deliveries",
        quiesce.as_micros() as f64 / 1e6,
        sim.stats().messages_delivered
    );
    assert_converged(&sim, &routers, &prefixes[1..]);
}
