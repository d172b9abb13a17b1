//! The default protocol's feeds, pinned.
//!
//! `fixtures/pinned_feeds.txt` holds one line per case: its name and a
//! 64-bit digest of everything a default-protocol run shows the outside —
//! the collector feed, the delivery log, and the `session_downs`,
//! `session_ups` and `messages_delivered` counts. The cases are seeded
//! random topologies (a chain of 3–8 routers plus extra edges, 1–7
//! originations, 0–3 overlapping session flaps) and one maximum-prefix
//! teardown that re-establishes and trips again.
//!
//! The fixture was generated when `SessionDown`/`SessionUp` still had a
//! separate instantaneous handler pair. The default session FSM is now the
//! timed one with zero timers, and it must reproduce every line. The two
//! machines do differ on about 1 % of this generator's seeds, none of them
//! in `0..CASES`: a `SessionUp` on a link that is already up (the old
//! handler wiped the sender's adj-RIB-out, so the peer kept stale routes;
//! `engine::tests::redundant_session_up_keeps_adj_rib_out`), and a down
//! and an up, or two downs on links sharing a router, at one instant
//! (DESIGN.md decision 19). Nothing here uses std's hasher: the digest
//! folds
//! [`bgpscope_bgp::splitmix64`] over the `Debug` rendering, so it is the
//! same on every platform and toolchain.

use bgpscope_bgp::{splitmix64, Asn, Prefix, RouterId, Timestamp};
use bgpscope_netsim::{FlapSchedule, Injector, SessionKind, Sim, SimBuilder};
use bgpscope_policy::parse_config;

const FIXTURE: &str = include_str!("fixtures/pinned_feeds.txt");

/// Random cases in the fixture, seeds `0..CASES`.
const CASES: u64 = 96;

fn rid(n: u8) -> RouterId {
    RouterId::from_octets(10, 0, 0, n)
}

/// A splitmix64 counter stream: the case generator's only randomness.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0) % n
    }
}

/// Seeded case: builds the sim and schedules its originations and flaps.
fn random_case(seed: u64) -> Sim {
    let mut draw = Draw(splitmix64(seed ^ 0x5eed_f00d));
    let n = 3 + draw.below(6) as u8;
    let mut builder = SimBuilder::new(seed);
    for i in 0..n {
        builder = builder.router(rid(i), Asn(100 + u32::from(i)));
    }
    let mut edges: Vec<(u8, u8)> = (1..n).map(|i| (i - 1, i)).collect();
    for _ in 0..draw.below(4) {
        let (a, b) = (draw.below(n.into()) as u8, draw.below(n.into()) as u8);
        let key = (a.min(b), a.max(b));
        if a != b && !edges.contains(&key) {
            edges.push(key);
        }
    }
    for &(a, b) in &edges {
        builder = builder.session(rid(a), rid(b), SessionKind::Ebgp);
    }
    let mut sim = builder.monitor(rid(0)).build();
    for _ in 0..1 + draw.below(7) {
        let router = rid(draw.below(n.into()) as u8);
        let prefix = Prefix::from_octets(30, draw.below(12) as u8, 0, 0, 16);
        sim.originate(router, prefix, Timestamp::from_millis(draw.below(2_000)));
    }
    for _ in 0..draw.below(4) {
        let (a, b) = edges[draw.below(edges.len() as u64) as usize];
        let period = 100 + draw.below(2_000);
        Injector::session_flap(
            &mut sim,
            rid(a),
            rid(b),
            FlapSchedule {
                start: Timestamp::from_millis(draw.below(3_000)),
                period: Timestamp::from_millis(period),
                down_time: Timestamp::from_millis(1 + draw.below(period)),
                count: 1 + draw.below(3) as u32,
            },
        );
    }
    sim
}

/// A maximum-prefix fuse: 25 announcements against a limit of 10 tear
/// the session down; a later `SessionUp` re-sends the full table, which
/// trips the fuse again.
fn max_prefix_case() -> Sim {
    let mut sim = SimBuilder::new(4)
        .router(rid(1), Asn(1))
        .router(rid(2), Asn(2))
        .router(rid(3), Asn(3))
        .session(rid(1), rid(2), SessionKind::Ebgp)
        .session(rid(2), rid(3), SessionKind::Ebgp)
        .monitor(rid(3))
        .build();
    sim.router_mut(rid(2)).unwrap().config =
        Some(parse_config("router bgp 2\n neighbor 10.0.0.1 maximum-prefix 10\n").unwrap());
    for i in 0..25u8 {
        sim.originate(
            rid(1),
            Prefix::from_octets(20, i, 0, 0, 16),
            Timestamp::from_millis(u64::from(i) * 300),
        );
    }
    sim.session_up(rid(1), rid(2), Timestamp::from_secs(60));
    sim
}

/// Folds splitmix64 over `text`'s bytes, eight at a time.
fn digest(text: &str) -> u64 {
    text.as_bytes()
        .chunks(8)
        .fold(text.len() as u64, |h, chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            splitmix64(h ^ u64::from_le_bytes(word))
        })
}

/// Runs `sim` to completion and digests what it showed the outside.
fn run(mut sim: Sim) -> u64 {
    sim.record_deliveries = true;
    sim.run_to_completion();
    let deliveries = sim.take_delivery_log();
    let stats = sim.stats();
    let feed = sim.finish().collector_feed;
    digest(&format!(
        "{feed:?}\n{deliveries:?}\n{} {} {}",
        stats.session_downs, stats.session_ups, stats.messages_delivered
    ))
}

fn lines() -> Vec<String> {
    (0..CASES)
        .map(|seed| format!("{seed} {:016x}", run(random_case(seed))))
        .chain(std::iter::once(format!(
            "max-prefix {:016x}",
            run(max_prefix_case())
        )))
        .collect()
}

#[test]
fn default_protocol_reproduces_the_pinned_feeds() {
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual = lines();
    assert_eq!(
        expected.len(),
        actual.len(),
        "fixture has the wrong case count"
    );
    let diverged: Vec<&str> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, _)| *e)
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} cases diverged from the pinned feeds: {diverged:?}",
        diverged.len(),
        actual.len()
    );
}

/// The cases are not degenerate: some flap, and the fuse trips twice.
#[test]
fn cases_exercise_the_session_fsm() {
    let flapping = (0..CASES)
        .filter(|&seed| {
            let mut sim = random_case(seed);
            sim.run_to_completion();
            sim.stats().session_downs > 0
        })
        .count();
    assert!(flapping >= CASES as usize / 4, "{flapping} flapping cases");
    let mut sim = max_prefix_case();
    sim.run_to_completion();
    assert_eq!(sim.stats().session_downs, 2);
    assert_eq!(sim.stats().session_ups, 1);
}
