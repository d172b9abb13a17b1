//! Differential harness: the decremental round loop over the sub-sequence
//! index in `Stemming::decompose_weighted_indexed` must be **bit-identical**
//! to the retained from-scratch reference (`bgpscope_stemming::reference`) —
//! components, stems, supports, prefix sets, event indices, residuals, and
//! rendered reports — over adversarial generated streams.
//!
//! The generator deliberately produces the regimes where the index or the
//! incremental bookkeeping could drift: overlapping prefixes across
//! correlation groups (a swept prefix drags foreign groups' events along),
//! duplicate sequences (group multiplicities > 1) whose instances carry
//! *different* weights, zero-weight events (counted nowhere but still swept),
//! paths of 0 to 6 hops (sequences of 3 to 9 symbols, some a prefix of
//! others), paths that revisit an AS (`a b a b` — the once-per-event rule),
//! and streams with more correlation groups than `max_components` (the loop
//! must stop with live state mid-flight). The configurations cover all three
//! ranking rules, several support thresholds and sub-sequence length caps.
//!
//! The index holds every group without its prefix symbol, and gives each
//! prefix one leaf: the best of the suffixes that end in it, or none when
//! that is below the support floor. Two more generators aim at that rule.
//! The churn generator gives most events a prefix of their own, so most
//! prefixes weigh less than the floor and get no leaf. The flap/leak
//! generator has one peer announce and withdraw every prefix with the same
//! attributes over a few shared paths, so a lone prefix weighs up to 6 and
//! its leaf decides rounds; a second peer re-announces some of them over
//! paths that end in the same hops, so a prefix has several groups and its
//! suffixes count across them.
//!
//! The decomposition encodes through an `EncodingCache` that lives across
//! windows and numbers each window's symbols in order of first appearance
//! in that window. The session-cache generator aims at it: runs of 2 to 8
//! windows drawing paths from one pool of shared `AsPath` values (so the
//! cache's memo hits), next to unshared copies of equal paths and
//! prepended variants (`1 1 2` beside `1 2`), which must collapse to one
//! sequence. Every window goes through one cache, a fresh cache, and a
//! cache cleared before it, and each must match the reference.
//!
//! The cache also keeps the sub-sequence index's trie from window to window
//! (each window holds and counts on it, and zeroes what it counted when it
//! ends), and drops it when a window counts under another length cap. The
//! mixed-window generator aims at that: a window of up to 120 events, then
//! one of up to 40 on the same pool, each under its own cap (0, 2 or 3),
//! as the degrade ladder changes the cap between windows. A count left over
//! from the window before, a leaf left behind, a tie broken on the cache's
//! symbol ids instead of the window's, or a trie kept across a cap change
//! shows as a window that differs from the reference.
//!
//! Six fixed runs at the end guard what the generated ones are too small
//! for: a hash-iteration-order leak (two runs in one process hash
//! differently), a heavily stale winner heap, thousands of leaves, a long
//! run of windows through one cache, and 1,000-event windows between
//! 40-event ones under a cap that changes from window to window.
//!
//! Case count honors `PROPTEST_CASES` (CI raises it to 4096, in `--release`:
//! every generated window is at most 120 events).

use proptest::prelude::*;

use bgpscope_bgp::{
    AsPath, Event, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
};
use bgpscope_stemming::reference::decompose_weighted_reference;
use bgpscope_stemming::{EncodingCache, RankingRule, Stemming, StemmingConfig, StemmingResult};

/// Leading AS pairs per correlation group. Groups 0/1 share AS 100 and
/// groups 0/3 share AS 200, so sub-sequences overlap *across* groups.
const GROUP_PATHS: [[u32; 2]; 4] = [[100, 200], [100, 300], [500, 600], [700, 200]];

/// One generated event:
/// `(group, tail, hops, looped, prefix_idx, time_ms, announce)`.
type Draw = (usize, u32, usize, bool, usize, u64, bool);

fn event_from((group, tail, hops, looped, prefix_idx, time_ms, announce): Draw) -> Event {
    let [a, b] = GROUP_PATHS[group];
    // The first `hops` of a six-hop path: either the group's pair bouncing
    // (`a b a b a b`) or the pair, a small tail alphabet, and the group's
    // first AS once more further down.
    let full = if looped {
        [a, b, a, b, a, b]
    } else {
        [a, b, 1000 + tail, 2000 + tail % 2, a, 3000]
    };
    let peer = PeerId::from_octets(128, 32, 1, group as u8 + 1);
    let hop = RouterId::from_octets(128, 32, 0, group as u8 + 1);
    // A small shared prefix pool: distinct groups routinely collide on a
    // prefix, which is exactly what stresses the E-sweep.
    let prefix = Prefix::from_octets(10, (prefix_idx % 5) as u8, prefix_idx as u8, 0, 24);
    let attrs = PathAttributes::new(hop, AsPath::from_u32s(full[..hops].iter().copied()));
    let time = Timestamp::from_millis(time_ms);
    if announce {
        Event::announce(time, peer, prefix, attrs)
    } else {
        Event::withdraw(time, peer, prefix, attrs)
    }
}

fn draw_strategy() -> impl Strategy<Value = Draw> {
    (
        0usize..4,
        0u32..6,
        0usize..7,
        any::<bool>(),
        0usize..10,
        0u64..2000,
        any::<bool>(),
    )
}

fn stream_strategy() -> impl Strategy<Value = EventStream> {
    collection::vec(draw_strategy(), 0..120)
        .prop_map(|draws| draws.into_iter().map(event_from).collect())
}

/// Churn streams: three events in four carry a prefix no other event has,
/// the rest draw from the shared pool. Most prefixes then weigh less than
/// the support floor, which is where the index drops the prefix symbol.
fn churn_strategy() -> impl Strategy<Value = EventStream> {
    collection::vec((draw_strategy(), 0usize..4), 0..120).prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(at, (mut draw, shared))| {
                if shared != 0 {
                    // Past the pool's ten indices and below 256: unique.
                    draw.4 = 10 + at;
                }
                event_from(draw)
            })
            .collect()
    })
}

/// Paths of the flap/leak streams: a flapped prefix goes over one of four
/// three-hop paths that share their first hop.
fn flap_path(path: u32) -> [u32; 3] {
    [7018, 100 + path, 200 + path % 2]
}

/// Flap/leak streams, up to 30 prefixes: peer 1 announces every prefix over
/// a shared path, then withdraws it with the same attributes. A second peer
/// re-announces a prefix drawn with `leak` 1 to 3 over a path that ends in
/// the flapped one's last three, two or one hops.
fn flap_leak_strategy() -> impl Strategy<Value = EventStream> {
    collection::vec((0u32..4, 0usize..6, 0u64..2000), 0..30).prop_map(|prefixes| {
        let prefix = |i: usize| Prefix::from_octets(50, 0, i as u8, 0, 24);
        let event = |announce: bool, peer: u8, path: &[u32], i: usize, time_ms: u64| {
            let attrs = PathAttributes::new(
                RouterId::from_octets(128, 32, 0, peer),
                AsPath::from_u32s(path.iter().copied()),
            );
            let (time, peer) = (
                Timestamp::from_millis(time_ms),
                PeerId::from_octets(128, 32, 1, peer),
            );
            if announce {
                Event::announce(time, peer, prefix(i), attrs)
            } else {
                Event::withdraw(time, peer, prefix(i), attrs)
            }
        };
        let announces = prefixes
            .iter()
            .enumerate()
            .map(|(i, &(path, _, t))| event(true, 1, &flap_path(path), i, t));
        let withdraws = prefixes
            .iter()
            .enumerate()
            .map(|(i, &(path, _, t))| event(false, 1, &flap_path(path), i, t + 2000));
        let leaks = prefixes
            .iter()
            .enumerate()
            .filter(|&(_, &(_, leak, _))| (1..=3).contains(&leak))
            .map(|(i, &(path, leak, t))| {
                let mut leaked = vec![3356];
                leaked.extend_from_slice(&flap_path(path)[3 - leak..]);
                event(true, 2, &leaked, i, t + 4000)
            });
        announces.chain(withdraws).chain(leaks).collect()
    })
}

/// The shared paths of the session-cache streams: prefixes and extensions
/// of one another, so sub-sequences recur across them.
const POOL_PATHS: [&[u32]; 6] = [
    &[100, 200, 300],
    &[100, 200],
    &[100, 400, 300],
    &[500, 200],
    &[100, 200, 300, 600],
    &[],
];

/// One event of a session-cache stream:
/// `(peer, pool path, variant, prefix_idx, time_ms, announce)`.
type CacheDraw = (u8, usize, u8, usize, u64, bool);

/// An event over pool path `path`, as the pool's own shared value (variant
/// 0), an unshared copy of it (1), with its first AS prepended once (2), or
/// with every AS doubled (3). All four encode to one sequence.
fn cache_event(
    pool: &[AsPath],
    (peer, path, variant, prefix_idx, time_ms, announce): CacheDraw,
) -> Event {
    let shared = &pool[path];
    let asns = shared.asns().iter().copied();
    let as_path = match variant {
        0 => shared.clone(),
        1 => AsPath::from_asns(asns),
        2 => AsPath::from_asns(shared.first_as().into_iter().chain(asns)),
        _ => AsPath::from_asns(asns.flat_map(|asn| [asn, asn])),
    };
    // Three peers over two nexthops: a nexthop recurs across peers.
    let attrs = PathAttributes::new(RouterId::from_octets(128, 32, 0, 1 + peer % 2), as_path);
    let peer = PeerId::from_octets(128, 32, 1, 1 + peer);
    let prefix = Prefix::from_octets(10, (prefix_idx % 3) as u8, prefix_idx as u8, 0, 24);
    let time = Timestamp::from_millis(time_ms);
    if announce {
        Event::announce(time, peer, prefix, attrs)
    } else {
        Event::withdraw(time, peer, prefix, attrs)
    }
}

/// One [`CacheDraw`].
fn cache_draw() -> impl Strategy<Value = CacheDraw> {
    (
        0u8..3,
        0usize..POOL_PATHS.len(),
        0u8..4,
        0usize..12,
        0u64..2000,
        any::<bool>(),
    )
}

/// Runs of 2 to 8 windows of up to 40 events each, over one pool of shared
/// paths.
fn cache_windows_strategy() -> impl Strategy<Value = Vec<EventStream>> {
    collection::vec(collection::vec(cache_draw(), 0..40), 2..9).prop_map(|windows| {
        let pool: Vec<AsPath> = POOL_PATHS
            .iter()
            .map(|path| AsPath::from_u32s(path.iter().copied()))
            .collect();
        windows
            .into_iter()
            .map(|draws| draws.into_iter().map(|d| cache_event(&pool, d)).collect())
            .collect()
    })
}

/// Runs of 1 to 4 pairs of windows over one pool of shared paths: a window
/// of 40 to 120 events, then one of up to 40, each under a length cap of
/// its own (an index into `[0, 2, 3]`).
fn mixed_windows_strategy() -> impl Strategy<Value = Vec<(EventStream, usize)>> {
    let pair = (
        collection::vec(cache_draw(), 40..120),
        0usize..3,
        collection::vec(cache_draw(), 0..40),
        0usize..3,
    );
    collection::vec(pair, 1..5).prop_map(|pairs| {
        let pool: Vec<AsPath> = POOL_PATHS
            .iter()
            .map(|path| AsPath::from_u32s(path.iter().copied()))
            .collect();
        let window = |draws: Vec<CacheDraw>| -> EventStream {
            draws.into_iter().map(|d| cache_event(&pool, d)).collect()
        };
        pairs
            .into_iter()
            .flat_map(|(big, big_cap, small, small_cap)| {
                [(window(big), big_cap), (window(small), small_cap)]
            })
            .collect()
    })
}

/// Deterministic per-*instance* weight with a real zero class: two identical
/// events at different stream positions weigh differently. Both paths call
/// this on demand, so it must be a pure function of its arguments.
fn weight_of(index: usize, e: &Event) -> u64 {
    (e.time.0 + index as u64) % 4
}

/// Asserts every observable piece of two results matches exactly.
fn assert_results_identical(shipped: &StemmingResult, reference: &StemmingResult, events: usize) {
    assert_eq!(
        shipped.components(),
        reference.components(),
        "components diverged ({events} events)"
    );
    assert_eq!(shipped.total_events(), reference.total_events());
    assert_eq!(shipped.residual_indices(), reference.residual_indices());
    // The rendered report exercises the symbol table too: identical interning
    // order must yield byte-identical text.
    assert_eq!(shipped.report(), reference.report());
}

/// Runs both paths over the same stream and config, with per-instance
/// weights, and asserts they agree.
fn assert_paths_identical(stream: &EventStream, config: &StemmingConfig) {
    let shipped =
        Stemming::with_config(config.clone()).decompose_weighted_indexed(stream, weight_of);
    let reference = decompose_weighted_reference(config, stream, weight_of);
    assert_results_identical(&shipped, &reference, stream.len());
}

/// Decomposes each of `windows` in turn three ways — through one cache
/// kept across them, through a fresh cache, and through a cache cleared
/// before each — and holds every result to the reference.
fn assert_windows_identical_through_caches(windows: &[EventStream], config: &StemmingConfig) {
    let configured: Vec<_> = windows
        .iter()
        .map(|stream| (stream.clone(), config.clone()))
        .collect();
    assert_configured_windows_identical_through_caches(&configured);
}

/// [`assert_windows_identical_through_caches`] with a configuration per
/// window.
fn assert_configured_windows_identical_through_caches(windows: &[(EventStream, StemmingConfig)]) {
    let (mut session, mut reset) = (EncodingCache::new(), EncodingCache::new());
    for (at, (stream, config)) in windows.iter().enumerate() {
        let stemming = Stemming::with_config(config.clone());
        let reference = decompose_weighted_reference(config, stream, weight_of);
        reset.clear();
        let through = [
            (
                "one cache",
                stemming.decompose_cached(&mut session, stream, weight_of),
            ),
            (
                "a fresh cache",
                stemming.decompose_weighted_indexed(stream, weight_of),
            ),
            (
                "a cleared cache",
                stemming.decompose_cached(&mut reset, stream, weight_of),
            ),
        ];
        for (how, shipped) in &through {
            assert_eq!(
                shipped.report(),
                reference.report(),
                "window {at} through {how}"
            );
            assert_results_identical(shipped, &reference, stream.len());
        }
    }
}

proptest! {
    #[test]
    fn incremental_matches_reference_serial(stream in stream_strategy()) {
        assert_paths_identical(&stream, &StemmingConfig::default());
    }

    /// Streams with more correlation groups than `max_components`: the loop
    /// stops mid-decomposition with live counter state, and the residual set
    /// must still match event-for-event.
    #[test]
    fn incremental_matches_reference_when_components_exhaust(stream in stream_strategy()) {
        let config = StemmingConfig {
            max_components: 2,
            min_support: 1,
            min_residual_events: 1,
            ..StemmingConfig::default()
        };
        assert_paths_identical(&stream, &config);
    }

    /// A capped sub-sequence length changes which counts exist at all; the
    /// two paths must cap identically.
    #[test]
    fn incremental_matches_reference_with_capped_subseq_len(stream in stream_strategy()) {
        let config = StemmingConfig {
            max_subseq_len: 3,
            ..StemmingConfig::default()
        };
        assert_paths_identical(&stream, &config);
    }

    /// Every ranking rule against every support threshold and length cap.
    /// `CoverageWeighted` with a threshold above 1 is the regime where the
    /// ranked winner can be *under* the threshold while a lower-ranked
    /// sub-sequence is over it: the loop must stop there, not skip ahead.
    #[test]
    fn incremental_matches_reference_across_rules_and_thresholds(
        stream in stream_strategy(),
        rule in 0usize..3,
        support in 0usize..3,
        cap in 0usize..3,
    ) {
        let config = StemmingConfig {
            ranking: RankingRule::ALL[rule],
            min_support: [1, 2, 5][support],
            max_subseq_len: [0, 2, 3][cap],
            ..StemmingConfig::default()
        };
        assert_paths_identical(&stream, &config);
    }

    /// The same sweep over churn streams, where most prefixes are unique
    /// and weigh 0 to 3: the index holds those groups without their prefix
    /// symbol under the count-first rules and whole under
    /// `CoverageWeighted`, and removes every group by the node its add
    /// returned.
    #[test]
    fn churn_streams_match_reference_across_rules_and_thresholds(
        stream in churn_strategy(),
        rule in 0usize..3,
        support in 0usize..3,
        cap in 0usize..3,
    ) {
        let config = StemmingConfig {
            ranking: RankingRule::ALL[rule],
            min_support: [1, 2, 5][support],
            max_subseq_len: [0, 2, 3][cap],
            ..StemmingConfig::default()
        };
        assert_paths_identical(&stream, &config);
    }

    /// The sweep over flap/leak streams, at thresholds 1 to 3: a prefix's
    /// one or more groups weigh 0 to 9 together, so whether it gets a leaf,
    /// and which suffix its leaf holds, moves with the rule, the threshold
    /// and the cap.
    #[test]
    fn flap_leak_streams_match_reference_across_rules_and_thresholds(
        stream in flap_leak_strategy(),
        rule in 0usize..3,
        support in 1u64..4,
        cap in 0usize..3,
    ) {
        let config = StemmingConfig {
            ranking: RankingRule::ALL[rule],
            min_support: support,
            max_subseq_len: [0, 2, 3][cap],
            ..StemmingConfig::default()
        };
        assert_paths_identical(&stream, &config);
    }

    /// Runs of windows through the session encoding cache, at thresholds 1
    /// to 3: shared, unshared and prepended copies of one path are one
    /// sequence, and every window numbers its symbols afresh, whatever the
    /// cache met in the windows before it.
    #[test]
    fn session_cache_windows_match_reference_across_rules_and_thresholds(
        windows in cache_windows_strategy(),
        rule in 0usize..3,
        support in 1u64..4,
        cap in 0usize..3,
    ) {
        let config = StemmingConfig {
            ranking: RankingRule::ALL[rule],
            min_support: support,
            max_subseq_len: [0, 2, 3][cap],
            ..StemmingConfig::default()
        };
        assert_windows_identical_through_caches(&windows, &config);
    }

    /// Large and small windows in turn, each under its own length cap, at
    /// thresholds 1 to 3: the index kept across them holds only what each
    /// window counted, and is started afresh whenever the cap changes.
    #[test]
    fn session_index_windows_match_reference_across_caps_and_sizes(
        windows in mixed_windows_strategy(),
        rule in 0usize..3,
        support in 1u64..4,
    ) {
        let configured: Vec<_> = windows
            .into_iter()
            .map(|(stream, cap)| {
                let config = StemmingConfig {
                    ranking: RankingRule::ALL[rule],
                    min_support: support,
                    max_subseq_len: [0, 2, 3][cap],
                    ..StemmingConfig::default()
                };
                (stream, config)
            })
            .collect();
        assert_configured_windows_identical_through_caches(&configured);
    }

    /// The unweighted entry point (`decompose`) against the reference with
    /// unit weights.
    #[test]
    fn unweighted_decompose_matches_reference(stream in stream_strategy()) {
        let config = StemmingConfig::default();
        let shipped = Stemming::with_config(config.clone()).decompose(&stream);
        let reference = decompose_weighted_reference(&config, &stream, |_, _| 1);
        assert_results_identical(&shipped, &reference, stream.len());
    }
}

fn withdraw(t: u64, peer: u8, path: &[u32], prefix: Prefix) -> Event {
    Event::withdraw(
        Timestamp::from_secs(t),
        PeerId::from_octets(128, 32, 1, peer),
        prefix,
        PathAttributes::new(
            RouterId::from_octets(128, 32, 0, peer),
            AsPath::from_u32s(path.iter().copied()),
        ),
    )
}

/// The trap a winner heap pre-filtered by `min_support` falls into: under
/// `CoverageWeighted` one event with a long path outranks (1 × 8) a pair
/// three events share (3 × 1). The ranked winner is below `min_support`, so
/// the decomposition stops with nothing extracted — it must not pass over
/// the winner to the better-supported pair.
#[test]
fn coverage_winner_below_min_support_stops_the_loop() {
    let mut events = vec![withdraw(
        0,
        1,
        &[11, 12, 13, 14, 15, 16],
        Prefix::from_octets(10, 0, 0, 0, 24),
    )];
    for i in 1..=3 {
        events.push(withdraw(
            u64::from(i),
            2,
            &[],
            Prefix::from_octets(20, i, 0, 0, 24),
        ));
    }
    let stream: EventStream = events.into_iter().collect();
    let config = StemmingConfig {
        ranking: RankingRule::CoverageWeighted,
        min_support: 2,
        ..StemmingConfig::default()
    };
    let shipped = Stemming::with_config(config.clone()).decompose(&stream);
    assert!(shipped.components().is_empty());
    let reference = decompose_weighted_reference(&config, &stream, |_, _| 1);
    assert_results_identical(&shipped, &reference, stream.len());

    // The pair is there for the taking once the threshold lets the loop run.
    let lenient = StemmingConfig {
        min_support: 1,
        ..config
    };
    let shipped = Stemming::with_config(lenient.clone()).decompose(&stream);
    assert_eq!(shipped.components().len(), 2);
    assert_eq!(shipped.components()[1].support, 3);
    let reference = decompose_weighted_reference(&lenient, &stream, |_, _| 1);
    assert_results_identical(&shipped, &reference, stream.len());
}

/// Decomposes `stream` under `ranking` twice in this process and once by the
/// reference; all three must agree. Two runs build their hash maps under different keys, so
/// a result that leaked a map's iteration order would differ between them.
fn assert_deterministic_and_identical(stream: &EventStream, ranking: RankingRule) {
    let stemming = Stemming::with_config(StemmingConfig {
        ranking,
        ..StemmingConfig::default()
    });
    let first = stemming.decompose(stream);
    let second = stemming.decompose(stream);
    assert_results_identical(&first, &second, stream.len());
    let reference = decompose_weighted_reference(stemming.config(), stream, |_, _| 1);
    assert_results_identical(&first, &reference, stream.len());
}

/// A 2,000-event session flap: one peer withdraws 1,000 prefixes and
/// announces them again. Every round's extraction leaves most of the heap
/// stale.
#[test]
fn session_flap_window_is_deterministic() {
    let flap = |t: u64, i: u32| {
        let prefix = Prefix::from_octets(30, (i / 250) as u8, (i % 250) as u8, 0, 24);
        withdraw(
            t,
            3,
            &[7018, 100 + i % 20, 200 + i % 7, 300 + i % 3],
            prefix,
        )
    };
    let stream: EventStream = (0..1000)
        .map(|i| flap(u64::from(i), i))
        .chain((0..1000).map(|i| flap(1000 + u64::from(i), i)))
        .collect();
    assert_eq!(stream.len(), 2000);
    assert_deterministic_and_identical(&stream, RankingRule::default());
}

/// A one-prefix oscillation: one sequence with multiplicity 10⁴.
#[test]
fn oscillation_window_is_deterministic() {
    let stream: EventStream = (0..10_000)
        .map(|t| withdraw(t, 4, &[2, 9], Prefix::from_octets(4, 5, 0, 0, 16)))
        .collect();
    assert_deterministic_and_identical(&stream, RankingRule::default());
}

/// A 350-event churn window, the steady-state shape: almost every event its
/// own prefix, paths drawn from a small AS pool.
#[test]
fn churn_window_is_deterministic() {
    // A fixed linear congruential generator: the window must not depend on
    // anything but this file.
    let mut state = 24301u64;
    let mut draw = |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % below
    };
    let stream: EventStream = (0..350)
        .map(|t| {
            let hops = 2 + draw(4) as usize;
            let path: Vec<u32> = (0..hops).map(|_| 64_500 + draw(24) as u32).collect();
            let prefix = Prefix::from_octets(40, draw(200) as u8, draw(4) as u8, 0, 24);
            withdraw(t, 1 + draw(3) as u8, &path, prefix)
        })
        .collect();
    assert_deterministic_and_identical(&stream, RankingRule::default());
}

/// A 2,000-event flap and leak under every rule: peer 1 announces and
/// withdraws 800 prefixes over 13 three-hop paths, and peer 2 re-announces
/// every other one over a path that ends in the same one, two or three hops.
/// Every prefix weighs at least 2, so each has a leaf, and a leaked
/// prefix's leaf counts a suffix across its two groups.
#[test]
fn flap_leak_window_is_deterministic() {
    let path_of = |i: u32| [7018, 209, 300 + i % 13];
    let prefix = |i: u32| Prefix::from_octets(60, (i / 250) as u8, (i % 250) as u8, 0, 24);
    let flap = |t: u64, i: u32| withdraw(t, 3, &path_of(i), prefix(i));
    let announce =
        |event: Event| Event::announce(event.time, event.peer, event.prefix, event.attrs);
    let leak = |i: u32| {
        let mut path = vec![3356];
        path.extend_from_slice(&path_of(i)[i as usize / 2 % 3..]);
        announce(withdraw(1600 + u64::from(i), 4, &path, prefix(i)))
    };
    let stream: EventStream = (0..800)
        .map(|i| announce(flap(u64::from(i), i)))
        .chain((0..800).map(|i| flap(800 + u64::from(i), i)))
        .chain((0..800).step_by(2).map(leak))
        .collect();
    assert_eq!(stream.len(), 2_000);
    for ranking in RankingRule::ALL {
        assert_deterministic_and_identical(&stream, ranking);
    }
}

/// Six 300-event windows through one cache, under every rule: the pool's
/// paths in all four forms, over three peers and 40 prefixes. Each window
/// meets the peers, paths and prefixes in its own order.
#[test]
fn session_cache_window_run_is_deterministic() {
    let mut state = 37_001u64;
    let mut draw = |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % below
    };
    let pool: Vec<AsPath> = POOL_PATHS
        .iter()
        .map(|path| AsPath::from_u32s(path.iter().copied()))
        .collect();
    let windows: Vec<EventStream> = (0..6)
        .map(|_| {
            (0..300)
                .map(|_| {
                    let event = (
                        draw(3) as u8,
                        draw(POOL_PATHS.len() as u64) as usize,
                        draw(4) as u8,
                        draw(40) as usize,
                        draw(2000),
                        draw(2) == 0,
                    );
                    cache_event(&pool, event)
                })
                .collect()
        })
        .collect();
    for ranking in RankingRule::ALL {
        for min_support in 1..=3 {
            let config = StemmingConfig {
                ranking,
                min_support,
                ..StemmingConfig::default()
            };
            assert_windows_identical_through_caches(&windows, &config);
        }
    }
}

/// Windows of 300, 40, 1,000, 40, 300 and 40 events through one cache,
/// under caps 0, 2, 0, 6, 3 and 0 — the degrade ladder's 6 among them — and
/// every rule and threshold 1 to 3: the pool's paths in all four forms,
/// over three peers and 40 prefixes.
#[test]
fn session_index_run_across_caps_and_sizes_is_deterministic() {
    let mut state = 38_001u64;
    let mut draw = |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % below
    };
    let pool: Vec<AsPath> = POOL_PATHS
        .iter()
        .map(|path| AsPath::from_u32s(path.iter().copied()))
        .collect();
    let windows: Vec<(EventStream, usize)> =
        [(300, 0), (40, 2), (1_000, 0), (40, 6), (300, 3), (40, 0)]
            .into_iter()
            .map(|(events, cap)| {
                let stream = (0..events)
                    .map(|_| {
                        let event = (
                            draw(3) as u8,
                            draw(POOL_PATHS.len() as u64) as usize,
                            draw(4) as u8,
                            draw(40) as usize,
                            draw(2000),
                            draw(2) == 0,
                        );
                        cache_event(&pool, event)
                    })
                    .collect();
                (stream, cap)
            })
            .collect();
    for ranking in RankingRule::ALL {
        for min_support in 1..=3 {
            let configured: Vec<_> = windows
                .iter()
                .map(|(stream, cap)| {
                    let config = StemmingConfig {
                        ranking,
                        min_support,
                        max_subseq_len: *cap,
                        ..StemmingConfig::default()
                    };
                    (stream.clone(), config)
                })
                .collect();
            assert_configured_windows_identical_through_caches(&configured);
        }
    }
}
