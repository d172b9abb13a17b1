//! Differential harness: the incremental decremental round loop in
//! `Stemming::decompose_weighted` must be **bit-identical** to the retained
//! from-scratch reference (`bgpscope_stemming::reference`) — components,
//! stems, supports, prefix sets, event indices, residuals, and rendered
//! reports — over adversarial generated streams.
//!
//! The generator deliberately produces the regimes where the incremental
//! bookkeeping could drift: overlapping prefixes across correlation groups
//! (a swept prefix drags foreign groups' events along), duplicate sequences
//! (group multiplicities > 1), zero-weight events (counted nowhere but still
//! swept), and streams with more correlation groups than `max_components`
//! (the loop must stop with live state mid-flight).
//!
//! Case count honors `PROPTEST_CASES` (CI raises it to 256).

use proptest::prelude::*;

use bgpscope_bgp::{
    AsPath, Event, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
};
use bgpscope_stemming::reference::decompose_weighted_reference;
use bgpscope_stemming::{Stemming, StemmingConfig};

/// Leading AS pairs per correlation group. Groups 0/1 share AS 100 and
/// groups 0/3 share AS 200, so sub-sequences overlap *across* groups.
const GROUP_PATHS: [[u32; 2]; 4] = [[100, 200], [100, 300], [500, 600], [700, 200]];

/// One generated event: `(group, tail, prefix_idx, time_ms, announce)`.
type Draw = (usize, u32, usize, u64, bool);

fn event_from((group, tail, prefix_idx, time_ms, announce): Draw) -> Event {
    let [a, b] = GROUP_PATHS[group];
    let peer = PeerId::from_octets(128, 32, 1, group as u8 + 1);
    let hop = RouterId::from_octets(128, 32, 0, group as u8 + 1);
    // A small shared prefix pool: distinct groups routinely collide on a
    // prefix, which is exactly what stresses the E-sweep.
    let prefix = Prefix::from_octets(10, (prefix_idx % 5) as u8, prefix_idx as u8, 0, 24);
    let attrs = PathAttributes::new(hop, AsPath::from_u32s([a, b, 1000 + tail]));
    let time = Timestamp::from_millis(time_ms);
    if announce {
        Event::announce(time, peer, prefix, attrs)
    } else {
        Event::withdraw(time, peer, prefix, attrs)
    }
}

fn stream_strategy() -> impl Strategy<Value = EventStream> {
    collection::vec(
        (0usize..4, 0u32..6, 0usize..10, 0u64..2000, any::<bool>()),
        0..120,
    )
    .prop_map(|draws| draws.into_iter().map(event_from).collect())
}

/// Deterministic per-event weight with a real zero class: both paths call
/// this on demand, so it must be a pure function of the event.
fn weight_of(e: &Event) -> u64 {
    e.time.0 % 4
}

/// Runs both paths over the same stream and config and asserts every
/// observable piece of the result matches exactly.
fn assert_paths_identical(stream: &EventStream, config: &StemmingConfig) {
    let incremental = Stemming::with_config(config.clone()).decompose_weighted(stream, weight_of);
    let reference = decompose_weighted_reference(config, stream, weight_of);
    assert_eq!(
        incremental.components(),
        reference.components(),
        "components diverged ({} events)",
        stream.len()
    );
    assert_eq!(incremental.total_events(), reference.total_events());
    assert_eq!(incremental.residual_indices(), reference.residual_indices());
    // The rendered report exercises the symbol table too: identical interning
    // order must yield byte-identical text.
    assert_eq!(incremental.report(), reference.report());
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

    /// The unweighted entry point (`decompose`) against the reference with
    /// unit weights.
    #[test]
    fn unweighted_decompose_matches_reference(stream in stream_strategy()) {
        let config = StemmingConfig::default();
        let incremental = Stemming::with_config(config.clone()).decompose(&stream);
        let reference = decompose_weighted_reference(&config, &stream, |_| 1);
        assert_eq!(incremental.components(), reference.components());
        assert_eq!(incremental.residual_indices(), reference.residual_indices());
        assert_eq!(incremental.report(), reference.report());
    }
}
