//! Deterministic controller test harness: drives [`Controller`] with
//! scripted queue-depth traces — step, ramp, sawtooth, storm-then-quiet —
//! and pins the law's convergence and stability properties as unit facts.
//! No threads, no sleeps, no pipeline spawn, no seeds: the controller is a
//! pure state machine and these tests prove it is testable as one.
//!
//! The second half is the merge-on-shed conservativeness proptest: folding
//! same-key events into weighted representatives (the [`CoalesceBuffer`]
//! the DropOldest policy uses in adaptive mode) never changes which stems
//! Stemming extracts — the coalesced stream under summed per-index weights
//! decomposes to the same components as the uncoalesced stream under the
//! reference oracle. Case count honors `PROPTEST_CASES` (CI raises it to
//! 256).

use std::collections::BTreeSet;

use bgpscope_anomaly::{
    stemming_at_level, CoalesceBuffer, Controller, ControllerConfig, DegradeConfig, FidelityLevel,
    Fold, WeightedEvent,
};
use bgpscope_bgp::{
    AsPath, Event, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
};
use bgpscope_stemming::reference::decompose_weighted_reference;
use bgpscope_stemming::{Stemming, StemmingConfig, StemmingResult};
use proptest::prelude::*;

/// The fixed target depth every trace test runs against.
const TARGET: u64 = 16;

fn controller() -> Controller {
    Controller::new(ControllerConfig::default().with_target_depth(TARGET))
}

/// Feeds a scripted depth trace and returns the commanded level sequence.
fn run_trace(ctl: &mut Controller, depths: &[u64]) -> Vec<FidelityLevel> {
    depths.iter().map(|&depth| ctl.sample(depth)).collect()
}

/// Every decision obeys the slew limit (≤ 1 level per sample, either
/// direction, measured from `start`).
fn assert_stable(start: FidelityLevel, decisions: &[FidelityLevel]) {
    let mut prev = start.index();
    for (i, d) in decisions.iter().enumerate() {
        let cur = d.index();
        assert!(
            cur.abs_diff(prev) <= 1,
            "sample {i}: level jumped {prev} -> {cur}"
        );
        prev = cur;
    }
}

#[test]
fn step_converges_one_level_per_sample_and_holds() {
    let mut ctl = controller();
    let mut trace = vec![0u64; 8];
    // Step to 64x the target: deserves the floor.
    trace.extend(std::iter::repeat_n(TARGET * 64, 12));
    let decisions = run_trace(&mut ctl, &trace);
    assert_stable(FidelityLevel::Full, &decisions);

    // Quiet prefix stays at full fidelity.
    for d in &decisions[..8] {
        assert_eq!(*d, FidelityLevel::Full);
    }
    // The step is ridden down one level per sample — the slew limit is the
    // only thing pacing it — and then held at the floor without wobble.
    let after: Vec<u8> = decisions[8..].iter().map(|d| d.index()).collect();
    assert_eq!(&after[..4], &[1, 2, 3, 4], "one level per sample on ascent");
    assert!(
        after[4..].iter().all(|&l| l == FidelityLevel::STEPS),
        "steady overload holds the floor: {after:?}"
    );
}

#[test]
fn ramp_never_descends_while_rising() {
    let mut ctl = controller();
    let trace: Vec<u64> = (0..64).map(|i| i * TARGET / 4).collect();
    let decisions = run_trace(&mut ctl, &trace);
    assert_stable(FidelityLevel::Full, &decisions);
    let mut prev = 0u8;
    for (i, d) in decisions.iter().enumerate() {
        assert!(
            d.index() >= prev,
            "sample {i}: fidelity coarseness decreased during a monotone ramp"
        );
        prev = d.index();
    }
    assert_eq!(
        *decisions.last().unwrap(),
        FidelityLevel::Floor,
        "a ramp past 16x target ends at the floor"
    );
}

#[test]
fn sawtooth_does_not_oscillate() {
    // Sawtooth spiking every 3rd sample: the spikes arrive faster than
    // `recovery_patience` calm samples accumulate, so the Schmitt trigger
    // must turn the noisy depth into a *steady* level instead of chattering
    // — at most one net level change over the whole sawtooth, and never a
    // descent below the pre-sawtooth level.
    let mut ctl = controller();
    let warmup = vec![TARGET * 8; 4];
    let decisions = run_trace(&mut ctl, &warmup);
    assert_stable(FidelityLevel::Full, &decisions);
    let settled = ctl.level();
    assert!(settled > FidelityLevel::Full);
    assert!(
        (ctl.config().recovery_patience as usize) >= 3,
        "the trace below assumes spikes outpace the calm patience"
    );

    let sawtooth: Vec<u64> = (0..40)
        .map(|i| if i % 3 == 0 { TARGET * 8 } else { TARGET / 2 })
        .collect();
    let decisions = run_trace(&mut ctl, &sawtooth);
    assert_stable(settled, &decisions);
    for (i, d) in decisions.iter().enumerate() {
        assert!(
            *d >= settled,
            "sample {i}: descended to {d} mid-sawtooth (settled {settled})"
        );
    }
    let changes = decisions.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        changes <= 1,
        "sawtooth caused {changes} level changes — the trigger is chattering"
    );
}

#[test]
fn storm_then_quiet_recovers_to_full_with_patience_pacing() {
    let mut ctl = controller();
    let mut trace = vec![TARGET * 64; 16];
    trace.extend(std::iter::repeat_n(0u64, 64));
    let decisions = run_trace(&mut ctl, &trace);
    assert_stable(FidelityLevel::Full, &decisions);
    assert_eq!(
        decisions[15],
        FidelityLevel::Floor,
        "the storm drives the controller to the floor"
    );

    // Recovery: one level per `recovery_patience` quiet samples, never
    // faster, ending at full fidelity.
    let patience = ctl.config().recovery_patience as usize;
    let quiet = &decisions[16..];
    for (i, d) in quiet.iter().enumerate() {
        let steps_earned = (i + 1) / patience;
        let expected = usize::from(FidelityLevel::STEPS).saturating_sub(steps_earned);
        assert_eq!(
            usize::from(d.index()),
            expected,
            "quiet sample {i}: recovery must pace at one level per {patience} samples"
        );
    }
    assert_eq!(*quiet.last().unwrap(), FidelityLevel::Full);
}

#[test]
fn steady_state_fidelity_is_monotone_in_depth() {
    // Converge a fresh controller at each constant depth; the settled level
    // must be nondecreasing in depth (and bracketed by full / floor).
    let depths: Vec<u64> = (0..10).map(|i| TARGET << i).collect();
    let mut prev_level = FidelityLevel::Full;
    for &depth in std::iter::once(&0).chain(depths.iter()) {
        let mut ctl = controller();
        let decisions = run_trace(&mut ctl, &vec![depth; 32]);
        assert_stable(FidelityLevel::Full, &decisions);
        let settled = ctl.level();
        // Settled means settled: the tail of the trace holds one level.
        assert!(decisions[24..].iter().all(|&d| d == settled));
        assert!(
            settled >= prev_level,
            "depth {depth}: settled level {settled} coarser-than-or-equal ordering violated"
        );
        prev_level = settled;
    }
    assert_eq!(
        prev_level,
        FidelityLevel::Floor,
        "deep overload settles at the floor"
    );
}

#[test]
fn fidelity_ladder_is_monotone_in_every_knob() {
    let stemming = StemmingConfig::default();
    let degrade = DegradeConfig::default();
    let ladder: Vec<StemmingConfig> = (0..=FidelityLevel::STEPS)
        .map(|i| stemming_at_level(&stemming, &degrade, FidelityLevel::from_index(i)))
        .collect();
    for pair in ladder.windows(2) {
        assert!(pair[1].min_support >= pair[0].min_support);
        assert!(pair[1].max_components <= pair[0].max_components);
        assert!(pair[1].max_components >= 1);
        if pair[0].max_subseq_len != 0 {
            assert!(pair[1].max_subseq_len <= pair[0].max_subseq_len);
        }
    }
}

// ---------------------------------------------------------------------------
// Merge-on-shed conservativeness: coalescing never changes the stems.
// ---------------------------------------------------------------------------

/// Leading AS pairs per correlation group — same overlap structure as the
/// stemming differential harness, plus a small prefix pool so same-key
/// duplicates (coalescable events) occur constantly.
const GROUP_PATHS: [[u32; 2]; 4] = [[100, 200], [100, 300], [500, 600], [700, 200]];

/// One generated event: `(group, tail, prefix_idx, time_ms, announce)`.
type Draw = (usize, u32, usize, u64, bool);

fn event_from((group, tail, prefix_idx, time_ms, announce): Draw) -> Event {
    let [a, b] = GROUP_PATHS[group];
    let peer = PeerId::from_octets(128, 32, 1, group as u8 + 1);
    let hop = RouterId::from_octets(128, 32, 0, group as u8 + 1);
    let prefix = Prefix::from_octets(10, (prefix_idx % 3) as u8, prefix_idx as u8, 0, 24);
    // `tail % 2` keeps the attribute space small so distinct draws often
    // collide on the full (kind, peer, prefix, attrs) coalescing key.
    let attrs = PathAttributes::new(hop, AsPath::from_u32s([a, b, 1000 + tail % 2]));
    let time = Timestamp::from_millis(time_ms);
    if announce {
        Event::announce(time, peer, prefix, attrs)
    } else {
        Event::withdraw(time, peer, prefix, attrs)
    }
}

fn stream_strategy() -> impl Strategy<Value = EventStream> {
    collection::vec(
        (0usize..4, 0u32..4, 0usize..6, 0u64..2000, any::<bool>()),
        0..100,
    )
    .prop_map(|draws| draws.into_iter().map(event_from).collect())
}

/// Deterministic per-event weight — pure function of the event, with a real
/// spread so summed representative weights differ from instance counts.
fn weight_of(e: &Event) -> u64 {
    1 + e.time.0 % 3
}

/// Coalesces a stream exactly the way the pipeline's merge-on-shed path
/// does: every event folded through a [`CoalesceBuffer`] wide enough to
/// hold all representatives, then drained in FIFO order. Returns the
/// surviving stream and each representative's summed weight.
fn coalesce(stream: &EventStream) -> (EventStream, Vec<u64>) {
    let mut buf = CoalesceBuffer::new(stream.len().max(1));
    for e in stream.events() {
        let folded = buf.fold(WeightedEvent {
            event: e.clone(),
            weight: weight_of(e),
        });
        assert!(
            !matches!(folded, Fold::Shed(_)),
            "a buffer sized to the stream never sheds"
        );
    }
    let mut events = EventStream::new();
    let mut weights = Vec::new();
    while let Some(rep) = buf.pop() {
        events.push(rep.event);
        weights.push(rep.weight);
    }
    (events, weights)
}

/// What "which stems Stemming extracts" means observably: per component the
/// rendered common portion, rendered stem, support, and affected prefix
/// set, plus the residual prefix set. Event indices, times, and instance
/// counts legitimately differ once duplicates merge; everything here must
/// not.
type Fingerprint = (
    Vec<(String, String, u64, BTreeSet<Prefix>)>,
    BTreeSet<Prefix>,
);

fn stem_fingerprint(result: &StemmingResult, stream: &EventStream) -> Fingerprint {
    let components = result
        .components()
        .iter()
        .map(|c| {
            (
                c.display_subsequence(result.symbols()),
                c.stem.display(result.symbols()),
                c.support,
                c.prefixes.clone(),
            )
        })
        .collect();
    let residual = result
        .residual_indices()
        .iter()
        .map(|&i| stream.events()[i].prefix)
        .collect();
    (components, residual)
}

fn assert_coalescing_conservative(stream: &EventStream, config: &StemmingConfig) {
    let (merged, weights) = coalesce(stream);
    let coalesced = Stemming::with_config(config.clone())
        .decompose_weighted_indexed(&merged, |i, _| weights[i]);
    let uncoalesced = decompose_weighted_reference(config, stream, |_, e| weight_of(e));
    assert_eq!(
        stem_fingerprint(&coalesced, &merged),
        stem_fingerprint(&uncoalesced, stream),
        "coalescing changed the extracted stems ({} events -> {} representatives)",
        stream.len(),
        merged.len()
    );
}

proptest! {
    /// Coalescing is conservative under the default configuration.
    ///
    /// `min_residual_events` is pinned to 1 in every config here: that stop
    /// condition counts surviving *instances*, which merging legitimately
    /// reduces — the conservativeness claim is about the weighted counts
    /// every other decision runs on.
    #[test]
    fn coalescing_preserves_stems_default_config(stream in stream_strategy()) {
        let config = StemmingConfig {
            min_residual_events: 1,
            ..StemmingConfig::default()
        };
        assert_coalescing_conservative(&stream, &config);
    }

    /// ... and when the component budget exhausts mid-decomposition.
    #[test]
    fn coalescing_preserves_stems_when_components_exhaust(stream in stream_strategy()) {
        let config = StemmingConfig {
            max_components: 2,
            min_support: 1,
            min_residual_events: 1,
            ..StemmingConfig::default()
        };
        assert_coalescing_conservative(&stream, &config);
    }

    /// ... and at a degraded fidelity level's capped sub-sequence length —
    /// the configuration adaptive mode actually runs coalesced streams at.
    #[test]
    fn coalescing_preserves_stems_at_degraded_fidelity(stream in stream_strategy()) {
        let config = StemmingConfig {
            min_residual_events: 1,
            ..stemming_at_level(
                &StemmingConfig::default(),
                &DegradeConfig::default(),
                FidelityLevel::Medium,
            )
        };
        assert_coalescing_conservative(&stream, &config);
    }
}
