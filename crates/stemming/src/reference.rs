//! The retained from-scratch Stemming loop: the correctness oracle for the
//! incremental rounds.
//!
//! [`Stemming::decompose_weighted`](crate::Stemming::decompose_weighted) now
//! counts the stream once and *subtracts* each extracted component from the
//! counter. This module keeps the original per-round-rebuild implementation
//! — recount every surviving event, rescan every event for the P/E sweep —
//! exactly as it stood before the optimization, so that:
//!
//! - the differential proptest harness (`tests/differential.rs`) can assert
//!   the two paths produce bit-identical [`StemmingResult`]s over adversarial
//!   generated streams, and
//! - the round benchmark (`benches/scaling.rs`) can
//!   measure the incremental path against the true baseline on one host.
//!
//! It is `#[doc(hidden)]` because it is test/bench infrastructure, not API:
//! integration tests and the bench crate need to call it, which rules out
//! `#[cfg(test)]`, but nothing downstream should depend on it.

use std::collections::BTreeSet;

use bgpscope_bgp::intern::Symbol;
use bgpscope_bgp::{EventKind, EventStream, Timestamp};

use crate::algorithm::{contains_subslice, StemmingConfig, StemmingResult};
use crate::component::{Component, Stem};
use crate::count::SubsequenceCounter;
use crate::sequence::SequenceEncoder;

/// Decomposes `stream` with a from-scratch counter rebuild every round —
/// the pre-optimization reference semantics of
/// [`Stemming::decompose_weighted`](crate::Stemming::decompose_weighted).
pub fn decompose_weighted_reference<F>(
    config: &StemmingConfig,
    stream: &EventStream,
    weight_of: F,
) -> StemmingResult
where
    F: Fn(&bgpscope_bgp::Event) -> u64,
{
    let events = stream.events();
    let mut encoder = SequenceEncoder::new();
    let sequences: Vec<Vec<Symbol>> = events.iter().map(|e| encoder.encode(e)).collect();

    let mut alive: Vec<bool> = vec![true; events.len()];
    let mut alive_count = events.len();
    let mut components = Vec::new();

    while components.len() < config.max_components && alive_count >= config.min_residual_events {
        // Count sub-sequences over the remaining events.
        let mut counter =
            SubsequenceCounter::with_parallelism(config.max_subseq_len, config.parallelism);
        for (i, seq) in sequences.iter().enumerate() {
            if alive[i] {
                counter.add_weighted(seq, weight_of(&events[i]));
            }
        }
        let ranking = config.ranking;
        let Some(best) = counter.best_by(move |a, b| ranking.better(a, b)) else {
            break;
        };
        if best.count < config.min_support {
            break;
        }
        let winner = best.subseq;

        // P: prefixes of alive events containing the winner.
        let mut prefixes = BTreeSet::new();
        for (i, seq) in sequences.iter().enumerate() {
            if alive[i] && contains_subslice(seq, &winner) {
                prefixes.insert(events[i].prefix);
            }
        }

        // E: all alive events touching any prefix in P.
        let mut indices = Vec::new();
        let mut start = Timestamp(u64::MAX);
        let mut end = Timestamp::ZERO;
        let mut announce_count = 0;
        let mut withdraw_count = 0;
        for (i, event) in events.iter().enumerate() {
            if alive[i] && prefixes.contains(&event.prefix) {
                alive[i] = false;
                alive_count -= 1;
                indices.push(i);
                start = start.min(event.time);
                end = end.max(event.time);
                match event.kind {
                    EventKind::Announce => announce_count += 1,
                    EventKind::Withdraw => withdraw_count += 1,
                }
            }
        }
        debug_assert!(
            !indices.is_empty(),
            "winning sub-sequence must match events"
        );

        let stem = Stem(winner[winner.len() - 2], winner[winner.len() - 1]);
        components.push(Component {
            subsequence: winner,
            stem,
            support: best.count,
            prefixes,
            event_indices: indices,
            start,
            end,
            announce_count,
            withdraw_count,
        });
    }

    let residual_indices = alive
        .iter()
        .enumerate()
        .filter_map(|(i, &a)| if a { Some(i) } else { None })
        .collect();

    StemmingResult::from_parts(
        components,
        encoder.into_interner().into(),
        events.len(),
        residual_indices,
    )
}
