//! The retained from-scratch Stemming loop: the correctness oracle for the
//! incremental rounds.
//!
//! [`Stemming::decompose_weighted`](crate::Stemming::decompose_weighted)
//! counts the stream once and *subtracts* each extracted component from a
//! [`SubsequenceCounter`](crate::SubsequenceCounter). This module does
//! neither: every round it recounts every surviving event from scratch and
//! rescans every event for the P/E sweep, and it counts with its own few
//! obviously-correct lines rather than the counter it referees, so the
//! differential proptest harness (`tests/differential.rs`) holds the shipped
//! path bit-identical to code that shares nothing with it but the sequence
//! encoder and the ranking rule.
//!
//! It is `#[doc(hidden)]` because it is test infrastructure, not API:
//! integration tests need to call it, which rules out `#[cfg(test)]`, but
//! nothing downstream should depend on it.

use std::collections::{BTreeMap, BTreeSet};

use bgpscope_bgp::intern::Symbol;
use bgpscope_bgp::{EventKind, EventStream, Timestamp};

use crate::algorithm::{contains_subslice, StemmingConfig, StemmingResult};
use crate::component::{Component, Stem};
use crate::count::SubsequenceStat;
use crate::sequence::SequenceEncoder;

/// Decomposes `stream` with a from-scratch recount every round — the
/// reference semantics of
/// [`Stemming::decompose_weighted_indexed`](crate::Stemming::decompose_weighted_indexed);
/// `weight_of` gets the event's stream index, as there.
pub fn decompose_weighted_reference<F>(
    config: &StemmingConfig,
    stream: &EventStream,
    weight_of: F,
) -> StemmingResult
where
    F: Fn(usize, &bgpscope_bgp::Event) -> u64,
{
    let events = stream.events();
    let mut encoder = SequenceEncoder::new();
    let sequences: Vec<Vec<Symbol>> = events.iter().map(|e| encoder.encode(e)).collect();

    let mut alive: Vec<bool> = vec![true; events.len()];
    let mut alive_count = events.len();
    let mut components = Vec::new();

    while components.len() < config.max_components && alive_count >= config.min_residual_events {
        // Count over the remaining events: each distinct contiguous slice
        // of an event's sequence gains the event's weight, once per event.
        let mut counts: BTreeMap<&[Symbol], u64> = BTreeMap::new();
        for (i, seq) in sequences.iter().enumerate() {
            let weight = weight_of(i, &events[i]);
            if !alive[i] || weight == 0 {
                continue;
            }
            let longest = match config.max_subseq_len {
                0 => seq.len(),
                cap => cap.min(seq.len()),
            };
            let slices: BTreeSet<&[Symbol]> =
                (2..=longest).flat_map(|len| seq.windows(len)).collect();
            for slice in slices {
                *counts.entry(slice).or_insert(0) += weight;
            }
        }
        // The winner: best under the ranking rule; the map iterates in
        // lexicographic order, so keeping the first of equals is the
        // lexicographic tie-break.
        let best = counts
            .iter()
            .map(|(slice, &count)| SubsequenceStat {
                subseq: slice.to_vec(),
                count,
            })
            .reduce(|best, candidate| {
                if config.ranking.better(&candidate, &best) {
                    candidate
                } else {
                    best
                }
            });
        let Some(best) = best else {
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
