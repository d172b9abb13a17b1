//! Ranking rules for choosing the winning sub-sequence.
//!
//! The paper says "ranks all sub-sequences in descending order of their
//! counts, and picks the highest ranking sub-sequence". Taken literally over
//! all sub-sequences this is degenerate: a sub-sequence's count can never
//! exceed its own sub-sequences' counts, so single symbols would always win —
//! and a single symbol has no "last adjacent pair" to serve as a stem. The
//! Fig-4 walkthrough resolves the ambiguity: with the failure between 209 and
//! 7018 "the common portion would be 11423-209-7018", i.e. ties on count go
//! to the *longest* sub-sequence. [`RankingRule::CountThenLength`] encodes
//! that reading and is the default; the alternatives exist for the ablation
//! benchmark.

use serde::{Deserialize, Serialize};

use crate::count::SubsequenceStat;

/// A rule's sort key for one sub-sequence ([`RankingRule::score`]).
pub(crate) type Score = (u64, u64);

/// How to pick the winning sub-sequence among all counted ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RankingRule {
    /// Highest count; ties broken by greater length (default, matches the
    /// paper's Fig-4 walkthrough).
    #[default]
    CountThenLength,
    /// Highest count only (ties fall to deterministic lexicographic order).
    /// Tends to pick the shortest common pair.
    CountOnly,
    /// Highest `count × (length − 1)` — weight by the number of adjacent
    /// pairs ("edges") covered. Favors long shared path segments.
    CoverageWeighted,
}

impl RankingRule {
    /// Every rule, for tests and ablations that sweep them.
    pub const ALL: [RankingRule; 3] = [
        RankingRule::CountThenLength,
        RankingRule::CountOnly,
        RankingRule::CoverageWeighted,
    ];

    /// The rule's sort key for a sub-sequence contained in `count` events and
    /// `len` symbols long: the greater key ranks above. Equal keys fall to
    /// lexicographic symbol order in the callers.
    pub(crate) fn score(&self, count: u64, len: usize) -> Score {
        match self {
            RankingRule::CountThenLength => (count, len as u64),
            RankingRule::CountOnly => (count, 0),
            RankingRule::CoverageWeighted => (count * (len as u64 - 1), 0),
        }
    }

    /// Whether the count is the score's first key, so that a sub-sequence in
    /// more events always ranks above one in fewer.
    pub(crate) fn count_ranks_first(&self) -> bool {
        match self {
            RankingRule::CountThenLength | RankingRule::CountOnly => true,
            RankingRule::CoverageWeighted => false,
        }
    }

    /// Whether, between two sub-sequences at the same count, the longer
    /// always ranks above — the score grows with the length — rather than
    /// the tie falling to lexicographic order.
    pub(crate) fn longer_ranks_above(&self) -> bool {
        match self {
            RankingRule::CountThenLength | RankingRule::CoverageWeighted => true,
            RankingRule::CountOnly => false,
        }
    }

    /// The least count a sub-sequence needs to matter to a winner query
    /// with threshold `min_support`. Where the count is the first key, one
    /// below `min_support` can neither be returned nor outrank one that can,
    /// now or after any removal (removals only lower counts), so the floor is
    /// `min_support` (at least 1: a count of 0 is no sub-sequence). Under a
    /// rule that can rank a rarer sub-sequence first, every live one matters
    /// and the floor is 1.
    pub(crate) fn candidate_floor(&self, min_support: u64) -> u64 {
        if self.count_ranks_first() {
            min_support.max(1)
        } else {
            1
        }
    }

    /// The one order over candidate sub-sequences, shared by the index's
    /// winner heap and its per-prefix leaves: whether a sub-sequence at
    /// score `a` ranks above one at score `b` — the greater score, and on
    /// equal scores the lexicographically first sub-sequence, which
    /// `a_first` reports. Total over distinct sub-sequences. The
    /// sub-sequences are read only when the scores tie.
    pub(crate) fn ranks_above(a: Score, b: Score, a_first: impl FnOnce() -> bool) -> bool {
        a > b || (a == b && a_first())
    }

    /// Strict "is `a` ranked above `b`".
    pub fn better(&self, a: &SubsequenceStat, b: &SubsequenceStat) -> bool {
        self.score(a.count, a.len()) > self.score(b.count, b.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::intern::Symbol;

    fn stat(count: u64, len: usize) -> SubsequenceStat {
        SubsequenceStat {
            subseq: (0..len as u32).map(Symbol).collect(),
            count,
        }
    }

    #[test]
    fn count_then_length() {
        let r = RankingRule::CountThenLength;
        assert!(r.better(&stat(10, 2), &stat(8, 5)));
        assert!(r.better(&stat(10, 3), &stat(10, 2)));
        assert!(!r.better(&stat(10, 2), &stat(10, 2)));
    }

    #[test]
    fn count_only_ignores_length() {
        let r = RankingRule::CountOnly;
        assert!(!r.better(&stat(10, 3), &stat(10, 2)));
        assert!(!r.better(&stat(10, 2), &stat(10, 3)));
        assert!(r.better(&stat(11, 2), &stat(10, 9)));
    }

    /// `count_ranks_first` is what lets the winner heap leave out
    /// sub-sequences below the support threshold: it must hold of the score.
    #[test]
    fn count_ranks_first_matches_the_score() {
        for rule in RankingRule::ALL {
            let more_events_always_wins =
                (2..=9).all(|short| (2..=9).all(|long| rule.score(3, short) > rule.score(2, long)));
            assert_eq!(
                rule.count_ranks_first(),
                more_events_always_wins,
                "{rule:?}"
            );
        }
    }

    #[test]
    fn coverage_weighted_prefers_long_segments() {
        let r = RankingRule::CoverageWeighted;
        // 8 events sharing a 4-long portion (score 24) beat 10 sharing a pair (10).
        assert!(r.better(&stat(8, 4), &stat(10, 2)));
    }
}
