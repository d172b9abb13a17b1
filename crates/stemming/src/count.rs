//! Contiguous sub-sequence counting over a set of event sequences.
//!
//! The counter first deduplicates identical full sequences (a persistent
//! oscillation emits the *same* sequence millions of times), then enumerates
//! the contiguous sub-sequences of each distinct sequence once, adding the
//! sequence's multiplicity to each sub-sequence's count. Within one event a
//! repeated sub-sequence still counts once ("number of events containing s").
//!
//! There is one count map and one enumeration routine
//! ([`for_each_subsequence`]). The map is built lazily, on the first query
//! ([`SubsequenceCounter::materialize_counts`], `count_of`, `stats`,
//! `best_by`), by running the routine over every distinct sequence; until
//! then an add or remove touches only the distinct-sequence map. Once the
//! map exists, [`SubsequenceCounter::add_weighted`] and
//! [`SubsequenceCounter::remove_weighted`] run the same routine over the one
//! touched sequence and update the map in place. Entries that reach zero are
//! pruned from both maps, so after a removal the counter is
//! indistinguishable from one that never saw the sequence. This is what lets
//! the recursive Stemming decomposition count a window once and then
//! *subtract* each extracted component — O(component) per round instead of a
//! full O(alive) recount.

use std::collections::HashMap;

use bgpscope_bgp::intern::Symbol;

/// Count statistics for one sub-sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsequenceStat {
    /// The sub-sequence itself.
    pub subseq: Vec<Symbol>,
    /// Number of events whose sequence contains it.
    pub count: u64,
}

impl SubsequenceStat {
    /// The sub-sequence length in symbols.
    pub fn len(&self) -> usize {
        self.subseq.len()
    }

    /// True for the (unused) empty sub-sequence.
    pub fn is_empty(&self) -> bool {
        self.subseq.is_empty()
    }
}

/// Accumulates event sequences and counts their contiguous sub-sequences.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::intern::Symbol;
/// use bgpscope_stemming::SubsequenceCounter;
///
/// let s = |v: u32| Symbol(v);
/// let mut counter = SubsequenceCounter::new(8);
/// counter.add(&[s(1), s(2), s(3)]);
/// counter.add(&[s(1), s(2), s(4)]);
/// assert_eq!(counter.count_of(&[s(1), s(2)]), 2);
/// assert_eq!(counter.count_of(&[s(2), s(3)]), 1);
/// assert_eq!(counter.count_of(&[s(9), s(9)]), 0);
/// ```
#[derive(Debug, Default)]
pub struct SubsequenceCounter {
    /// Distinct full sequences with multiplicities.
    sequences: HashMap<Vec<Symbol>, u64>,
    /// Longest sub-sequence length enumerated (0 = unlimited).
    max_len: usize,
    /// Total number of sequences added (with multiplicity).
    total: u64,
    /// Sub-sequence counts, built on the first query and kept current by
    /// every later add and remove.
    counts: Option<HashMap<Vec<Symbol>, u64>>,
}

impl SubsequenceCounter {
    /// A counter that enumerates sub-sequences up to `max_len` symbols
    /// (`0` means no limit). AS paths average 3–6 hops, so event sequences
    /// rarely exceed ~10 symbols; a limit mainly guards against pathological
    /// prepending.
    pub fn new(max_len: usize) -> Self {
        SubsequenceCounter {
            max_len,
            ..SubsequenceCounter::default()
        }
    }

    /// [`SubsequenceCounter::new`]; the second argument is accepted and
    /// ignored. Counting has one serial path — this name goes when
    /// `benchmark/src/adapter.rs` stops calling it.
    pub fn with_parallelism(max_len: usize, _parallelism: usize) -> Self {
        Self::new(max_len)
    }

    /// Adds one event's sequence.
    pub fn add(&mut self, seq: &[Symbol]) {
        self.add_weighted(seq, 1);
    }

    /// Adds one event's sequence with a weight (used by traffic-weighted
    /// Stemming, where an event counts proportionally to the traffic volume
    /// of its prefix).
    ///
    /// Before the counts are built this touches only the distinct-sequence
    /// map, so a million copies of one sequence cost a million map bumps and
    /// one enumeration. Once they are built, each distinct sub-sequence of
    /// `seq` gains `weight` in place.
    pub fn add_weighted(&mut self, seq: &[Symbol], weight: u64) {
        if weight == 0 {
            return;
        }
        match self.sequences.get_mut(seq) {
            Some(mult) => *mult += weight,
            None => {
                self.sequences.insert(seq.to_vec(), weight);
            }
        }
        self.total += weight;
        if let Some(counts) = &mut self.counts {
            add_subsequences(counts, seq, self.max_len, weight);
        }
    }

    /// Removes one previously added occurrence of `seq` (weight 1). See
    /// [`SubsequenceCounter::remove_weighted`].
    pub fn remove(&mut self, seq: &[Symbol]) -> bool {
        self.remove_weighted(seq, 1)
    }

    /// Removes `weight` worth of a previously added sequence, mirroring
    /// [`SubsequenceCounter::add_weighted`]: the sequence's multiplicity and
    /// every one of its distinct sub-sequences' counts drop by `weight`, and
    /// entries reaching zero are pruned — [`SubsequenceCounter::distinct_sequences`],
    /// [`SubsequenceCounter::stats`], and [`SubsequenceCounter::best_by`]
    /// behave exactly as if the removed weight had never been added.
    ///
    /// Removing a sequence that was never added, or more weight than the
    /// sequence currently carries, is *rejected*: the call returns `false`
    /// and the counter is left untouched (never a silent `u64` underflow).
    /// A zero `weight` is a no-op returning `true`, mirroring the add path.
    pub fn remove_weighted(&mut self, seq: &[Symbol], weight: u64) -> bool {
        if weight == 0 {
            return true;
        }
        let Some(mult) = self.sequences.get_mut(seq) else {
            return false;
        };
        if *mult < weight {
            return false;
        }
        *mult -= weight;
        if *mult == 0 {
            self.sequences.remove(seq);
        }
        self.total -= weight;
        if let Some(counts) = &mut self.counts {
            // Underflow is impossible for a sequence the counter held: every
            // sub-sequence count is at least the sequence's own multiplicity.
            for_each_subsequence(seq, self.max_len, |sub| {
                let count = counts
                    .get_mut(sub)
                    .expect("removed sequence's sub-sequence must be counted");
                debug_assert!(*count >= weight, "sub-sequence count underflow");
                *count -= weight;
                if *count == 0 {
                    counts.remove(sub);
                }
            });
        }
        true
    }

    /// Total sequences added (with multiplicity / weight).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of *distinct* sequences seen.
    pub fn distinct_sequences(&self) -> usize {
        self.sequences.len()
    }

    /// Forces the sub-sequence counts to exist: one enumeration pass over
    /// the distinct sequences. After this, every
    /// [`SubsequenceCounter::add_weighted`] /
    /// [`SubsequenceCounter::remove_weighted`] maintains them in place —
    /// O(len²) in the touched sequence. This is the entry point for
    /// decremental workloads: pay one full counting pass up front, then
    /// subtract. Every query calls it, so calling it first is optional.
    pub fn materialize_counts(&mut self) {
        self.counts();
    }

    /// Ensures counts are built and returns them.
    fn counts(&mut self) -> &HashMap<Vec<Symbol>, u64> {
        let (sequences, max_len) = (&self.sequences, self.max_len);
        self.counts.get_or_insert_with(|| {
            let mut counts = HashMap::new();
            for (seq, &mult) in sequences {
                add_subsequences(&mut counts, seq, max_len, mult);
            }
            counts
        })
    }

    /// The count of one specific sub-sequence.
    pub fn count_of(&mut self, subseq: &[Symbol]) -> u64 {
        self.counts().get(subseq).copied().unwrap_or(0)
    }

    /// All sub-sequence statistics, in unspecified order.
    pub fn stats(&mut self) -> Vec<SubsequenceStat> {
        self.counts()
            .iter()
            .map(|(s, &c)| SubsequenceStat {
                subseq: s.clone(),
                count: c,
            })
            .collect()
    }

    /// The best sub-sequence under `better`, a strict "is a better than b"
    /// predicate. Ties not broken by `better` fall back to lexicographic
    /// symbol order, which makes the result independent of map iteration
    /// order.
    ///
    /// One fold over the counts with a reusable candidate buffer (swapped
    /// in on a win), so it allocates O(1) vectors whatever the entry count.
    pub fn best_by<F>(&mut self, better: F) -> Option<SubsequenceStat>
    where
        F: Fn(&SubsequenceStat, &SubsequenceStat) -> bool,
    {
        let mut best: Option<SubsequenceStat> = None;
        let mut cand = SubsequenceStat {
            subseq: Vec::new(),
            count: 0,
        };
        for (sub, &count) in self.counts() {
            cand.subseq.clear();
            cand.subseq.extend_from_slice(sub);
            cand.count = count;
            match &mut best {
                None => best = Some(cand.clone()),
                Some(b) => {
                    if better(&cand, b) || (!better(b, &cand) && cand.subseq < b.subseq) {
                        std::mem::swap(b, &mut cand);
                    }
                }
            }
        }
        best
    }
}

/// Adds `weight` to the count of every distinct contiguous sub-sequence of
/// `seq`. A key is allocated once per distinct sub-sequence, not once per
/// occurrence.
fn add_subsequences(
    counts: &mut HashMap<Vec<Symbol>, u64>,
    seq: &[Symbol],
    max_len: usize,
    weight: u64,
) {
    for_each_subsequence(seq, max_len, |sub| match counts.get_mut(sub) {
        Some(count) => *count += weight,
        None => {
            counts.insert(sub.to_vec(), weight);
        }
    });
}

/// The one enumeration: calls `visit` exactly once for each *distinct*
/// contiguous sub-sequence of `seq` with 2 to `max_len` symbols (`0` = no
/// limit). A slice that also occurs at an earlier start (path `1 2 1 2`,
/// prepending) is skipped, which is the once-per-event counting rule;
/// sequences are a handful of symbols, so the rescan is cheaper than a set.
fn for_each_subsequence(seq: &[Symbol], max_len: usize, mut visit: impl FnMut(&[Symbol])) {
    let n = seq.len();
    let max = if max_len == 0 { n } else { max_len.min(n) };
    for len in 2..=max {
        for start in 0..=(n - len) {
            let sub = &seq[start..start + len];
            if !seq[..start + len - 1].windows(len).any(|w| w == sub) {
                visit(sub);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u32) -> Symbol {
        Symbol(v)
    }

    #[test]
    fn counts_across_events() {
        let mut c = SubsequenceCounter::new(0);
        c.add(&[s(1), s(2), s(3), s(4)]);
        c.add(&[s(1), s(2), s(5)]);
        c.add(&[s(9), s(2), s(3)]);
        assert_eq!(c.count_of(&[s(1), s(2)]), 2);
        assert_eq!(c.count_of(&[s(2), s(3)]), 2);
        assert_eq!(c.count_of(&[s(1), s(2), s(3)]), 1);
        assert_eq!(c.count_of(&[s(1), s(2), s(3), s(4)]), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn repeated_subsequence_in_one_event_counts_once() {
        let mut c = SubsequenceCounter::new(0);
        c.add(&[s(1), s(2), s(1), s(2)]);
        assert_eq!(c.count_of(&[s(1), s(2)]), 1);
        assert_eq!(c.count_of(&[s(2), s(1)]), 1);
    }

    #[test]
    fn duplicate_sequences_fold_with_multiplicity() {
        let mut c = SubsequenceCounter::new(0);
        for _ in 0..1000 {
            c.add(&[s(1), s(2), s(3)]);
        }
        assert_eq!(c.distinct_sequences(), 1);
        assert_eq!(c.count_of(&[s(1), s(2)]), 1000);
        assert_eq!(c.count_of(&[s(1), s(2), s(3)]), 1000);
    }

    #[test]
    fn weighted_adds() {
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2)], 90);
        c.add_weighted(&[s(3), s(2)], 10);
        c.add_weighted(&[s(4), s(2)], 0); // no-op
        assert_eq!(c.count_of(&[s(1), s(2)]), 90);
        assert_eq!(c.total(), 100);
        assert_eq!(c.count_of(&[s(4), s(2)]), 0);
    }

    #[test]
    fn max_len_limits_enumeration() {
        let mut c = SubsequenceCounter::new(2);
        c.add(&[s(1), s(2), s(3)]);
        assert_eq!(c.count_of(&[s(1), s(2)]), 1);
        assert_eq!(c.count_of(&[s(1), s(2), s(3)]), 0);
    }

    #[test]
    fn single_symbol_sequences_yield_nothing() {
        let mut c = SubsequenceCounter::new(0);
        c.add(&[s(1)]);
        c.add(&[]);
        assert!(c.stats().is_empty());
    }

    /// 500 distinct weighted sequences: shared structure plus per-sequence
    /// tails.
    fn bulk_counter() -> SubsequenceCounter {
        let mut c = SubsequenceCounter::new(0);
        for i in 0..500u32 {
            let seq = [s(11423), s(209), s(700 + i % 40), s(i), s(i % 7)];
            c.add_weighted(&seq, 1 + u64::from(i % 3));
        }
        c
    }

    /// Sorted stats of a counter, for set-equality comparisons.
    fn sorted_stats(c: &mut SubsequenceCounter) -> Vec<SubsequenceStat> {
        let mut v = c.stats();
        v.sort_by(|x, y| x.subseq.cmp(&y.subseq));
        v
    }

    #[test]
    fn add_remove_round_trip_restores_exact_counts() {
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2), s(3)], 5);
        c.add_weighted(&[s(1), s(2), s(4)], 2);
        let before = sorted_stats(&mut c);
        let (total, distinct) = (c.total(), c.distinct_sequences());

        c.add_weighted(&[s(9), s(8), s(7)], 3);
        c.add_weighted(&[s(1), s(2), s(3)], 4); // bump an existing sequence
        assert!(c.remove_weighted(&[s(9), s(8), s(7)], 3));
        assert!(c.remove_weighted(&[s(1), s(2), s(3)], 4));

        assert_eq!(c.total(), total);
        assert_eq!(c.distinct_sequences(), distinct);
        assert_eq!(sorted_stats(&mut c), before);
        assert_eq!(c.count_of(&[s(1), s(2)]), 7);
        assert_eq!(c.count_of(&[s(9), s(8)]), 0);
    }

    #[test]
    fn remove_to_zero_prunes_the_entry() {
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2), s(3)], 2);
        c.add(&[s(4), s(5)]);
        c.materialize_counts();
        assert!(c.remove_weighted(&[s(1), s(2), s(3)], 2));
        assert_eq!(c.distinct_sequences(), 1);
        assert_eq!(c.total(), 1);
        // stats() agrees with distinct_sequences: only [4,5]'s sub-sequence
        // survives — the removed sequence's entries are gone, not zeroed.
        let stats = c.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].subseq, vec![s(4), s(5)]);
        assert_eq!(c.count_of(&[s(1), s(2)]), 0);
        assert_eq!(c.count_of(&[s(2), s(3)]), 0);
    }

    #[test]
    fn remove_unknown_or_overweight_is_rejected_without_mutation() {
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2), s(3)], 2);
        let before = sorted_stats(&mut c);

        // Never-added sequence: rejected.
        assert!(!c.remove_weighted(&[s(7), s(8)], 1));
        // More weight than the sequence carries: rejected outright, not
        // partially applied (no silent u64 underflow path exists).
        assert!(!c.remove_weighted(&[s(1), s(2), s(3)], 3));
        // Fully-removed sequence: a second removal is rejected too.
        assert!(c.remove_weighted(&[s(1), s(2), s(3)], 2));
        assert!(!c.remove(&[s(1), s(2), s(3)]));

        c.add_weighted(&[s(1), s(2), s(3)], 2);
        assert_eq!(sorted_stats(&mut c), before);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn zero_weight_remove_is_a_noop() {
        let mut c = SubsequenceCounter::new(0);
        // Mirrors add_weighted(_, 0): succeeds without any effect, even for
        // sequences the counter has never seen.
        assert!(c.remove_weighted(&[s(1), s(2)], 0));
        c.add(&[s(1), s(2)]);
        assert!(c.remove_weighted(&[s(3), s(4)], 0));
        assert_eq!(c.total(), 1);
    }

    /// The staleness regression (add → best_by → remove → best_by): built
    /// counts must be updated by a removal, never served stale.
    #[test]
    fn best_by_is_fresh_after_interleaved_add_and_remove() {
        let rank = |a: &SubsequenceStat, b: &SubsequenceStat| a.count > b.count;
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2)], 10);
        c.add_weighted(&[s(3), s(4)], 3);
        assert_eq!(c.best_by(rank).expect("winner").subseq, vec![s(1), s(2)]);
        assert!(c.remove_weighted(&[s(1), s(2)], 10));
        let after = c.best_by(rank).expect("winner");
        assert_eq!(after.subseq, vec![s(3), s(4)]);
        assert_eq!(after.count, 3);
        // And stats() agrees with the fold.
        assert_eq!(c.stats().len(), 1);
    }

    /// Removal keeps the counts bit-identical to a from-scratch rebuild.
    #[test]
    fn removal_matches_rebuild_after_sharded_materialization() {
        let mut incremental = bulk_counter();
        incremental.materialize_counts();
        // Remove a slice of the bulk workload...
        for i in 0..120u32 {
            let seq = [s(11423), s(209), s(700 + i % 40), s(i), s(i % 7)];
            assert!(incremental.remove_weighted(&seq, 1 + u64::from(i % 3)));
        }
        // ...and rebuild the same survivor set from scratch.
        let mut fresh = SubsequenceCounter::new(0);
        for i in 120..500u32 {
            let seq = [s(11423), s(209), s(700 + i % 40), s(i), s(i % 7)];
            fresh.add_weighted(&seq, 1 + u64::from(i % 3));
        }
        assert_eq!(incremental.total(), fresh.total());
        assert_eq!(incremental.distinct_sequences(), fresh.distinct_sequences());
        assert_eq!(sorted_stats(&mut incremental), sorted_stats(&mut fresh));
    }

    #[test]
    fn best_by_deterministic_on_ties() {
        let mut c = SubsequenceCounter::new(0);
        c.add(&[s(5), s(6)]);
        c.add(&[s(1), s(2)]);
        // Both pairs have count 1; lexicographic fallback picks [1,2].
        let best = c.best_by(|a, b| a.count > b.count).expect("non-empty");
        assert_eq!(best.subseq, vec![s(1), s(2)]);
    }
}
