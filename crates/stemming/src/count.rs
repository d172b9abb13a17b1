//! Contiguous sub-sequence counting over a set of event sequences: one
//! sub-sequence index.
//!
//! A window's sequences share almost all of their sub-sequences, so the
//! counter keeps each one once:
//!
//! * **Arena.** Every distinct full sequence is appended once to one flat
//!   `Vec<Symbol>`; everything else refers to it by offset and length.
//! * **Trie.** One node per distinct contiguous sub-sequence, reached from
//!   the root by an edge map `(node, symbol) → node` with integer keys and
//!   std's keyed hasher (sequences are peer-controlled input). A node holds
//!   its support `count` — the paper's "number of events containing `s`" —
//!   and where one occurrence of it sits in the arena. The node spelling a
//!   whole sequence also holds that sequence's multiplicity, so a persistent
//!   oscillation (the *same* sequence millions of times) is one path and one
//!   number.
//! * **Suffix links and the stamp.** Every node points at the node spelling
//!   it without its first symbol, and a node is only ever created together
//!   with its whole suffix chain. Counting a sequence therefore costs one
//!   hash lookup per symbol: step from the longest sub-sequence ending at the
//!   previous symbol to the longest ending at this one, then follow its chain
//!   down through every shorter one ending here. Each counting walk carries a
//!   fresh stamp and a node takes the weight only the first time the stamp
//!   reaches it. That is the once-per-event rule: in `1 2 1 2` the pair `1 2`
//!   ends at two positions and is counted once.
//! * **Winner heap.** [`SubsequenceCounter::best`] keeps a lazy max-heap over
//!   the candidate nodes keyed `(rule score, lexicographic rank)`, the rank
//!   coming from one sort of the nodes' arena slices. A removal does not touch the
//!   heap; a top entry whose stored score is no longer the node's score is
//!   re-filed at its current score when it surfaces. That is sound because
//!   removals only lower scores, so a stored score never understates; an add
//!   raises them and therefore discards the heap.
//!
//! The counts are built lazily, on the first query
//! ([`SubsequenceCounter::materialize_counts`], `count_of`, `stats`, `best`):
//! until then an add or remove touches only the sequence's own path (an add
//! of a new sequence creates its nodes) and its multiplicity. Once they exist, [`SubsequenceCounter::add_weighted`] and
//! [`SubsequenceCounter::remove_weighted`] walk the one touched sequence and
//! update its nodes in place. Nodes are never freed, but every query skips
//! the ones at zero, so after a removal the counter is indistinguishable from
//! one that never saw the sequence. This is what lets the recursive Stemming
//! decomposition count a window once and then *subtract* each extracted
//! component — O(component) per round instead of a full O(alive) recount —
//! and ask for each round's winner without folding over every survivor.
//!
//! No result depends on the edge map's iteration order: it is only ever
//! looked up, and every ordered step goes through node ids (assigned in walk
//! order) or the arena-slice sort.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;

use bgpscope_bgp::intern::Symbol;

use crate::rank::RankingRule;

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

/// The empty sub-sequence: every walk starts here.
const ROOT: u32 = 0;

/// One distinct contiguous sub-sequence.
#[derive(Debug)]
struct Node {
    /// Summed weight of the held sequences containing this sub-sequence.
    /// Kept only for sub-sequences of 2 to `max_len` symbols, and only once
    /// the counts are built; zero everywhere else.
    count: u64,
    /// Weight held of the full sequence this node spells (0 = not held).
    held: u64,
    /// One occurrence: `arena[arena_off..arena_off + len]`.
    arena_off: u32,
    len: u32,
    /// The last counting walk that reached this node.
    stamp: u32,
    /// The node spelling this sub-sequence without its first symbol (`ROOT`
    /// for a single symbol). Every node a counting walk can reach has its
    /// whole suffix chain in the trie; nodes longer than `max_len` only
    /// spell whole sequences and leave this at `ROOT`.
    suffix: u32,
}

impl Node {
    /// A node no sequence has been counted into yet.
    fn new(arena_off: u32, len: u32) -> Self {
        Node {
            count: 0,
            held: 0,
            arena_off,
            len,
            stamp: 0,
            suffix: ROOT,
        }
    }

    fn range(&self) -> Range<usize> {
        let off = self.arena_off as usize;
        off..off + self.len as usize
    }

    fn stat(&self, arena: &[Symbol]) -> SubsequenceStat {
        SubsequenceStat {
            subseq: arena[self.range()].to_vec(),
            count: self.count,
        }
    }
}

/// The lazy winner heap of [`SubsequenceCounter::best`].
#[derive(Debug)]
struct Winners {
    /// The arguments of the `best` call that built it.
    rule: RankingRule,
    min_support: u64,
    /// Candidate nodes in lexicographic order of their sub-sequences; a
    /// node's position is its rank.
    by_rank: Vec<u32>,
    /// `(score when filed, rank)`: the top is the greatest score and, among
    /// equals, the lexicographically first.
    heap: BinaryHeap<((u64, u64), Reverse<u32>)>,
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
#[derive(Debug)]
pub struct SubsequenceCounter {
    /// Longest sub-sequence length counted (0 = unlimited).
    max_len: usize,
    /// Total weight of the sequences held.
    total: u64,
    /// Number of distinct sequences held (nodes with `held > 0`).
    distinct: usize,
    /// The distinct sequences, end to end.
    arena: Vec<Symbol>,
    /// `nodes[ROOT]` is the empty sub-sequence.
    nodes: Vec<Node>,
    edges: HashMap<(u32, Symbol), u32>,
    /// Whether the sub-sequence counts exist; from then on every add and
    /// remove keeps them current.
    built: bool,
    /// The stamp of the last counting walk.
    stamp: u32,
    /// The winner heap, while no add has happened since it was built.
    winners: Option<Winners>,
}

impl SubsequenceCounter {
    /// A counter that counts sub-sequences up to `max_len` symbols
    /// (`0` means no limit). AS paths average 3–6 hops, so event sequences
    /// rarely exceed ~10 symbols; a limit mainly guards against pathological
    /// prepending.
    pub fn new(max_len: usize) -> Self {
        SubsequenceCounter {
            max_len,
            total: 0,
            distinct: 0,
            arena: Vec::new(),
            nodes: vec![Node::new(0, 0)],
            edges: HashMap::new(),
            built: false,
            stamp: 0,
            winners: None,
        }
    }

    /// [`SubsequenceCounter::new`]; the second argument is accepted and
    /// ignored. Counting has one serial path — this name goes when
    /// `benchmark/src/adapter.rs` stops calling it.
    pub fn with_parallelism(max_len: usize, _parallelism: usize) -> Self {
        Self::new(max_len)
    }

    /// Makes room for distinct sequences totalling `symbols` symbols. The
    /// arena needs at most that. The edge map gets an entry per symbol — what
    /// the sequences' own paths need when they share nothing; sub-sequences
    /// push the real figure up and sharing pulls it down (1.7 nodes per
    /// symbol in a 300-event churn window, 0.85 in a 40,000-event one), so
    /// this spares the map most of its rehashing without ever sizing it past
    /// what it would have grown to. The node array is left to grow: growing
    /// it is a copy, not a rehash, and a reservation that falls just short
    /// doubles it at its largest.
    pub(crate) fn reserve(&mut self, symbols: usize) {
        self.arena.reserve_exact(symbols);
        self.edges.reserve(symbols);
    }

    /// Adds one event's sequence.
    pub fn add(&mut self, seq: &[Symbol]) {
        self.add_weighted(seq, 1);
    }

    /// Adds one event's sequence with a weight (used by traffic-weighted
    /// Stemming, where an event counts proportionally to the traffic volume
    /// of its prefix).
    ///
    /// Before the counts are built this walks only the sequence's own path,
    /// so a million copies of one sequence cost a million short walks and one
    /// count. Once they are built, each distinct sub-sequence of `seq` gains
    /// `weight` in place, and the winner heap is discarded.
    pub fn add_weighted(&mut self, seq: &[Symbol], weight: u64) {
        if weight == 0 {
            return;
        }
        let terminal = self.intern(seq);
        let held = &mut self.nodes[terminal as usize].held;
        if *held == 0 {
            self.distinct += 1;
        }
        *held += weight;
        self.total += weight;
        self.winners = None;
        if self.built {
            self.for_each_counted(terminal, |count| *count += weight);
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
    /// every query skips what reaches zero —
    /// [`SubsequenceCounter::distinct_sequences`],
    /// [`SubsequenceCounter::stats`], and [`SubsequenceCounter::best`]
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
        let Some(terminal) = self.find(seq) else {
            return false;
        };
        let held = &mut self.nodes[terminal as usize].held;
        if *held < weight {
            return false;
        }
        *held -= weight;
        if *held == 0 {
            self.distinct -= 1;
        }
        self.total -= weight;
        if self.built {
            // Underflow is impossible for a sequence the counter held: every
            // sub-sequence count is at least the sequence's own multiplicity.
            self.for_each_counted(terminal, |count| {
                debug_assert!(*count >= weight, "sub-sequence count underflow");
                *count -= weight;
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
        self.distinct
    }

    /// Forces the sub-sequence counts to exist: one counting walk per
    /// distinct sequence. After this, every
    /// [`SubsequenceCounter::add_weighted`] /
    /// [`SubsequenceCounter::remove_weighted`] maintains them in place —
    /// O(len²) in the touched sequence. This is the entry point for
    /// decremental workloads: pay one full counting pass up front, then
    /// subtract. Every query calls it, so calling it first is optional.
    pub fn materialize_counts(&mut self) {
        if self.built {
            return;
        }
        self.built = true;
        // Only nodes that exist now can hold a sequence; the walks append
        // sub-sequence nodes behind them.
        for terminal in 0..self.nodes.len() {
            let held = self.nodes[terminal].held;
            if held > 0 {
                self.for_each_counted(terminal as u32, |count| *count += held);
            }
        }
    }

    /// The count of one specific sub-sequence.
    pub fn count_of(&mut self, subseq: &[Symbol]) -> u64 {
        self.materialize_counts();
        self.find(subseq)
            .map_or(0, |node| self.nodes[node as usize].count)
    }

    /// All sub-sequence statistics, in unspecified order.
    pub fn stats(&mut self) -> Vec<SubsequenceStat> {
        self.materialize_counts();
        self.nodes
            .iter()
            .filter(|node| node.count > 0)
            .map(|node| node.stat(&self.arena))
            .collect()
    }

    /// The best sub-sequence under `rule` — the one no other is
    /// [`RankingRule::better`] than, ties going to the lexicographically first, so
    /// the order is total and the result independent of any map's iteration
    /// order — provided at least `min_support` events contain it. `None`
    /// when the ranked winner falls short (or nothing is counted): a
    /// better-supported sub-sequence further down the ranking is *not*
    /// returned in its place.
    ///
    /// The first call after an add (or with different arguments) sorts the
    /// candidate sub-sequences once and heapifies them; later calls only
    /// re-file the stale entries that surface, so a round of the
    /// decomposition costs O(log n) per sub-sequence its removals touched,
    /// not a fold over every survivor.
    pub fn best(&mut self, rule: RankingRule, min_support: u64) -> Option<SubsequenceStat> {
        self.materialize_counts();
        if !matches!(&self.winners, Some(w) if (w.rule, w.min_support) == (rule, min_support)) {
            self.winners = Some(self.rank_candidates(rule, min_support));
        }
        let winners = self.winners.as_mut().expect("built above");
        loop {
            let mut top = winners.heap.peek_mut()?;
            let (filed, Reverse(rank)) = *top;
            let node = &self.nodes[winners.by_rank[rank as usize] as usize];
            let current = rule.score(node.count, node.len as usize);
            if node.count == 0 {
                PeekMut::pop(top);
            } else if filed == current {
                return (node.count >= min_support).then(|| node.stat(&self.arena));
            } else {
                // Stale: removals lowered it. Re-file and look again.
                top.0 = current;
            }
        }
    }

    /// Ranks the candidates for [`SubsequenceCounter::best`]. Where the
    /// count is the rule's first key, a sub-sequence below `min_support` can
    /// neither be returned nor outrank one that can, now or after any
    /// removal, so it is left out (in a churn window most sub-sequences end
    /// in their event's own prefix and have count 1). Under a rule that can
    /// rank a rarer sub-sequence first, every live one is a candidate.
    fn rank_candidates(&self, rule: RankingRule, min_support: u64) -> Winners {
        let floor = if rule.count_ranks_first() {
            min_support.max(1)
        } else {
            1
        };
        let mut by_rank: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&node| self.nodes[node as usize].count >= floor)
            .collect();
        let slice = |node: u32| &self.arena[self.nodes[node as usize].range()];
        by_rank.sort_unstable_by(|&a, &b| slice(a).cmp(slice(b)));
        let heap = by_rank
            .iter()
            .enumerate()
            .map(|(rank, &node)| {
                let node = &self.nodes[node as usize];
                (
                    rule.score(node.count, node.len as usize),
                    Reverse(rank as u32),
                )
            })
            .collect();
        Winners {
            rule,
            min_support,
            by_rank,
            heap,
        }
    }

    /// The node spelling `seq`, if the trie has it.
    fn find(&self, seq: &[Symbol]) -> Option<u32> {
        seq.iter().try_fold(ROOT, |node, &symbol| {
            self.edges.get(&(node, symbol)).copied()
        })
    }

    /// The node spelling the whole of `seq`. If the walk has to create
    /// nodes, `seq` is new to the arena and is appended; otherwise it is a
    /// prefix of a sequence already there and the node points into that.
    fn intern(&mut self, seq: &[Symbol]) -> u32 {
        let base = self.arena.len();
        let nodes_before = self.nodes.len();
        let mut node = ROOT;
        for (depth, &symbol) in seq.iter().enumerate() {
            node = self.child(node, symbol, base + depth + 1);
        }
        if self.nodes.len() > nodes_before {
            self.arena.extend_from_slice(seq);
        }
        node
    }

    /// The longest sub-sequence counted.
    fn cap(&self) -> usize {
        match self.max_len {
            0 => usize::MAX,
            cap => cap,
        }
    }

    /// The child of `parent` along `symbol`, created — together with as much
    /// of its suffix chain as is missing — if the trie has none. `end` is the
    /// arena index just past an occurrence of the child's last symbol.
    fn child(&mut self, parent: u32, symbol: Symbol, end: usize) -> u32 {
        let cap = self.cap();
        let mut parent = parent;
        let mut first = None;
        let mut unlinked: Option<u32> = None;
        loop {
            let (node, found) = match self.edges.entry((parent, symbol)) {
                Entry::Occupied(edge) => (*edge.get(), true),
                Entry::Vacant(edge) => {
                    let id = u32::try_from(self.nodes.len()).expect("trie node ids fit in u32");
                    let len = self.nodes[parent as usize].len + 1;
                    let arena_off =
                        u32::try_from(end - len as usize).expect("arena offsets fit in u32");
                    self.nodes.push(Node::new(arena_off, len));
                    (*edge.insert(id), false)
                }
            };
            if let Some(longer) = unlinked {
                self.nodes[longer as usize].suffix = node;
            }
            let first = *first.get_or_insert(node);
            // An existing node has its chain already; a single symbol's
            // suffix is the root; past the cap no walk follows the chain.
            if found || parent == ROOT || self.nodes[node as usize].len as usize > cap {
                return first;
            }
            unlinked = Some(node);
            parent = self.nodes[parent as usize].suffix;
        }
    }

    /// The one counting walk: calls `visit` on the count of each *distinct*
    /// contiguous sub-sequence, 2 to `max_len` symbols long, of the sequence
    /// `terminal` spells — exactly once each, however many times it occurs
    /// (path `1 2 1 2`, prepending). Creates the nodes it does not find.
    ///
    /// One hash lookup per symbol: `top` is the longest counted sub-sequence
    /// ending at the current symbol, and the shorter ones ending there are
    /// its suffix chain.
    fn for_each_counted(&mut self, terminal: u32, mut visit: impl FnMut(&mut u64)) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(stamp) => stamp,
            None => {
                self.nodes.iter_mut().for_each(|node| node.stamp = 0);
                1
            }
        };
        let stamp = self.stamp;
        let cap = self.cap();
        let mut top = ROOT;
        for at in self.nodes[terminal as usize].range() {
            if self.nodes[top as usize].len as usize == cap {
                top = self.nodes[top as usize].suffix;
            }
            top = self.child(top, self.arena[at], at + 1);
            let mut node = top;
            loop {
                let reached = &mut self.nodes[node as usize];
                // A sub-sequence this walk has met before has met all of its
                // suffixes before, too.
                if reached.len < 2 || reached.stamp == stamp {
                    break;
                }
                reached.stamp = stamp;
                visit(&mut reached.count);
                node = reached.suffix;
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

    /// The staleness regression (add → best → remove → best): built
    /// counts must be updated by a removal, never served stale.
    #[test]
    fn best_by_is_fresh_after_interleaved_add_and_remove() {
        let rule = RankingRule::CountOnly;
        let mut c = SubsequenceCounter::new(0);
        c.add_weighted(&[s(1), s(2)], 10);
        c.add_weighted(&[s(3), s(4)], 3);
        assert_eq!(c.best(rule, 1).expect("winner").subseq, vec![s(1), s(2)]);
        assert!(c.remove_weighted(&[s(1), s(2)], 10));
        let after = c.best(rule, 1).expect("winner");
        assert_eq!(after.subseq, vec![s(3), s(4)]);
        assert_eq!(after.count, 3);
        // And stats() agrees with the heap.
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
        let best = c.best(RankingRule::CountOnly, 1).expect("non-empty");
        assert_eq!(best.subseq, vec![s(1), s(2)]);
    }
}
