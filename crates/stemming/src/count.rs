//! Contiguous sub-sequence counting over a set of event sequences: one
//! sub-sequence index.
//!
//! A window's sequences share almost all of their sub-sequences, so the
//! counter keeps each one once:
//!
//! * **Arena.** Every distinct full sequence is appended once to one flat
//!   `Vec<Symbol>`; everything else refers to it by offset and length.
//! * **Trie.** One node per distinct contiguous sub-sequence, reached from
//!   the root by an edge map `(node, symbol) → node` with integer keys, a
//!   [`ProbeMap`]: sequences are peer-controlled input, so a probe is bounded
//!   and colliding keys fall back to std's keyed hasher. A node holds
//!   its support `count` — the paper's "number of events containing `s`" —
//!   where one occurrence of it sits in the arena, and its parent (itself
//!   without its last symbol). The node spelling a whole sequence also holds
//!   that sequence's multiplicity, so a persistent oscillation (the *same*
//!   sequence millions of times) is one path and one number.
//! * **Ancestors and suffix links.** Every node also points at the node
//!   spelling it without its first symbol, and a node is only ever created
//!   together with its whole suffix chain. Every sub-sequence ending at a
//!   position of a sequence is a suffix of the longest counted one ending
//!   there, so a counting walk visits each position's longest and follows its
//!   chain. Below the length cap the longest one ending at position `k` is
//!   the sequence's first `k + 1` symbols — an ancestor of the node spelling
//!   the sequence — so the walk climbs parent links and does no hash lookup
//!   at all; only positions past the cap cost one lookup each (drop the first
//!   symbol of the previous position's longest, extend by this one). Without
//!   a repeated symbol no sub-sequence ends at two positions, so every node
//!   the walk meets is distinct; a sequence that repeats one (`1 2 1 2`)
//!   collects its nodes first and visits each once. That is the
//!   once-per-event rule.
//! * **Leaves: candidates outside the trie.** Some symbols occur only last,
//!   each in its own set of sequences — the decomposition's prefix symbols.
//!   A sub-sequence holding one is a suffix of those sequences, and its count
//!   cannot change until they all go. The caller indexes them without that
//!   symbol and gives it one *leaf* (`add_leaf`): a node in an array and an
//!   arena of their own, reached by no edge and no walk, holding the best of
//!   those suffixes under one ranking rule (`best_suffix`), its count set
//!   from the start. The winner heap ranks a leaf like any node; the caller
//!   zeroes it when the sequences go (`remove_leaf`).
//! * **Winner heap.** [`SubsequenceCounter::best`] keeps a lazy max-heap of
//!   `(rule score, node)` over the candidate nodes, built in place in O(n)
//!   and ordered by `RankingRule::ranks_above`: by score, then by the
//!   nodes' sub-sequences — compared only when scores tie, and never sorted.
//!   A removal does not touch the heap; a top entry whose stored score is no
//!   longer the node's score is re-filed at its current score when it
//!   surfaces. That is sound because removals only lower scores, so a stored
//!   score never understates; an add raises them and therefore discards the
//!   heap. A node that a neighbour one symbol longer or shorter, at the same
//!   count, ranks above is not filed at all (`outrank`): the two count the
//!   same exactly when every held sequence holding the shorter holds the
//!   longer, so every removal lowers both alike and the neighbour stays
//!   above.
//!
//! The counts are built lazily, on the first query
//! ([`SubsequenceCounter::materialize_counts`], `count_of`, `stats`, `best`):
//! until then an add or remove touches only the sequence's own path (an add
//! of a new sequence creates its nodes) and its multiplicity. Once they
//! exist, [`SubsequenceCounter::add_weighted`] and
//! [`SubsequenceCounter::remove_weighted`] walk the one touched sequence and
//! update its nodes in place. Every query skips the nodes at zero, so after a
//! removal the counter is indistinguishable from one that never saw the
//! sequence. This is what lets the recursive Stemming decomposition count a
//! window once and then *subtract* each extracted component — O(component)
//! per round instead of a full O(alive) recount — and ask for each round's
//! winner without folding over every survivor.
//!
//! **The structure outlives the counts.** The trie — arena, nodes, edges —
//! only grows: a node, once created, is never freed. The counts are what the
//! held sequences put on it, and `reset` takes them off again: it zeroes
//! every node held or counted since the last reset and drops the leaves, so
//! what is counted next is counted on the same trie as on a fresh one. The
//! counter lists each node the first time a hold or a count moves it off
//! zero, and every scan — building the counts, heapifying the candidates,
//! listing the stats, resetting — covers those lists and the leaves, never
//! the whole trie: a trie grown over a session costs a window only what the
//! window touches. A sequence counted again and again keeps its counting
//! walk — the nodes it counts, from its third walk on — and is then counted
//! by a pass over them. The decomposition keeps one counter per detector
//! this way, in its [`EncodingCache`](crate::EncodingCache), over the
//! cache's own symbols, and reads the trie's sub-sequences in window
//! symbols through a *spelling* (`best_in`).
//!
//! No result depends on the edge map's iteration order or on node ids: the
//! map is only ever looked up, and the one ordered choice, the winner, is a
//! total order over scores and spelled sub-sequences.

use std::num::NonZeroU32;
use std::ops::Range;

use bgpscope_bgp::intern::Symbol;
use bgpscope_bgp::probe::ProbeMap;

use crate::rank::{RankingRule, Score};

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
pub(crate) const ROOT: u32 = 0;

/// The bit that marks a leaf's id in the winner heap: leaf `k` is filed as
/// `LEAF | k`, and trie node ids stay below it.
const LEAF: u32 = 1 << 31;

/// [`Side::walk`] of a node no counting walk started from. Each walk from
/// it that is not kept counts down by one.
const UNWALKED: u32 = u32::MAX;
/// Which walk from a node is kept: its third. A sequence's first two — its
/// count and its removal within one window — are all that a window through
/// a cold cache takes, and keeping them would be wasted there.
const KEPT_WALK: u32 = 3;
/// [`Side::walk`] at or below this is where a kept walk starts in `kept`.
const KEPT_BELOW: u32 = UNWALKED - KEPT_WALK;

/// The edge map's key: `parent`'s child along `symbol`. Two `u32`s, and
/// the child's id is a `NonZeroU32` (the root is nobody's child), whose
/// zero marks a free slot: a slot of the map is 12 bytes, where a `u32` id
/// pads it to 16 and a `u64` key to 24. A 40,000-event window's table
/// shows in peak memory, and a smaller one in every probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Edge(u32, Symbol);

/// A leaf: what [`SubsequenceCounter::add_leaf`] returns and
/// [`SubsequenceCounter::remove_leaf`] takes, until the next reset. Its
/// filed id, `LEAF | k`, never zero: an `Option<Leaf>` is 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Leaf(NonZeroU32);

/// One distinct contiguous sub-sequence.
#[derive(Debug)]
struct Node {
    /// Summed weight of the held sequences containing this sub-sequence.
    /// Kept only for sub-sequences of 2 to `max_len` symbols, and only once
    /// the counts are built; zero everywhere else. A leaf holds its count
    /// from the start, and zero once removed.
    count: u64,
    /// One occurrence: `arena[arena_off..arena_off + len]` (the leaves'
    /// arena, for a leaf).
    arena_off: u32,
    len: u32,
    /// The node spelling this sub-sequence without its last symbol — the
    /// node whose edge leads here (`ROOT` for a single symbol, the root and
    /// a leaf).
    parent: u32,
    /// The node spelling this sub-sequence without its first symbol (`ROOT`
    /// for a single symbol). Every node a counting walk can reach has its
    /// whole suffix chain in the trie; nodes longer than `max_len` only
    /// spell whole sequences and leave this at `ROOT`.
    suffix: u32,
    /// Whether the node is in `touched` (a trie node's count has left
    /// zero since the last reset).
    listed: bool,
    /// Whether the winner heap leaves the node out: a sub-sequence one
    /// symbol longer or shorter, at the same count, always ranks above it.
    outranked: bool,
}

impl Node {
    /// A node no sequence has been counted into yet.
    fn new(arena_off: u32, len: u32, parent: u32) -> Self {
        Node {
            count: 0,
            arena_off,
            len,
            parent,
            suffix: ROOT,
            listed: false,
            outranked: false,
        }
    }

    fn range(&self) -> Range<usize> {
        let off = self.arena_off as usize;
        off..off + self.len as usize
    }
}

/// What the counter keeps beside each trie node about the sequence it
/// spells: apart from the nodes, which every counting walk reads.
#[derive(Debug, Clone, Copy)]
struct Side {
    /// Weight held of the sequence (0 = not held).
    held: u64,
    /// The counting walks from the node: [`UNWALKED`] less the walks taken,
    /// or — from the [`KEPT_WALK`]th on — where the walk is kept in `kept`.
    walk: u32,
    /// Whether the node is in `holding`.
    holding: bool,
}

impl Side {
    const NEW: Side = Side {
        held: 0,
        walk: UNWALKED,
        holding: false,
    };
}

/// A candidate in the winner heap: `(score when filed, node)`, where the
/// node is a trie node's id or a leaf's `LEAF | k`.
type Filed = (Score, u32);

/// The lazy winner heap of [`SubsequenceCounter::best`].
#[derive(Debug)]
struct Winners {
    /// The arguments of the `best` call that built it.
    rule: RankingRule,
    min_support: u64,
    /// A binary max-heap under [`Candidates::above`]: the top is the
    /// greatest filed score and, among equals, the lexicographically first.
    heap: Vec<Filed>,
}

/// The candidates a winner heap files — trie nodes and leaves — read in
/// the caller's symbols: a trie node's symbols through `spell`, a leaf's
/// as they were given.
#[derive(Clone, Copy)]
struct Candidates<'a, S> {
    nodes: &'a [Node],
    arena: &'a [Symbol],
    leaves: &'a [Node],
    leaf_arena: &'a [Symbol],
    spell: S,
}

impl<'a, S: Fn(Symbol) -> Symbol + Copy + 'a> Candidates<'a, S> {
    fn node(&self, id: u32) -> &'a Node {
        if id & LEAF == 0 {
            &self.nodes[id as usize]
        } else {
            &self.leaves[(id & !LEAF) as usize]
        }
    }

    /// The symbols `id` stores, and whether they are the trie's (to be
    /// read through `spell`).
    fn stored(&self, id: u32) -> (&'a [Symbol], bool) {
        if id & LEAF == 0 {
            (&self.arena[self.node(id).range()], true)
        } else {
            (&self.leaf_arena[self.node(id).range()], false)
        }
    }

    /// The sub-sequence `id` stands for, spelled.
    fn spelled(&self, id: u32) -> impl Iterator<Item = Symbol> + 'a {
        let (symbols, trie) = self.stored(id);
        let spell = self.spell;
        symbols
            .iter()
            .map(move |&symbol| if trie { spell(symbol) } else { symbol })
    }

    /// Whether `a`'s spelled sub-sequence is lexicographically before
    /// `b`'s. Two trie symbols that are equal spell equal, so only the
    /// first position where the stored symbols differ is spelled.
    fn before(&self, a: u32, b: u32) -> bool {
        let ((a, a_trie), (b, b_trie)) = (self.stored(a), self.stored(b));
        let read = |symbol: Symbol, trie: bool| if trie { (self.spell)(symbol) } else { symbol };
        for (&x, &y) in a.iter().zip(b) {
            if x == y && a_trie == b_trie {
                continue;
            }
            let (x, y) = (read(x, a_trie), read(y, b_trie));
            if x != y {
                return x < y;
            }
        }
        a.len() < b.len()
    }

    /// [`RankingRule::ranks_above`] of two filed candidates. No two spell
    /// the same sub-sequence (a leaf ends in a symbol no trie node holds,
    /// each such symbol has one leaf, and the spelling is one-to-one on the
    /// symbols the held sequences use), so the order is total.
    fn above(&self, a: &Filed, b: &Filed) -> bool {
        RankingRule::ranks_above(a.0, b.0, || self.before(a.1, b.1))
    }

    fn stat(&self, id: u32) -> SubsequenceStat {
        SubsequenceStat {
            subseq: self.spelled(id).collect(),
            count: self.node(id).count,
        }
    }
}

/// Moves `heap[at]` down until neither child ranks above it.
fn sift_down(heap: &mut [Filed], mut at: usize, above: impl Fn(&Filed, &Filed) -> bool) {
    loop {
        let (left, right) = (2 * at + 1, 2 * at + 2);
        if left >= heap.len() {
            return;
        }
        let child = if right < heap.len() && above(&heap[right], &heap[left]) {
            right
        } else {
            left
        };
        if !above(&heap[child], &heap[at]) {
            return;
        }
        heap.swap(at, child);
        at = child;
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
#[derive(Debug)]
pub struct SubsequenceCounter {
    /// Longest sub-sequence length counted (0 = unlimited).
    max_len: usize,
    /// Total weight of the sequences held.
    total: u64,
    /// Number of distinct sequences held (nodes whose `held > 0`).
    distinct: usize,
    /// The distinct sequences, end to end.
    arena: Vec<Symbol>,
    /// `nodes[ROOT]` is the empty sub-sequence.
    nodes: Vec<Node>,
    edges: ProbeMap<Edge, NonZeroU32>,
    /// The trie nodes a count moved off zero since the last reset, each
    /// once, in the order they were met.
    touched: Vec<u32>,
    /// The trie nodes a hold moved off zero since the last reset, each
    /// once.
    holding: Vec<u32>,
    /// Per trie node: the weight held of it, and its kept walk.
    side: Vec<Side>,
    /// The kept counting walks, end to end: a walk's length, then the
    /// nodes it counts.
    kept: Vec<u32>,
    /// A walk being taken.
    walk: Vec<u32>,
    /// The leaves since the last reset, and their sub-sequences end to end.
    leaves: Vec<Node>,
    leaf_arena: Vec<Symbol>,
    /// Whether the sub-sequence counts exist; from then on every add and
    /// remove keeps them current.
    built: bool,
    /// Whether a node may be marked outranked since the last reset.
    outranked: bool,
    /// The winner heap, while no add has happened since it was built.
    winners: Option<Winners>,
    /// Walks down the trie to a sequence's node, for the structural tests.
    #[cfg(test)]
    pub(crate) walks: usize,
    /// Nodes read by each whole-index scan — building the counts,
    /// heapifying the candidates, resetting — for the structural tests.
    #[cfg(test)]
    pub(crate) scanned: Scanned,
}

/// [`SubsequenceCounter::scanned`].
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scanned {
    pub(crate) materialize: usize,
    pub(crate) heapify: usize,
    pub(crate) reset: usize,
}

impl Default for SubsequenceCounter {
    /// [`SubsequenceCounter::new`] with no length limit.
    fn default() -> Self {
        SubsequenceCounter::new(0)
    }
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
            nodes: vec![Node::new(0, 0, ROOT)],
            edges: ProbeMap::new(),
            touched: Vec::new(),
            holding: Vec::new(),
            side: vec![Side::NEW],
            kept: Vec::new(),
            walk: Vec::new(),
            leaves: Vec::new(),
            leaf_arena: Vec::new(),
            built: false,
            outranked: false,
            winners: None,
            #[cfg(test)]
            walks: 0,
            #[cfg(test)]
            scanned: Scanned::default(),
        }
    }

    /// [`SubsequenceCounter::new`]; the second argument is accepted and
    /// ignored. Counting has one serial path — this name goes when
    /// `benchmark/src/adapter.rs` stops calling it.
    pub fn with_parallelism(max_len: usize, _parallelism: usize) -> Self {
        Self::new(max_len)
    }

    /// Makes room for `nodes` new trie nodes, each with its edge, and as
    /// many arena symbols.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.arena.reserve(nodes);
        self.nodes.reserve(nodes);
        self.side.reserve(nodes);
        self.edges.reserve(nodes);
    }

    /// The length limit this counter was made with (0 = none).
    pub(crate) fn max_len(&self) -> usize {
        self.max_len
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
        if weight > 0 {
            let terminal = self.intern(seq);
            self.hold(terminal, weight);
        }
    }

    /// Adds a non-zero `weight` of the sequence `terminal` spells — a node
    /// [`SubsequenceCounter::intern`] returned — without walking to it:
    /// how the decomposition adds every group on one path after the path's
    /// one walk, and removes it again by that node
    /// ([`SubsequenceCounter::remove_held`]).
    pub(crate) fn hold(&mut self, terminal: u32, weight: u64) {
        let side = &mut self.side[terminal as usize];
        if side.held == 0 {
            self.distinct += 1;
            if !side.holding {
                side.holding = true;
                self.holding.push(terminal);
            }
        }
        side.held += weight;
        self.total += weight;
        self.winners = None;
        if self.built {
            self.for_each_counted(terminal, |count| *count += weight);
        }
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
        weight == 0
            || self
                .find(seq)
                .is_some_and(|terminal| self.remove_held(terminal, weight))
    }

    /// [`SubsequenceCounter::remove_weighted`] of the sequence `terminal`
    /// spells — a node [`SubsequenceCounter::intern`] returned — with the
    /// same rejections, and no lookup.
    pub(crate) fn remove_held(&mut self, terminal: u32, weight: u64) -> bool {
        if weight == 0 {
            return true;
        }
        let held = &mut self.side[terminal as usize].held;
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

    /// Gives one symbol its leaf: the best of the suffixes ending in it
    /// ([`best_suffix`] under `rule`), over `groups` — `(sequence, weight)`
    /// pairs that all end in that symbol — as one candidate outside the
    /// trie. The caller indexes those sequences without their last symbol,
    /// and the symbol must occur in no other sequence, and only last: then
    /// each suffix holding it keeps its count until the groups go together,
    /// and the best one stands for all of them. `None`, and nothing added,
    /// when the best suffix's count is below `floor` — under a rule whose
    /// first key is the count, none can then be a candidate. Sorts `groups`.
    ///
    /// A leaf is ranked by `rule`: [`SubsequenceCounter::best`] under
    /// another rule sees only the suffix this one chose. Its sub-sequence is
    /// kept in the symbols `groups` gives — the caller's, which a spelling
    /// maps the trie's symbols to — and it lasts until the next reset.
    pub(crate) fn add_leaf(
        &mut self,
        rule: RankingRule,
        floor: u64,
        groups: &mut [(&[Symbol], u64)],
    ) -> Option<Leaf> {
        // No suffix counts more than all the groups: a churn prefix, alone
        // in the window, is turned away without ranking its suffixes.
        if groups.iter().map(|&(_, weight)| weight).sum::<u64>() < floor {
            return None;
        }
        let (suffix, count) = best_suffix(rule, self.max_len, groups)?;
        if count < floor {
            return None;
        }
        let id = u32::try_from(self.leaves.len())
            .ok()
            .filter(|&k| k < LEAF)
            .and_then(|k| NonZeroU32::new(LEAF | k))
            .expect("leaf ids fit in 31 bits");
        let arena_off = u32::try_from(self.leaf_arena.len()).expect("arena offsets fit in u32");
        self.leaf_arena.extend_from_slice(suffix);
        let mut leaf = Node::new(arena_off, suffix.len() as u32, ROOT);
        leaf.count = count;
        self.leaves.push(leaf);
        self.winners = None;
        Some(Leaf(id))
    }

    /// Zeroes a leaf: its sequences are gone. Idempotent, and like a removal
    /// it only lowers a score, so the winner heap stays.
    pub(crate) fn remove_leaf(&mut self, leaf: Leaf) {
        self.leaves[(leaf.0.get() & !LEAF) as usize].count = 0;
    }

    /// Takes every held sequence, count and leaf off the counter and keeps
    /// the trie: what is held next counts as on a fresh counter, and the
    /// sequences already in the trie cost no new node. O(nodes touched since
    /// the last reset), not O(trie).
    pub(crate) fn reset(&mut self) {
        #[cfg(test)]
        {
            self.scanned.reset += self.touched.len() + self.holding.len();
        }
        for &node in &self.touched {
            let node = &mut self.nodes[node as usize];
            node.count = 0;
            node.listed = false;
            node.outranked = false;
        }
        for &node in &self.holding {
            self.side[node as usize] = Side {
                held: 0,
                holding: false,
                ..self.side[node as usize]
            };
        }
        self.touched.clear();
        self.holding.clear();
        self.leaves.clear();
        self.leaf_arena.clear();
        self.total = 0;
        self.distinct = 0;
        self.built = false;
        self.outranked = false;
        self.winners = None;
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
        #[cfg(test)]
        {
            self.scanned.materialize += self.holding.len();
        }
        for at in 0..self.holding.len() {
            let terminal = self.holding[at];
            let held = self.side[terminal as usize].held;
            if held > 0 {
                self.for_each_counted(terminal, |count| *count += held);
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
        let candidates = self.candidates(|symbol| symbol);
        self.ids()
            .filter(|&id| candidates.node(id).count > 0)
            .map(|id| candidates.stat(id))
            .collect()
    }

    /// The ids of every node a scan covers: the trie nodes listed since the
    /// last reset, then the leaves.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let leaves = 0..self.leaves.len() as u32;
        self.touched.iter().copied().chain(leaves.map(|k| LEAF | k))
    }

    /// The candidates, read through `spell`.
    fn candidates<S>(&self, spell: S) -> Candidates<'_, S> {
        Candidates {
            nodes: &self.nodes,
            arena: &self.arena,
            leaves: &self.leaves,
            leaf_arena: &self.leaf_arena,
            spell,
        }
    }

    /// The best sub-sequence under `rule` — the one no other is
    /// [`RankingRule::better`] than, ties going to the lexicographically first, so
    /// the order is total and the result independent of any map's iteration
    /// order — provided at least `min_support` events contain it. `None`
    /// when the ranked winner falls short (or nothing is counted): a
    /// better-supported sub-sequence further down the ranking is *not*
    /// returned in its place.
    ///
    /// The first call after an add (or with different arguments) heapifies
    /// the candidate sub-sequences in O(n); later calls only re-file the
    /// stale entries that surface, so a round of the decomposition costs
    /// O(log n) per sub-sequence its removals touched, not a fold over every
    /// survivor.
    pub fn best(&mut self, rule: RankingRule, min_support: u64) -> Option<SubsequenceStat> {
        self.best_in(rule, min_support, |symbol| symbol)
    }

    /// [`SubsequenceCounter::best`] with the trie's symbols read through
    /// `spell`: the tie-break compares, and the result spells, `spell` of
    /// each. Leaves are read as given. Until the next reset (or add), every
    /// call must pass the same spelling, one-to-one on the symbols of the
    /// held sequences.
    pub(crate) fn best_in<S>(
        &mut self,
        rule: RankingRule,
        min_support: u64,
        spell: S,
    ) -> Option<SubsequenceStat>
    where
        S: Fn(Symbol) -> Symbol + Copy,
    {
        self.materialize_counts();
        if !matches!(&self.winners, Some(w) if (w.rule, w.min_support) == (rule, min_support)) {
            self.winners = Some(self.rank_candidates(rule, min_support, spell));
        }
        let candidates = Candidates {
            nodes: &self.nodes,
            arena: &self.arena,
            leaves: &self.leaves,
            leaf_arena: &self.leaf_arena,
            spell,
        };
        let above = |a: &Filed, b: &Filed| candidates.above(a, b);
        let heap = &mut self.winners.as_mut().expect("built above").heap;
        loop {
            let &(filed, top) = heap.first()?;
            let node = candidates.node(top);
            let current = rule.score(node.count, node.len as usize);
            if node.count == 0 {
                heap.swap_remove(0);
            } else if filed == current {
                return (node.count >= min_support).then(|| candidates.stat(top));
            } else {
                // Stale: removals lowered it. Re-file and look again.
                heap[0].0 = current;
            }
            sift_down(heap, 0, above);
        }
    }

    /// Heapifies the candidates for [`SubsequenceCounter::best`]: every node
    /// listed since the last reset, trie node or leaf, at or above the
    /// rule's [`RankingRule::candidate_floor`] and not outranked
    /// ([`SubsequenceCounter::outrank`]).
    fn rank_candidates<S>(&mut self, rule: RankingRule, min_support: u64, spell: S) -> Winners
    where
        S: Fn(Symbol) -> Symbol + Copy,
    {
        #[cfg(test)]
        {
            self.scanned.heapify += self.touched.len() + self.leaves.len();
        }
        let floor = rule.candidate_floor(min_support);
        self.outrank(rule, floor);
        let candidates = self.candidates(spell);
        let mut heap: Vec<Filed> = self
            .ids()
            .map(|id| (id, candidates.node(id)))
            .filter(|(_, node)| node.count >= floor && !node.outranked)
            .map(|(id, node)| (rule.score(node.count, node.len as usize), id))
            .collect();
        for at in (0..heap.len() / 2).rev() {
            sift_down(&mut heap, at, |a, b| candidates.above(a, b));
        }
        Winners {
            rule,
            min_support,
            heap,
        }
    }

    /// Marks the counted trie nodes no query under `rule` can return:
    /// those a neighbour one symbol longer or shorter, at the same count,
    /// ranks above. Two nodes one symbol apart count the same exactly when
    /// every held sequence holding the shorter holds the longer, and a
    /// removal then lowers both alike: the neighbour ranks above for good.
    /// Where length breaks a tie on the count (`CountThenLength`,
    /// `CoverageWeighted`) the longer wins, so a node is outranked by its
    /// extension on either side; where it does not (`CountOnly`), the
    /// lexicographic tie-break puts a node's parent — its prefix — first.
    fn outrank(&mut self, rule: RankingRule, floor: u64) {
        // Marks from a ranking under another rule, or before an add, are
        // stale.
        if self.outranked {
            for &id in &self.touched {
                self.nodes[id as usize].outranked = false;
            }
        }
        self.outranked = true;
        let longer_first = rule.longer_ranks_above();
        for at in 0..self.touched.len() {
            let id = self.touched[at] as usize;
            let Node {
                count,
                parent,
                suffix,
                ..
            } = self.nodes[id];
            if count < floor {
                continue;
            }
            let nodes = &mut self.nodes;
            if longer_first {
                for shorter in [parent, suffix] {
                    if nodes[shorter as usize].count == count {
                        nodes[shorter as usize].outranked = true;
                    }
                }
            } else if nodes[parent as usize].count == count {
                nodes[id].outranked = true;
            }
        }
    }

    /// The node spelling `seq`, if the trie has it.
    fn find(&self, seq: &[Symbol]) -> Option<u32> {
        seq.iter().try_fold(ROOT, |node, &symbol| {
            self.edges.get(&Edge(node, symbol)).map(NonZeroU32::get)
        })
    }

    /// The node spelling the whole of `seq`: one walk down the trie. If the
    /// walk has to create nodes, `seq` is new to the arena and is appended;
    /// otherwise it is a prefix of a sequence already there and the node
    /// points into that.
    pub(crate) fn intern(&mut self, seq: &[Symbol]) -> u32 {
        #[cfg(test)]
        {
            self.walks += 1;
        }
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

    /// Whether the counting walk from `node` is kept: counting the
    /// sequence it spells creates nothing.
    pub(crate) fn walk_kept(&self, node: u32) -> bool {
        self.side[node as usize].walk <= KEPT_BELOW
    }

    /// What bounds the counter's memory: its trie nodes, the root
    /// included, or the entries of its kept walks, whichever is more.
    pub(crate) fn size(&self) -> usize {
        self.nodes.len().max(self.kept.len())
    }

    /// Trie nodes, the root included.
    #[cfg(test)]
    pub(crate) fn trie_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Edges in the trie, for the structural tests.
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Nodes in the index — trie nodes, the root included, and leaves.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len() + self.leaves.len()
    }

    /// Every node's sub-sequence — the trie's read through `spell` — and
    /// whether the node is a leaf.
    #[cfg(test)]
    pub(crate) fn nodes<'a, S>(&'a self, spell: S) -> impl Iterator<Item = (Vec<Symbol>, bool)> + 'a
    where
        S: Fn(Symbol) -> Symbol + Copy + 'a,
    {
        let candidates = self.candidates(spell);
        let leaves = 0..self.leaves.len() as u32;
        (0..self.nodes.len() as u32)
            .chain(leaves.map(|k| LEAF | k))
            .map(move |id| (candidates.spelled(id).collect(), id & LEAF != 0))
    }

    /// The longest sub-sequence counted.
    fn cap(&self) -> usize {
        cap_of(self.max_len)
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
            let fresh = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&id| id < LEAF)
                .and_then(NonZeroU32::new)
                .expect("trie node ids fit in 31 bits, and the root is node 0");
            let (nodes, side) = (&mut self.nodes, &mut self.side);
            let node = self.edges.get_or_insert_with(&Edge(parent, symbol), || {
                let len = nodes[parent as usize].len + 1;
                let arena_off =
                    u32::try_from(end - len as usize).expect("arena offsets fit in u32");
                nodes.push(Node::new(arena_off, len, parent));
                side.push(Side::NEW);
                fresh
            });
            let found = node != fresh;
            let node = node.get();
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

    /// Calls `visit` on the count of each *distinct* contiguous
    /// sub-sequence, 2 to `max_len` symbols long, of the sequence `terminal`
    /// spells — exactly once each, however many times it occurs (path `1 2
    /// 1 2`) — and lists each node `visit` moves off zero.
    ///
    /// The nodes are found by a counting walk ([`SubsequenceCounter::walk`]),
    /// and the third walk from a node is kept: a sequence counted again —
    /// held again in a later window, say — costs a pass over its kept nodes,
    /// not a walk. The trie never drops a node, so a kept walk stays true.
    fn for_each_counted(&mut self, terminal: u32, mut visit: impl FnMut(&mut u64)) {
        let mut count = |counter: &mut Self, node: u32| {
            let node_at = &mut counter.nodes[node as usize];
            let was = node_at.count;
            visit(&mut node_at.count);
            if was == 0 && !node_at.listed {
                node_at.listed = true;
                counter.touched.push(node);
            }
        };
        let state = self.side[terminal as usize].walk;
        if state <= KEPT_BELOW {
            let from = state as usize + 1;
            for k in from..from + self.kept[state as usize] as usize {
                count(self, self.kept[k]);
            }
            return;
        }
        let keep = state == KEPT_BELOW + 1;
        let mut reached = std::mem::take(&mut self.walk);
        reached.clear();
        if self.walk(terminal, keep, &mut reached, &mut count) {
            for &node in &reached {
                count(self, node);
            }
        }
        self.side[terminal as usize].walk = if keep {
            let at = u32::try_from(self.kept.len())
                .ok()
                .filter(|&at| at <= KEPT_BELOW)
                .expect("kept walks fit in u32");
            self.kept.push(reached.len() as u32);
            self.kept.extend_from_slice(&reached);
            at
        } else {
            state - 1
        };
        self.walk = reached;
    }

    /// The one counting walk from `terminal`: reaches each *distinct* node
    /// [`SubsequenceCounter::for_each_counted`] visits, creating the ones
    /// the trie lacks, and passes it to `visit` — or, when `collect` is set
    /// or the sequence repeats a symbol, pushes it onto `reached` instead and
    /// returns true.
    ///
    /// Each position's longest counted sub-sequence, then its suffix chain:
    /// below the cap the longest ones are `terminal` and its ancestors,
    /// reached by parent links; past it, one edge lookup per position.
    fn walk(
        &mut self,
        terminal: u32,
        collect: bool,
        reached: &mut Vec<u32>,
        visit: &mut impl FnMut(&mut Self, u32),
    ) -> bool {
        let cap = self.cap();
        let span = self.nodes[terminal as usize].range();
        let seq = &self.arena[span.clone()];
        // Only a repeated symbol lets a sub-sequence end at two positions;
        // then the walk collects the nodes and dedupes them.
        let repeats = (1..seq.len()).any(|at| seq[..at].contains(&seq[at]));
        let collect = collect || repeats;
        let mut chain = |counter: &mut Self, mut node: u32| {
            while counter.nodes[node as usize].len >= 2 {
                if collect {
                    reached.push(node);
                } else {
                    visit(counter, node);
                }
                node = counter.nodes[node as usize].suffix;
            }
        };
        let mut longest = ROOT;
        let mut node = terminal;
        while node != ROOT {
            let parent = self.nodes[node as usize].parent;
            if self.nodes[node as usize].len as usize <= cap {
                if longest == ROOT {
                    longest = node;
                }
                chain(self, node);
            }
            node = parent;
        }
        // A sequence past the cap: `longest` spells its first `cap` symbols,
        // and each later position drops the first and adds its own.
        for at in span.start + cap.min(span.len())..span.end {
            let shorter = self.nodes[longest as usize].suffix;
            longest = self.child(shorter, self.arena[at], at + 1);
            chain(self, longest);
        }
        if repeats {
            reached.sort_unstable();
            reached.dedup();
        }
        collect
    }
}

/// The longest sub-sequence a `max_len` of 0 (no limit) or more counts.
fn cap_of(max_len: usize) -> usize {
    match max_len {
        0 => usize::MAX,
        cap => cap,
    }
}

/// The most trie nodes that indexing one sequence of `len` symbols, and
/// counting it under `max_len`, can create: a walk down to depth `d` makes
/// the node and, up to the cap, its suffix chain (at most `min(d, cap)`
/// nodes), and a counting walk makes at most a chain of `cap` per position
/// past the cap — together at most `len · (min(len, cap) + 1)`.
pub(crate) fn nodes_bound(len: usize, max_len: usize) -> usize {
    len.saturating_mul(len.min(cap_of(max_len)) + 1)
}

/// The best suffix, 2 to `max_len` symbols long (0 = no limit), of the
/// sequences in `groups`: `(sequence, weight)` pairs that all end in one
/// symbol. A suffix counts the summed weight of the groups whose sequence
/// ends in it, and the best is the first under
/// [`RankingRule::ranks_above`]. `None` when no sequence has two symbols.
/// Sorts `groups`.
pub(crate) fn best_suffix<'s>(
    rule: RankingRule,
    max_len: usize,
    groups: &mut [(&'s [Symbol], u64)],
) -> Option<(&'s [Symbol], u64)> {
    // Read back to front, the sequences ending in one suffix sit together:
    // one pass per length sums each run.
    groups.sort_unstable_by(|a, b| a.0.iter().rev().cmp(b.0.iter().rev()));
    let longest = groups.iter().map(|(seq, _)| seq.len()).max()?;
    let mut best: Option<(Score, &[Symbol], u64)> = None;
    for len in 2..=longest.min(cap_of(max_len)) {
        let mut at = 0;
        while at < groups.len() {
            let (seq, mut count) = groups[at];
            at += 1;
            if seq.len() < len {
                continue;
            }
            let suffix = &seq[seq.len() - len..];
            while let Some(&(_, weight)) = groups.get(at).filter(|(next, _)| next.ends_with(suffix))
            {
                count += weight;
                at += 1;
            }
            let score = rule.score(count, len);
            if best.is_none_or(|(top, subseq, _)| {
                RankingRule::ranks_above(score, top, || suffix < subseq)
            }) {
                best = Some((score, suffix, count));
            }
        }
    }
    best.map(|(_, suffix, count)| (suffix, count))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        assert!(!c.remove_weighted(&[s(1), s(2), s(3)], 1));

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

    /// 96 pairs of equal score added in a scrambled order: the heap is built
    /// without a sort, so the lexicographic tie-break rests on its slice
    /// comparisons alone. Removals — some partial, leaving a pair below the
    /// rest — must leave the winner a counter built fresh from the survivors
    /// picks.
    #[test]
    fn equal_scores_fall_to_the_lexicographically_first() {
        let pair = |i: usize| [s(i as u32 / 8), s(100 + i as u32 % 8)];
        // 37 is prime to 96, so this visits every pair once, out of order.
        let scrambled: Vec<usize> = (0..96).map(|i| i * 37 % 96).collect();
        for rule in RankingRule::ALL {
            let mut c = SubsequenceCounter::new(0);
            let mut held = BTreeMap::new();
            for &i in &scrambled {
                c.add_weighted(&pair(i), 2);
                held.insert(pair(i), 2);
            }
            assert_eq!(
                c.best(rule, 1).expect("winner").subseq,
                pair(0).to_vec(),
                "{rule:?}"
            );
            for (step, &i) in scrambled.iter().enumerate() {
                let weight = if step % 3 == 0 { 1 } else { held[&pair(i)] };
                assert!(c.remove_weighted(&pair(i), weight));
                match held[&pair(i)] - weight {
                    0 => held.remove(&pair(i)),
                    left => held.insert(pair(i), left),
                };
                let mut fresh = SubsequenceCounter::new(0);
                for (seq, &weight) in &held {
                    fresh.add_weighted(seq, weight);
                }
                assert_eq!(
                    c.best(rule, 1),
                    fresh.best(rule, 1),
                    "{rule:?}, step {step}"
                );
            }
        }
    }

    /// [`best_suffix`] by brute force: every suffix of every group, 2 to the
    /// cap long, counted by scanning every group, and the winner folded with
    /// [`RankingRule::better`] over a map that iterates in lexicographic
    /// order — the reference decomposition's own tie-break.
    fn brute_best_suffix(
        rule: RankingRule,
        max_len: usize,
        groups: &[(&[Symbol], u64)],
    ) -> Option<SubsequenceStat> {
        let cap = if max_len == 0 { usize::MAX } else { max_len };
        let mut counts: BTreeMap<&[Symbol], u64> = BTreeMap::new();
        for (seq, _) in groups {
            for len in 2..=seq.len().min(cap) {
                let suffix = &seq[seq.len() - len..];
                let count = groups
                    .iter()
                    .filter(|(other, _)| other.ends_with(suffix))
                    .map(|&(_, weight)| weight)
                    .sum();
                counts.insert(suffix, count);
            }
        }
        counts
            .into_iter()
            .map(|(subseq, count)| SubsequenceStat {
                subseq: subseq.to_vec(),
                count,
            })
            .reduce(|best, candidate| {
                if rule.better(&candidate, &best) {
                    candidate
                } else {
                    best
                }
            })
    }

    /// The leaf chooser against brute force, under every rule: one to four
    /// groups ending in one prefix symbol, over a three-symbol alphabet so
    /// that suffixes recur across groups, of mixed lengths (a lone prefix
    /// symbol included), with weights 0 to 3, uncapped and capped below the
    /// longest sequences.
    #[test]
    fn best_suffix_is_the_brute_force_winner() {
        let prefix = s(99);
        let mut state = 36_001u64;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        for case in 0..3_000 {
            let sequences: Vec<Vec<Symbol>> = (0..1 + draw(4))
                .map(|_| {
                    let mut seq: Vec<Symbol> =
                        (0..draw(6)).map(|_| s(1 + draw(3) as u32)).collect();
                    seq.push(prefix);
                    seq
                })
                .collect();
            let weights: Vec<u64> = sequences.iter().map(|_| draw(4)).collect();
            for rule in RankingRule::ALL {
                for max_len in [0, 2, 3] {
                    let mut groups: Vec<(&[Symbol], u64)> = sequences
                        .iter()
                        .map(Vec::as_slice)
                        .zip(weights.iter().copied())
                        .collect();
                    let want = brute_best_suffix(rule, max_len, &groups);
                    let got = best_suffix(rule, max_len, &mut groups).map(|(subseq, count)| {
                        SubsequenceStat {
                            subseq: subseq.to_vec(),
                            count,
                        }
                    });
                    assert_eq!(
                        got, want,
                        "case {case}, {rule:?}, cap {max_len}: {sequences:?} weighing {weights:?}"
                    );
                }
            }
        }
    }

    /// Two groups share the suffix `2 3 9`: it counts both weights, so it
    /// outranks each group's longer suffixes under the count-first rules.
    /// A leaf below the floor is not added, and a removed leaf leaves no
    /// winner.
    #[test]
    fn a_leaf_holds_the_best_suffix_until_removed() {
        let (a, b) = ([s(1), s(2), s(3), s(9)], [s(4), s(2), s(3), s(9)]);
        let mut c = SubsequenceCounter::new(0);
        let leaf = c
            .add_leaf(RankingRule::CountThenLength, 2, &mut [(&a, 1), (&b, 2)])
            .expect("3 events end in 2 3 9");
        assert_eq!(
            c.best(RankingRule::CountThenLength, 2),
            Some(SubsequenceStat {
                subseq: vec![s(2), s(3), s(9)],
                count: 3
            })
        );
        assert_eq!(
            c.add_leaf(RankingRule::CountThenLength, 4, &mut [(&a, 1), (&b, 2)]),
            None
        );
        c.remove_leaf(leaf);
        assert_eq!(c.best(RankingRule::CountThenLength, 1), None);
        assert!(c.stats().is_empty());
    }

    /// The layout the hot walks are sized for: growing it costs peak memory
    /// on the largest windows.
    #[test]
    fn a_node_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    /// The edge map stores `Option<(Edge, NonZeroU32)>` slots: the id's
    /// zero niche is what keeps a slot at 12 bytes.
    #[test]
    fn an_edge_slot_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Option<(Edge, NonZeroU32)>>(), 12);
    }
}
