//! The encoding cache: each (peer, nexthop, AS path) is encoded once per
//! detector, not every symbol of every event.
//!
//! A window carries thousands of events per distinct (peer, nexthop, path):
//! a session flap withdraws and re-announces every prefix over a handful of
//! paths. Interning `x h a1 … an` symbol by symbol for every event probes
//! the interner once per symbol; the cache probes once per event instead:
//!
//! * **A memo keyed by value.** The key is the peer, the nexthop and the
//!   path's ASNs with prepends collapsed, flattened into integers — so `1 1
//!   2` and `1 2` are one key, and so are two unshared copies of one path.
//!   It is looked up by a borrowed slice built in a scratch buffer: no
//!   lookup clones, drops or compares the path's `Arc` (no refcount traffic
//!   per event), and no key is an address. A miss interns the key's
//!   elements into the cache's own symbols and stores the path once.
//! * **Window numbering, not session numbering.** Stemming's tie-breaks
//!   compare symbol ids, and a window's ids are numbered in order of first
//!   appearance in that window. A stamped array renumbers: each cache symbol
//!   and each cache path carries the window (epoch) it was last met in and
//!   its window id then. The first event of a window on a path numbers the
//!   path's symbols not yet met in this window, in sequence order, and
//!   prefixes draw from the same counter — exactly the ids
//!   [`SequenceEncoder`](crate::SequenceEncoder) gives, symbol by symbol.
//!   Every later event on the path costs one stamp compare.
//! * **The index's trie.** Stemming's sub-sequence index
//!   ([`SubsequenceCounter`]) over the cache paths, in cache symbols, with
//!   each cache path's node beside it: a path is walked down the trie once
//!   per session, its counting walk — the nodes of its sub-sequences — is
//!   kept from its second use, and a window only holds its groups' weights
//!   at their paths' nodes and adds them along the kept walks. The counts
//!   and the leaves (which hold prefixes, window symbols) are the window's:
//!   when the window ends they are zeroed, and the trie is kept. The index compares and hands out sub-sequences in
//!   window symbols, each cache symbol read through its stamp, so its
//!   tie-breaks are the ones a per-window index makes. The trie counts
//!   sub-sequences up to one length cap; a window under another cap (the
//!   pipeline's degraded fidelity lowers it) starts a new one.
//! * **Not state.** The cache changes no result: a window decomposes the
//!   same through a warm cache, a cold one or one cleared between windows.
//!   So a detector neither checkpoints, records nor serializes it, and a
//!   restored or replaying detector starts cold.
//! * **Bounded.** Keys are peer-chosen and the cache lives as long as its
//!   detector. The memo, like every map the window build probes, is a
//!   [`ProbeMap`]: colliding keys cost at most its probe bound plus one keyed
//!   lookup. And it holds at most [`EncodingCache::MAX_PATHS`] keys: a window
//!   that could take it past that starts with it cleared, and a window of
//!   more events than that runs through a cold cache of its own. Paths are
//!   peer-chosen in length too, and a path of `n` symbols can make about
//!   `n²` trie nodes: the trie holds at most [`EncodingCache::MAX_NODES`]
//!   between windows. A window whose paths could take it past that starts
//!   it afresh, and if the window alone could, the trie it grew is dropped
//!   when it ends.

use bgpscope_bgp::intern::{Element, Interner, Symbol};
use bgpscope_bgp::probe::ProbeMap;
use bgpscope_bgp::{Asn, Event, PeerId, Prefix, RouterId};

use crate::count::{nodes_bound, SubsequenceCounter, ROOT};

/// Sequences end to end: sequence `k` is `symbols[bounds[k]..bounds[k + 1]]`.
#[derive(Debug)]
pub(crate) struct Sequences {
    symbols: Vec<Symbol>,
    bounds: Vec<u32>,
}

impl Default for Sequences {
    fn default() -> Self {
        Sequences {
            symbols: Vec::new(),
            bounds: vec![0],
        }
    }
}

impl Sequences {
    /// Sequence `k`.
    pub(crate) fn get(&self, k: usize) -> &[Symbol] {
        &self.symbols[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// Number of sequences.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Appends `symbol` to the sequence being built.
    fn push(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// Appends the sequence `head` followed by `last`.
    pub(crate) fn extend(&mut self, head: &[Symbol], last: Symbol) {
        self.symbols.extend_from_slice(head);
        self.push(last);
        self.close();
    }

    /// Ends the sequence being built; returns its index.
    ///
    /// # Panics
    ///
    /// Panics past 2³² symbols.
    fn close(&mut self) -> u32 {
        let end = u32::try_from(self.symbols.len()).expect("fewer than 2^32 symbols");
        self.bounds.push(end);
        (self.bounds.len() - 2) as u32
    }

    fn clear(&mut self) {
        self.symbols.clear();
        self.bounds.truncate(1);
    }
}

/// A session-lived encoding of (peer, nexthop, AS path) keys into symbol
/// sequences, renumbered per window (see the module doc).
///
/// Hand one to [`Stemming::decompose_cached`](crate::Stemming::decompose_cached)
/// window after window; the results are those of
/// [`Stemming::decompose_weighted_indexed`](crate::Stemming::decompose_weighted_indexed),
/// which runs through a cold cache.
#[derive(Debug, Default)]
pub struct EncodingCache {
    /// Peer, nexthop and AS elements, in the cache's own numbering.
    elements: Interner,
    /// Flattened key → cache path.
    memo: ProbeMap<Vec<u32>, u32>,
    /// The cache paths, `x h a1 … an` in cache symbols.
    paths: Sequences,
    /// The window being encoded: a stamp below it is stale.
    epoch: u32,
    /// Per cache symbol: the epoch it was last numbered in, and its window
    /// symbol then.
    symbol_stamps: Vec<(u32, Symbol)>,
    /// Per cache path: the epoch it was last met in, and its window path
    /// then.
    path_stamps: Vec<(u32, u32)>,
    /// The sub-sequence index over the cache paths: its trie lives as long
    /// as the cache, its counts and leaves for one window.
    index: SubsequenceCounter,
    /// Per cache path: its node in `index`, or `ROOT` until it is first
    /// held.
    path_nodes: Vec<u32>,
    /// The key being looked up.
    key: Vec<u32>,
    /// Paths encoded (memo misses), for the structural tests.
    #[cfg(test)]
    pub(crate) encoded: usize,
    /// Prefix lookups, for the structural tests.
    #[cfg(test)]
    pub(crate) prefix_lookups: usize,
}

impl EncodingCache {
    /// The most (peer, nexthop, path) keys a cache holds. At a window start,
    /// a cache that the window's events could take past it is cleared.
    pub const MAX_PATHS: usize = 1 << 16;

    /// The most nodes the index's trie holds between windows, and the most
    /// entries its kept counting walks do: at most 131,072 of each, about
    /// 8 MB by their layout. A window whose paths could take the index past
    /// it starts the trie afresh, and one that alone took it past drops the
    /// trie when it ends.
    pub const MAX_NODES: usize = 1 << 17;

    /// An empty cache; it allocates on first use.
    pub fn new() -> Self {
        EncodingCache::default()
    }

    /// Number of (peer, nexthop, path) keys held.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Forgets every key, keeping what allocations it can.
    pub fn clear(&mut self) {
        self.elements = Interner::new();
        self.memo = ProbeMap::new();
        self.paths.clear();
        self.epoch = 0;
        self.symbol_stamps.clear();
        self.path_stamps.clear();
        self.drop_trie(self.index.max_len());
        self.path_nodes.clear();
    }

    /// Starts the index's trie afresh, counting up to `max_len` symbols.
    fn drop_trie(&mut self, max_len: usize) {
        self.index = SubsequenceCounter::new(max_len);
        self.path_nodes.fill(ROOT);
    }

    /// Starts a window of `events` events: after this, no stamp is current.
    /// The caller runs a window of more than [`EncodingCache::MAX_PATHS`]
    /// events through a cold cache.
    pub(crate) fn window(&mut self, events: usize) -> WindowEncoder<'_> {
        if self.len() + events > Self::MAX_PATHS || self.epoch == u32::MAX {
            self.clear();
        }
        self.epoch += 1;
        self.memo.reserve(presized(events));
        WindowEncoder {
            cache: self,
            prefixes: ProbeMap::with_capacity(presized(events)),
            symbols: Vec::new(),
            paths: Sequences::default(),
            cache_paths: Vec::new(),
        }
    }

    /// The cache path of `event`'s (peer, nexthop, path): one memo lookup,
    /// and on a miss the path's encoding.
    fn path_of(&mut self, event: &Event) -> usize {
        let key = &mut self.key;
        key.clear();
        key.push(event.peer.0 .0);
        key.push(event.attrs.next_hop.0);
        let mut prev = None;
        for &asn in event.attrs.as_path.asns() {
            if prev != Some(asn) {
                key.push(asn.0);
                prev = Some(asn);
            }
        }
        let (elements, paths) = (&mut self.elements, &mut self.paths);
        let (symbol_stamps, path_stamps) = (&mut self.symbol_stamps, &mut self.path_stamps);
        let path_nodes = &mut self.path_nodes;
        #[cfg(test)]
        let encoded = &mut self.encoded;
        let path = self.memo.get_or_insert_with(&key[..], || {
            #[cfg(test)]
            {
                *encoded += 1;
            }
            paths.push(elements.intern(Element::Peer(PeerId(RouterId(key[0])))));
            paths.push(elements.intern(Element::Nexthop(RouterId(key[1]))));
            for &asn in &key[2..] {
                paths.push(elements.intern(Element::As(Asn(asn))));
            }
            symbol_stamps.resize(elements.len(), (0, Symbol(0)));
            path_stamps.push((0, 0));
            path_nodes.push(ROOT);
            paths.close()
        });
        path as usize
    }
}

/// The capacity a window's tables are created with, for `wanted` entries:
/// up front, so a small window never rehashes them. A churn window needs
/// one prefix, group and key per event (`grass`: 1.00 groups per event).
/// Past 4,096 a table grows from there to the power of two growing from
/// empty would have reached, so a 40,000-event window — 0.5 prefixes and
/// groups per event on `spike` — holds no bigger tables than before.
pub(crate) fn presized(wanted: usize) -> usize {
    wanted.min(4096)
}

/// One window's encoding, through a cache: [`EncodingCache::window`].
#[derive(Debug)]
pub(crate) struct WindowEncoder<'c> {
    cache: &'c mut EncodingCache,
    /// Prefix → the value its first event filed.
    prefixes: ProbeMap<Prefix, u32>,
    /// Window symbol → its element.
    symbols: Vec<Element>,
    /// The window paths, `x h a1 … an` in window symbols.
    paths: Sequences,
    /// Window path → its cache path.
    cache_paths: Vec<u32>,
}

impl<'c> WindowEncoder<'c> {
    /// The window path of `event`'s (peer, nexthop, AS path): its sequence
    /// `x h a1 … an p` is that path followed by the prefix's symbol.
    pub(crate) fn path(&mut self, event: &Event) -> u32 {
        let cache = &mut *self.cache;
        let path = cache.path_of(event);
        let epoch = cache.epoch;
        let (met, window_path) = &mut cache.path_stamps[path];
        if *met != epoch {
            for &symbol in cache.paths.get(path) {
                let (numbered, id) = &mut cache.symbol_stamps[symbol.index()];
                if *numbered != epoch {
                    *numbered = epoch;
                    *id = Symbol(self.symbols.len() as u32);
                    self.symbols.push(cache.elements.resolve(symbol));
                }
                self.paths.push(*id);
            }
            *met = epoch;
            *window_path = self.paths.close();
            self.cache_paths.push(path as u32);
        }
        *window_path
    }

    /// The value filed under `prefix` in this window. A prefix new to the
    /// window is numbered — after the symbols of the path it came with — and
    /// files `value(its symbol)`.
    pub(crate) fn prefix(&mut self, prefix: Prefix, value: impl FnOnce(Symbol) -> u32) -> u32 {
        #[cfg(test)]
        {
            self.cache.prefix_lookups += 1;
        }
        let symbols = &mut self.symbols;
        self.prefixes.get_or_insert_with(&prefix, || {
            symbols.push(Element::Prefix(prefix));
            value(Symbol(symbols.len() as u32 - 1))
        })
    }

    /// The window's symbol table and paths, and the cache's index made
    /// ready to count the window's sequences up to `max_len` symbols. No
    /// two paths are equal: a group is a distinct (path, prefix) because of
    /// it.
    pub(crate) fn finish(self, max_len: usize) -> (Vec<Element>, Sequences, WindowIndex<'c>) {
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                (0..self.paths.len()).all(|w| seen.insert(self.paths.get(w)))
            },
            "two window paths spell one sequence"
        );
        let cache = self.cache;
        debug_assert_eq!(cache.index.total(), 0, "the last window's index was reset");
        if cache.index.max_len() != max_len {
            cache.drop_trie(max_len);
        }
        // A path the index has walked twice — interned, its counting walk
        // kept — adds nothing to it; any other can add up to its bound.
        let index = &cache.index;
        let new = (0..self.paths.len())
            .filter(|&w| {
                let node = cache.path_nodes[self.cache_paths[w] as usize];
                node == ROOT || !index.walk_kept(node)
            })
            .map(|w| nodes_bound(self.paths.get(w).len(), max_len))
            .fold(0, usize::saturating_add);
        if index.size().saturating_add(new) > EncodingCache::MAX_NODES {
            cache.drop_trie(max_len);
        }
        if cache.index.size() == 1 {
            // A fresh trie is sized for this window's paths up front, not
            // grown from empty.
            cache.index.reserve(presized(new));
        }
        let index = WindowIndex {
            cache,
            cache_paths: self.cache_paths,
        };
        (self.symbols, self.paths, index)
    }
}

/// One window's use of the cache's sub-sequence index:
/// [`WindowEncoder::finish`]. Dropping it takes the window's counts and
/// leaves off the index and keeps the trie — unless the window grew it past
/// [`EncodingCache::MAX_NODES`], which drops the trie.
#[derive(Debug)]
pub(crate) struct WindowIndex<'c> {
    cache: &'c mut EncodingCache,
    /// Window path → its cache path.
    cache_paths: Vec<u32>,
}

impl WindowIndex<'_> {
    /// Holds `weight` (non-zero) of the sequence window path `path` spells,
    /// at its path's node, walking the path down the trie only the first
    /// time the trie meets it; returns the node.
    pub(crate) fn hold(&mut self, path: u32, weight: u64) -> u32 {
        let cache = &mut *self.cache;
        let path = self.cache_paths[path as usize] as usize;
        let node = &mut cache.path_nodes[path];
        if *node == ROOT {
            // A path holds a peer and a nexthop: never the root.
            *node = cache.index.intern(cache.paths.get(path));
        }
        cache.index.hold(*node, weight);
        *node
    }

    /// The index, and the spelling that reads its cache symbols as this
    /// window's symbols.
    pub(crate) fn parts(
        &mut self,
    ) -> (
        &mut SubsequenceCounter,
        impl Fn(Symbol) -> Symbol + Copy + '_,
    ) {
        let cache = &mut *self.cache;
        let (stamps, epoch) = (&cache.symbol_stamps, cache.epoch);
        let spell = move |symbol: Symbol| {
            let (numbered, id) = stamps[symbol.index()];
            debug_assert_eq!(numbered, epoch, "a symbol the window never met");
            id
        };
        (&mut cache.index, spell)
    }
}

impl Drop for WindowIndex<'_> {
    fn drop(&mut self) {
        let cache = &mut *self.cache;
        cache.index.reset();
        if cache.index.size() > EncodingCache::MAX_NODES {
            cache.drop_trie(cache.index.max_len());
        }
    }
}

#[cfg(test)]
impl EncodingCache {
    /// The index, between windows.
    pub(crate) fn index(&self) -> &SubsequenceCounter {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stemming;
    use bgpscope_bgp::{AsPath, EventStream, PathAttributes, Timestamp};

    /// Event `k` of a stream whose every event has a (peer, nexthop, path)
    /// of its own, over 4 peers and 64 prefixes.
    fn unique(k: u32) -> Event {
        let peer = PeerId::from_octets(128, 32, 1, (k % 4) as u8);
        let attrs = PathAttributes::new(
            RouterId::from_octets(128, 32, 0, (k % 4) as u8),
            AsPath::from_u32s([11423, 64_512 + k / 4_096, k % 4_096]),
        );
        let prefix = Prefix::from_octets(10, 0, (k % 64) as u8, 0, 24);
        Event::withdraw(Timestamp::from_millis(u64::from(k)), peer, prefix, attrs)
    }

    /// Four withdrawals, one per prefix, over one path of `hops` distinct
    /// ASes numbered from `first`.
    fn long_path(first: u32, hops: u32) -> EventStream {
        let peer = PeerId::from_octets(128, 32, 1, 1);
        let attrs = PathAttributes::new(
            RouterId::from_octets(128, 32, 0, 1),
            AsPath::from_u32s(first..first + hops),
        );
        (0..4)
            .map(|k| {
                let prefix = Prefix::from_octets(10, k, 0, 0, 16);
                Event::withdraw(Timestamp::ZERO, peer, prefix, attrs.clone())
            })
            .collect()
    }

    /// Long distinct paths — a path of `n` symbols makes about `n² / 2`
    /// trie nodes — never leave the index past its bound between windows: a
    /// path the trie holds costs nothing more, a window whose new paths
    /// could take it past the bound starts it afresh, and a window that
    /// alone goes past it drops it when it ends. Every window decomposes as
    /// through a cold cache.
    #[test]
    fn the_index_holds_at_most_its_node_bound() {
        let stemming = Stemming::new();
        let mut cache = EncodingCache::new();
        let mut sizes = Vec::new();
        let windows = [
            (0, 200),
            (0, 200),
            (1_000, 200),
            (2_000, 200),
            (3_000, 200),
            (4_000, 200),
            (5_000, 200),
            (0, 600),
            (0, 200),
        ];
        for (w, (first, hops)) in windows.into_iter().enumerate() {
            let stream = long_path(first, hops);
            let warm = stemming.decompose_cached(&mut cache, &stream, |_, _| 1);
            let cold = stemming.decompose(&stream);
            assert_eq!(warm.components(), cold.components(), "window {w}");
            assert_eq!(warm.report(), cold.report(), "window {w}");
            let size = cache.index().size();
            assert!(size <= EncodingCache::MAX_NODES, "window {w}: {size}");
            sizes.push(size);
        }
        // 202 symbols make 20,503 sub-sequences, and the root is a node; a
        // later path shares its peer, its nexthop and the two together.
        let (one, more) = (20_504, 20_500);
        assert_eq!(
            &sizes[..6],
            &[
                one,
                one,
                one + more,
                one + 2 * more,
                one + 3 * more,
                one + 4 * more
            ]
        );
        assert_eq!(
            sizes[6], one,
            "a new path past the bound starts the trie afresh"
        );
        assert_eq!(
            sizes[7], 1,
            "a window past the bound alone drops the trie after it"
        );
        assert_eq!(sizes[8], one);
    }

    /// More distinct keys than the cap, in windows of 8,192 events: the
    /// cache never holds more than the cap, is cleared on the way, and
    /// every window decomposes as through a cold cache.
    #[test]
    fn the_cache_holds_at_most_its_cap() {
        let stemming = Stemming::new();
        let mut cache = EncodingCache::new();
        let mut cleared = false;
        let windows = (EncodingCache::MAX_PATHS / 8_192 + 1) as u32;
        for w in 0..windows {
            let stream: EventStream = (w * 8_192..(w + 1) * 8_192).map(unique).collect();
            let before = cache.len();
            let warm = stemming.decompose_cached(&mut cache, &stream, |_, _| 1);
            let cold = stemming.decompose(&stream);
            assert_eq!(warm.components(), cold.components(), "window {w}");
            assert_eq!(warm.report(), cold.report(), "window {w}");
            assert!(cache.len() <= EncodingCache::MAX_PATHS, "window {w}");
            cleared |= cache.len() < before;
        }
        assert!(windows as usize * 8_192 > EncodingCache::MAX_PATHS);
        assert!(cleared);
    }

    /// A window of more events than the cap runs through a cold cache of
    /// its own, and leaves the caller's as it was.
    #[test]
    fn a_window_past_the_cap_leaves_the_cache_alone() {
        let stemming = Stemming::new();
        let mut cache = EncodingCache::new();
        let small: EventStream = (0..100).map(unique).collect();
        stemming.decompose_cached(&mut cache, &small, |_, _| 1);
        assert_eq!(cache.len(), 100);
        let big: EventStream = (0..EncodingCache::MAX_PATHS as u32 + 1)
            .map(unique)
            .collect();
        let warm = stemming.decompose_cached(&mut cache, &big, |_, _| 1);
        assert_eq!(cache.len(), 100);
        assert_eq!(warm.report(), stemming.decompose(&big).report());
    }
}
