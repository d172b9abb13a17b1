//! The recursive Stemming decomposition.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use bgpscope_bgp::intern::{Element, Symbol, SymbolTable};
use bgpscope_bgp::probe::ProbeMap;
use bgpscope_bgp::{EventKind, EventStream, Timestamp};

use crate::cache::{EncodingCache, Sequences, WindowIndex};
use crate::component::{Component, Stem};
use crate::count::{Leaf, ROOT};
use crate::rank::RankingRule;

/// Tunables for [`Stemming`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StemmingConfig {
    /// How the winning sub-sequence is chosen.
    pub ranking: RankingRule,
    /// Longest sub-sequence enumerated (0 = unlimited).
    pub max_subseq_len: usize,
    /// Maximum number of components to extract.
    pub max_components: usize,
    /// Stop when the best remaining sub-sequence is contained in fewer than
    /// this many events — below it, "correlation" is noise.
    pub min_support: u64,
    /// Stop when fewer events than this remain unassigned.
    pub min_residual_events: usize,
    /// Accepted and ignored: counting has one serial path. The field goes
    /// when `benchmark/src/adapter.rs` stops naming it; until then it also
    /// keeps the serialized form of recorded configurations unchanged.
    pub parallelism: usize,
}

impl Default for StemmingConfig {
    fn default() -> Self {
        StemmingConfig {
            ranking: RankingRule::default(),
            max_subseq_len: 0,
            max_components: 16,
            min_support: 2,
            min_residual_events: 2,
            parallelism: 0,
        }
    }
}

/// The Stemming algorithm (§III-B). See the crate docs for the model.
///
/// Construct with [`Stemming::new`] (default config) or
/// [`Stemming::with_config`], then call [`Stemming::decompose`].
#[derive(Debug, Clone, Default)]
pub struct Stemming {
    config: StemmingConfig,
}

impl Stemming {
    /// A detector with the default configuration.
    pub fn new() -> Self {
        Stemming::default()
    }

    /// A detector with an explicit configuration.
    pub fn with_config(config: StemmingConfig) -> Self {
        Stemming { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StemmingConfig {
        &self.config
    }

    /// Decomposes an event stream into its strongly correlated components,
    /// strongest first.
    ///
    /// Each round counts contiguous sub-sequences over the not-yet-assigned
    /// events, takes the ranking winner `s'`, forms the component (prefixes
    /// of events containing `s'`, then *all* events touching those prefixes),
    /// removes it, and repeats.
    pub fn decompose(&self, stream: &EventStream) -> StemmingResult {
        self.decompose_weighted(stream, |_| 1)
    }

    /// Like [`Stemming::decompose`], but each event counts with a weight —
    /// the traffic-weighted correlation of §III-D.2, where an event for an
    /// elephant prefix should outweigh thousands of mice events.
    ///
    /// Events with weight 0 never contribute to sub-sequence counts (but are
    /// still swept into a component if their prefix is affected).
    ///
    /// # Incremental rounds
    ///
    /// The window is encoded once, grouped by distinct sequence, and counted
    /// **once** into a [`SubsequenceCounter`](crate::SubsequenceCounter) — a
    /// sub-sequence index — which is then updated *decrementally*: each
    /// extraction removes just the swept component's distinct sequences, by
    /// the index node each one's add returned (no lookup), summed per node,
    /// and zeroes its prefixes' leaves (below), so
    /// round `k+1` starts from round `k`'s counts instead of recounting every
    /// surviving event, and gets its winner from the index's heap instead of
    /// a fold over every surviving sub-sequence.
    ///
    /// Encoding goes through an [`EncodingCache`] (a cold one here; a
    /// detector keeps one across windows, [`Stemming::decompose_cached`]):
    /// an event costs one lookup of its (peer, nexthop, AS path), by value,
    /// and one of its prefix, not one per symbol. Equal paths — prepends
    /// collapsed, shared or not — are one window path, numbered the first
    /// time the window meets it in order of first appearance, as symbol by
    /// symbol interning numbers them. A group is a distinct (path, prefix),
    /// its sequence the path followed by the prefix symbol; a prefix's
    /// lookup finds its first group, and only its later paths look up a
    /// group. Each path is walked down the index once, and every later group
    /// on it adds its weight at the node that walk returned.
    ///
    /// The index is the cache's too. Its trie — each path's node and the
    /// nodes of its sub-sequences — is built the first time the cache meets
    /// the path and kept across windows: a window on paths met before holds
    /// each group's weight at its path's node and counts the nodes the
    /// path's kept walk lists, creating nothing. Its counts and leaves are
    /// the window's, zeroed when the window ends, and every scan covers only
    /// the nodes the window touched. The trie is in the cache's symbols; a
    /// tie-break reads each of them as its window symbol, so the winner,
    /// its spelling and every component are what a per-window index gives.
    ///
    /// Two counting-sorted arrays — prefix symbol → events, and
    /// symbol → the groups whose sequence holds it (postings) — let P scan
    /// only the groups posted under the winner's rarest symbol and the E
    /// sweep touch only the component being extracted. Per-round cost drops
    /// from O(alive) to O(component) plus those postings; results are
    /// bit-identical to the retained from-scratch loop in
    /// [`crate::reference`] (proved by the differential proptest harness).
    ///
    /// The identity rests on two facts: sub-sequence counts are additive per
    /// (distinct sequence, multiplicity), so subtracting a component's
    /// groups leaves exactly the counts a fresh build over the survivors
    /// would produce; and an event's encoded sequence *ends with its interned
    /// prefix symbol*, so all events sharing a sequence share a prefix and
    /// live or die together — a prefix is swept at most once, which is what
    /// lets the E-sweep take a prefix's whole event list without per-event
    /// liveness checks.
    ///
    /// **One leaf per prefix.** The index holds each peer/hop/path sequence
    /// once and each prefix once. A prefix symbol `p` occurs in no sequence
    /// but its own events', and only last, so a sub-sequence holding `p` is
    /// a suffix of `p`'s groups' sequences, counted at the summed weight of
    /// the groups that end in it. Those counts cannot change until `p` is
    /// swept, and then all of `p`'s groups go together. So every group is
    /// added without its final `p` — its `p`-free sub-sequences are exactly
    /// the sub-sequences of the shortened sequence, with the same counts,
    /// and groups that differ only in the prefix share one node whose held
    /// weights add up — and `p` gets one *leaf*: a candidate outside the
    /// trie holding the best of its suffixes under the ranking rule (score,
    /// then the lexicographically first). No other suffix of `p` could be
    /// the winner while the leaf stands, and the E-sweep zeroes the leaf
    /// when `p` goes. Under a rule whose first key is the count, the winner
    /// query leaves out everything below `min_support` (at least 1) —
    /// `RankingRule::candidate_floor` — so a prefix whose best suffix is
    /// below that floor gets no leaf; under `CoverageWeighted` the floor is
    /// 1 and only a prefix whose groups all weigh 0 has none. A churn window
    /// shrinks to its distinct peer/hop/path sequences, and a session-flap
    /// window to those plus a node per prefix. P is still found on the full
    /// sequences.
    pub fn decompose_weighted<F>(&self, stream: &EventStream, weight_of: F) -> StemmingResult
    where
        F: Fn(&bgpscope_bgp::Event) -> u64,
    {
        self.decompose_weighted_indexed(stream, |_, e| weight_of(e))
    }

    /// Like [`Stemming::decompose_weighted`], but the weight closure also
    /// receives the event's stream index, so per-*instance* weights (two
    /// identical events with different weights — e.g. merge-on-shed
    /// representatives carrying different merge counts) can be expressed,
    /// not just per-content ones.
    pub fn decompose_weighted_indexed<F>(
        &self,
        stream: &EventStream,
        weight_of: F,
    ) -> StemmingResult
    where
        F: Fn(usize, &bgpscope_bgp::Event) -> u64,
    {
        self.decompose_cached(&mut EncodingCache::new(), stream, weight_of)
    }

    /// [`Stemming::decompose_weighted_indexed`] through a session-lived
    /// [`EncodingCache`]: each (peer, nexthop, AS path) the cache already
    /// holds costs one lookup per event instead of one per symbol. The
    /// result is the same whatever the cache holds — symbols are numbered
    /// per window, in order of first appearance — so a caller may drop,
    /// clear or replace the cache at any point. A stream of more than
    /// [`EncodingCache::MAX_PATHS`] events runs through a cold cache of its
    /// own, leaving `cache` untouched.
    pub fn decompose_cached<F>(
        &self,
        cache: &mut EncodingCache,
        stream: &EventStream,
        weight_of: F,
    ) -> StemmingResult
    where
        F: Fn(usize, &bgpscope_bgp::Event) -> u64,
    {
        let events = stream.events();
        let mut cold;
        let cache = if events.len() > EncodingCache::MAX_PATHS {
            cold = EncodingCache::new();
            &mut cold
        } else {
            cache
        };
        let Window {
            symbols,
            sequences,
            event_prefix,
            groups,
            prefix_events,
            postings,
            leaves,
            mut index,
        } = self.window(cache, events, weight_of);
        let (counter, spell) = index.parts();

        // Indexed by symbol; only prefix symbols are ever set.
        let mut swept = vec![false; leaves.len()];
        let mut alive_count = events.len();
        let mut components = Vec::new();
        // The dying groups of a round: (node, weight).
        let mut dying: Vec<(u32, u64)> = Vec::new();

        while components.len() < self.config.max_components
            && alive_count >= self.config.min_residual_events
        {
            // `None` once the *ranked* winner is short of `min_support`: under
            // a rule whose first key is not the count, a better-supported
            // sub-sequence further down the ranking must not keep the loop
            // going.
            let Some(best) = counter.best_in(self.config.ranking, self.config.min_support, spell)
            else {
                break;
            };
            let winner = best.subseq;

            // P: prefixes of live groups containing the winner. Each such
            // group holds every symbol of the winner, so it is posted under
            // the rarest one, whose postings list it in the ascending group
            // order a scan of every group would meet it in. A group is live
            // exactly when its (single) prefix is unswept. Zero-weight
            // groups are counted nowhere but posted like any other.
            let rarest = winner
                .iter()
                .map(|s| postings.get(s.index()))
                .min_by_key(|groups| groups.len())
                .expect("a winning sub-sequence is never empty");
            let mut hit = Vec::new();
            for &g in rarest {
                let p = groups[g as usize].prefix.index();
                if !swept[p] && contains_subslice(sequences.get(g as usize), &winner) {
                    swept[p] = true;
                    hit.push(p);
                }
            }

            // E: the union of the swept prefixes' event lists — every listed
            // event is still alive (its prefix was never swept before).
            // Subtract each dying group from the counter, and zero the
            // prefix's leaf, as its prefix goes.
            let mut indices = Vec::new();
            dying.clear();
            for &p in &hit {
                indices.extend(prefix_events.get(p).iter().map(|&i| i as usize));
                if let Some(leaf) = leaves[p] {
                    counter.remove_leaf(leaf);
                }
                dying.extend(postings.get(p).iter().map(|&g| {
                    let group = &groups[g as usize];
                    (group.held, group.weight)
                }));
            }
            // The groups on one path share its node: what dies of each node
            // is removed in one pass along its walk.
            dying.sort_unstable_by_key(|&(node, _)| node);
            for on_node in dying.chunk_by(|a, b| a.0 == b.0) {
                let weight = on_node.iter().map(|&(_, weight)| weight).sum();
                let removed = counter.remove_held(on_node[0].0, weight);
                debug_assert!(removed, "a live group's weight must be removable");
            }
            // Collected, the set is one sort and a bulk build: a flap
            // window's component holds 20,000 prefixes.
            let prefixes: BTreeSet<_> = hit
                .iter()
                .map(|&p| events[prefix_events.get(p)[0] as usize].prefix)
                .collect();
            indices.sort_unstable();
            debug_assert!(
                !indices.is_empty(),
                "winning sub-sequence must match events"
            );
            alive_count -= indices.len();

            let mut start = Timestamp(u64::MAX);
            let mut end = Timestamp::ZERO;
            let mut announce_count = 0;
            let mut withdraw_count = 0;
            for &i in &indices {
                let event = &events[i];
                start = start.min(event.time);
                end = end.max(event.time);
                match event.kind {
                    EventKind::Announce => announce_count += 1,
                    EventKind::Withdraw => withdraw_count += 1,
                }
            }

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
        // The index is dead weight from here on: take the window's counts
        // and leaves off it, keeping the trie for the next window.
        drop(index);

        let residual_indices = (0..events.len())
            .filter(|&i| !swept[event_prefix[i].index()])
            .collect();

        StemmingResult {
            components,
            symbols: symbols.into(),
            total_events: events.len(),
            residual_indices,
        }
    }

    /// Encodes `events` through `cache`, groups them by distinct sequence,
    /// files them, and holds each group in the cache's index once: without
    /// its prefix symbol, which each prefix's leaf stands for (see
    /// [`Stemming::decompose_weighted`]).
    fn window<'c, F>(
        &self,
        cache: &'c mut EncodingCache,
        events: &[bgpscope_bgp::Event],
        weight_of: F,
    ) -> Window<'c>
    where
        F: Fn(usize, &bgpscope_bgp::Event) -> u64,
    {
        // A group is a distinct sequence: a distinct (path, prefix), since
        // the cache gives equal paths one window path. Its sequence is its
        // path followed by its prefix. A prefix files its first group, and
        // almost every prefix has one group in a window, so its lookup
        // finds the group; only a prefix's later paths need the group map.
        let mut encoder = cache.window(events.len());
        let mut later_groups: ProbeMap<(u32, Symbol), u32> = ProbeMap::new();
        let mut groups: Vec<Group> = Vec::new();
        let new_group = |groups: &mut Vec<Group>, path, prefix| {
            groups.push(Group {
                path,
                prefix,
                weight: 0,
                held: ROOT,
            });
            (groups.len() - 1) as u32
        };
        let mut event_prefix = Vec::with_capacity(events.len());
        for (i, event) in events.iter().enumerate() {
            let path = encoder.path(event);
            let first = encoder.prefix(event.prefix, |prefix| new_group(&mut groups, path, prefix));
            let Group {
                path: on, prefix, ..
            } = groups[first as usize];
            let g = if on == path {
                first
            } else {
                later_groups
                    .get_or_insert_with(&(path, prefix), || new_group(&mut groups, path, prefix))
            };
            groups[g as usize].weight += weight_of(i, event);
            event_prefix.push(prefix);
        }
        // Only needed to form the groups; free it before the index is built.
        drop(later_groups);
        let (symbols, paths, mut index) = encoder.finish(self.config.max_subseq_len);
        let mut sequences = Sequences::default();
        for group in &groups {
            sequences.extend(paths.get(group.path as usize), group.prefix);
        }

        // Invert the stream: prefix symbol → event indices, and symbol →
        // the groups whose sequence holds it (its postings), both ascending.
        // A symbol repeated inside one sequence posts its group once per
        // occurrence. A prefix symbol occurs only last, and only in its own
        // groups' sequences, so its postings are exactly the prefix's groups.
        let prefix_events = Buckets::new(
            symbols.len(),
            event_prefix.iter().enumerate().map(|(i, p)| (p.index(), i)),
        );
        let postings = Buckets::new(
            symbols.len(),
            (0..groups.len()).flat_map(|g| sequences.get(g).iter().map(move |s| (s.index(), g))),
        );

        // The trie holds every group without its prefix symbol — its path:
        // a sub-sequence free of it keeps its exact count, and groups on one
        // path share the node the path's one walk returned, their held
        // weights adding up. The trie is the cache's: a path it met in an
        // earlier window is not walked again.
        for group in groups.iter_mut().filter(|group| group.weight > 0) {
            group.held = index.hold(group.path, group.weight);
        }

        // Each prefix gets one leaf: the best of its groups' suffixes, all
        // of which end in it. None when that suffix is below the floor.
        let floor = self.config.ranking.candidate_floor(self.config.min_support);
        let (counter, _) = index.parts();
        let mut leaves = vec![None; symbols.len()];
        let mut of_prefix = Vec::new();
        for (p, leaf) in leaves.iter_mut().enumerate() {
            if prefix_events.get(p).is_empty() {
                continue;
            }
            of_prefix.clear();
            of_prefix.extend(
                postings
                    .get(p)
                    .iter()
                    .map(|&g| (sequences.get(g as usize), groups[g as usize].weight)),
            );
            *leaf = counter.add_leaf(self.config.ranking, floor, &mut of_prefix);
        }
        Window {
            symbols,
            sequences,
            event_prefix,
            groups,
            prefix_events,
            postings,
            leaves,
            index,
        }
    }
}

/// One window, encoded and counted once: what the rounds of
/// [`Stemming::decompose_weighted_indexed`] start from.
struct Window<'c> {
    /// Window symbol → its element, in order of first appearance.
    symbols: Vec<Element>,
    /// Group `g`'s sequence: its path, then its prefix symbol.
    sequences: Sequences,
    /// Event `i`'s prefix symbol.
    event_prefix: Vec<Symbol>,
    groups: Vec<Group>,
    /// Prefix symbol → its events.
    prefix_events: Buckets,
    /// Symbol → the groups whose sequence holds it.
    postings: Buckets,
    /// Symbol → its leaf in the index; only prefix symbols have one.
    leaves: Vec<Option<Leaf>>,
    /// The sub-sequence index over the groups.
    index: WindowIndex<'c>,
}

/// The events of a window that share one sequence.
struct Group {
    /// Their window path.
    path: u32,
    /// Their prefix symbol.
    prefix: Symbol,
    /// Their summed weight.
    weight: u64,
    /// The index node holding them without their prefix symbol (the root
    /// when `weight` is 0).
    held: u32,
}

/// Items bucketed by key with one counting sort: bucket `k` lists the items
/// filed under `k`, in filing order. Items and offsets are `u32`, half the
/// size of `usize` ones, like the index's node ids.
struct Buckets {
    /// Bucket `k` is `items[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl Buckets {
    /// `entries` yields `(key, item)` pairs, each key below `buckets`.
    ///
    /// # Panics
    ///
    /// Panics if there are 2³² entries or more, or an item does not fit a
    /// `u32`.
    fn new(buckets: usize, entries: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        const TOO_MANY: &str = "a window files fewer than 2^32 entries";
        let mut starts = vec![0u32; buckets + 1];
        for (key, _) in entries.clone() {
            starts[key + 1] = starts[key + 1].checked_add(1).expect(TOO_MANY);
        }
        for k in 0..buckets {
            starts[k + 1] = starts[k + 1].checked_add(starts[k]).expect(TOO_MANY);
        }
        let mut next = starts.clone();
        let mut items = vec![0; starts[buckets] as usize];
        for (key, item) in entries {
            items[next[key] as usize] = u32::try_from(item).expect(TOO_MANY);
            next[key] += 1;
        }
        Buckets { starts, items }
    }

    fn get(&self, key: usize) -> &[u32] {
        &self.items[self.starts[key] as usize..self.starts[key + 1] as usize]
    }
}

/// Whether `needle` occurs contiguously inside `haystack`.
pub(crate) fn contains_subslice(haystack: &[Symbol], needle: &[Symbol]) -> bool {
    needle.len() <= haystack.len() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// The outcome of a [`Stemming::decompose`] run.
#[derive(Debug, Clone)]
pub struct StemmingResult {
    components: Vec<Component>,
    symbols: SymbolTable,
    total_events: usize,
    residual_indices: Vec<usize>,
}

impl StemmingResult {
    /// Assembles a result from raw parts — used by the retained from-scratch
    /// loop in [`crate::reference`], which the differential harness holds the
    /// incremental path bit-identical to.
    pub(crate) fn from_parts(
        components: Vec<Component>,
        symbols: SymbolTable,
        total_events: usize,
        residual_indices: Vec<usize>,
    ) -> Self {
        StemmingResult {
            components,
            symbols,
            total_events,
            residual_indices,
        }
    }

    /// The extracted components, strongest first.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The symbol table for rendering component contents.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// How many events were in the analyzed stream.
    pub fn total_events(&self) -> usize {
        self.total_events
    }

    /// Indices of events not assigned to any component (noise floor).
    pub fn residual_indices(&self) -> &[usize] {
        &self.residual_indices
    }

    /// Fraction of events explained by the extracted components.
    pub fn coverage(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        1.0 - self.residual_indices.len() as f64 / self.total_events as f64
    }

    /// Extracts the sub-stream of `stream` belonging to component `idx` —
    /// the hand-off to TAMP animation ("Stemming can extract a subset of an
    /// event stream encompassing a routing incident, which can then be fed
    /// to TAMP").
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `stream` is not the stream this
    /// result was computed from (index out of bounds).
    pub fn component_stream(&self, stream: &EventStream, idx: usize) -> EventStream {
        let comp = &self.components[idx];
        comp.event_indices
            .iter()
            .map(|&i| stream.events()[i].clone())
            .collect()
    }

    /// One summary line per component.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.components.iter().enumerate() {
            out.push_str(&format!("#{i}: {}\n", c.summarize(&self.symbols)));
        }
        out.push_str(&format!(
            "residual: {} / {} events ({:.1}% coverage)\n",
            self.residual_indices.len(),
            self.total_events,
            self.coverage() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::SubsequenceCounter;
    use crate::sequence::SequenceEncoder;
    use bgpscope_bgp::intern::Element;
    use bgpscope_bgp::{Asn, Event, PathAttributes, PeerId, RouterId};

    fn withdraw(t: u64, peer: u8, hop: u8, path: &str, prefix: &str) -> Event {
        Event::withdraw(
            Timestamp::from_secs(t),
            PeerId::from_octets(128, 32, 1, peer),
            prefix.parse().unwrap(),
            PathAttributes::new(
                RouterId::from_octets(128, 32, 0, hop),
                path.parse().unwrap(),
            ),
        )
    }

    /// The paper's Figure 4: 10 withdrawals during an event spike; 8 share
    /// the portion 11423-209, which must be the detected stem.
    #[test]
    fn figure4_stem_is_11423_209() {
        let events = vec![
            withdraw(0, 3, 70, "11423 209 701 1299 5713", "192.96.10.0/24"),
            withdraw(1, 3, 66, "11423 11422 209 4519", "207.191.23.0/24"),
            withdraw(2, 200, 90, "11423 209 701 1299 5713", "192.96.10.0/24"),
            withdraw(3, 200, 90, "11423 209 1239 3228 21408", "212.22.132.0/23"),
            withdraw(4, 3, 66, "11423 209 701 705", "203.14.156.0/24"),
            withdraw(5, 3, 66, "11423 11422 209 1239 3602", "209.5.188.0/24"),
            withdraw(6, 3, 66, "11423 209 7018 13606", "12.2.41.0/24"),
            withdraw(7, 3, 66, "11423 209 7018 13606", "12.96.77.0/24"),
            withdraw(8, 3, 66, "11423 209 1239 5400 15410", "62.80.64.0/20"),
            withdraw(9, 200, 90, "11423 209 1239 5400 15410", "62.80.64.0/20"),
        ];
        let stream: EventStream = events.into_iter().collect();
        let result = Stemming::new().decompose(&stream);
        let top = &result.components()[0];
        assert_eq!(top.support, 8);
        assert_eq!(
            result.symbols().resolve(top.stem.0),
            Some(Element::As(Asn(11423)))
        );
        assert_eq!(
            result.symbols().resolve(top.stem.1),
            Some(Element::As(Asn(209)))
        );
        // 6 distinct prefixes among the 8 matching withdrawals (192.96.10.0/24
        // and 62.80.64.0/20 each appear twice, from two peers).
        assert_eq!(top.prefix_count(), 6);
        // The component pulls in all events touching those prefixes (8 here).
        assert_eq!(top.event_count(), 8);
    }

    /// "If the failure was one hop down between 209 and 7018, the common
    /// portion would be 11423-209-7018, and the last edge, 209-7018, is the
    /// failure location."
    #[test]
    fn failure_one_hop_down_moves_stem() {
        let events: Vec<Event> = (0..6)
            .map(|i| {
                withdraw(
                    i,
                    3,
                    66,
                    &format!("11423 209 7018 {}", 13600 + i),
                    &format!("12.{i}.0.0/16"),
                )
            })
            .collect();
        let stream: EventStream = events.into_iter().collect();
        let result = Stemming::new().decompose(&stream);
        let top = &result.components()[0];
        assert_eq!(
            result.symbols().resolve(top.stem.0),
            Some(Element::As(Asn(209)))
        );
        assert_eq!(
            result.symbols().resolve(top.stem.1),
            Some(Element::As(Asn(7018)))
        );
        // Common portion is peer-hop-11423-209-7018 (length 5).
        assert_eq!(top.subsequence.len(), 5);
        assert_eq!(top.support, 6);
    }

    #[test]
    fn component_events_include_all_events_of_affected_prefixes() {
        // 3 withdrawals share a failing path; one unrelated announcement for
        // the same prefix as one of them must be swept into the component.
        let mut events = vec![
            withdraw(0, 3, 66, "11423 209 701", "10.0.0.0/8"),
            withdraw(1, 3, 66, "11423 209 1239", "10.1.0.0/16"),
            withdraw(2, 3, 66, "11423 209 7018", "10.2.0.0/16"),
        ];
        events.push(Event::announce(
            Timestamp::from_secs(3),
            PeerId::from_octets(128, 32, 1, 200),
            "10.0.0.0/8".parse().unwrap(),
            PathAttributes::new(
                RouterId::from_octets(128, 32, 0, 90),
                "7777 8888".parse().unwrap(),
            ),
        ));
        let stream: EventStream = events.into_iter().collect();
        let result = Stemming::new().decompose(&stream);
        let top = &result.components()[0];
        assert_eq!(top.event_count(), 4);
        assert_eq!(top.announce_count, 1);
        assert_eq!(top.withdraw_count, 3);
    }

    #[test]
    fn recursion_finds_second_component() {
        let mut events = Vec::new();
        // Component A: 5 events through 11423-209.
        for i in 0..5 {
            events.push(withdraw(
                i,
                3,
                66,
                &format!("11423 209 {}", 100 + i),
                &format!("20.{i}.0.0/16"),
            ));
        }
        // Component B: 3 events through 5511-3356.
        for i in 0..3 {
            events.push(withdraw(
                10 + i,
                200,
                90,
                &format!("5511 3356 {}", 200 + i),
                &format!("30.{i}.0.0/16"),
            ));
        }
        let stream: EventStream = events.into_iter().collect();
        let result = Stemming::new().decompose(&stream);
        assert!(result.components().len() >= 2);
        let a = &result.components()[0];
        let b = &result.components()[1];
        assert_eq!(a.event_count(), 5);
        assert_eq!(b.event_count(), 3);
        assert!(a.support >= b.support);
        assert!(result.coverage() > 0.99);
    }

    #[test]
    fn single_prefix_oscillation_dominates() {
        // 100 alternating announce/withdraw events for one prefix via one
        // path, plus background noise of 30 distinct one-off events.
        let mut events = Vec::new();
        for i in 0..100u64 {
            let e = if i % 2 == 0 {
                Event::announce(
                    Timestamp::from_millis(i * 10),
                    PeerId::from_octets(10, 0, 0, 1),
                    "4.5.0.0/16".parse().unwrap(),
                    PathAttributes::new(RouterId::from_octets(10, 3, 4, 5), "2 9".parse().unwrap()),
                )
            } else {
                withdraw(0, 1, 1, "2 9", "4.5.0.0/16")
            };
            events.push(e);
        }
        for i in 0..30u32 {
            events.push(withdraw(
                1000 + i as u64,
                7,
                7,
                &format!("{} {}", 3000 + i, 4000 + i),
                &format!("99.{}.0.0/16", i),
            ));
        }
        let stream: EventStream = events.into_iter().collect();
        let result = Stemming::new().decompose(&stream);
        let top = &result.components()[0];
        assert_eq!(top.prefix_count(), 1);
        assert_eq!(top.event_count(), 100);
        assert!(top.events_per_prefix() > 50.0);
    }

    #[test]
    fn empty_and_tiny_streams() {
        let result = Stemming::new().decompose(&EventStream::new());
        assert!(result.components().is_empty());
        assert_eq!(result.coverage(), 0.0);

        let stream: EventStream = vec![withdraw(0, 1, 1, "1 2", "10.0.0.0/8")]
            .into_iter()
            .collect();
        let result = Stemming::new().decompose(&stream);
        // One event: below min_residual_events, nothing extracted.
        assert!(result.components().is_empty());
        assert_eq!(result.residual_indices().len(), 1);
    }

    #[test]
    fn min_support_suppresses_noise() {
        // Two unrelated events share nothing; with min_support 2 no
        // component forms.
        let stream: EventStream = vec![
            withdraw(0, 1, 1, "1 2", "10.0.0.0/8"),
            withdraw(1, 2, 2, "3 4", "20.0.0.0/8"),
        ]
        .into_iter()
        .collect();
        let result = Stemming::new().decompose(&stream);
        assert!(result.components().is_empty());
        assert_eq!(result.residual_indices().len(), 2);
    }

    #[test]
    fn max_components_limits_extraction() {
        // Three independent components; cap at 1 leaves the rest residual.
        let mut events = Vec::new();
        for (group, (base, asns)) in [(0u64, "11 12"), (10, "21 22"), (20, "31 32")]
            .into_iter()
            .enumerate()
        {
            // Distinct peers/nexthops per group, so the groups share nothing.
            let peer = group as u8 + 1;
            for i in 0..4u64 {
                events.push(withdraw(
                    base + i,
                    peer,
                    peer,
                    asns,
                    &format!("{}.{}.0.0/16", 40 + base, i),
                ));
            }
        }
        let stream: EventStream = events.into_iter().collect();
        let config = StemmingConfig {
            max_components: 1,
            ..StemmingConfig::default()
        };
        let result = Stemming::with_config(config).decompose(&stream);
        assert_eq!(result.components().len(), 1);
        assert_eq!(result.residual_indices().len(), 8);
        assert!((result.coverage() - 4.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn min_support_threshold_respected() {
        // A 3-strong component survives min_support 3 but not 4.
        let stream: EventStream = (0..3)
            .map(|i| withdraw(i, 1, 1, "11423 209", &format!("50.{i}.0.0/16")))
            .collect();
        let strict = StemmingConfig {
            min_support: 4,
            ..StemmingConfig::default()
        };
        assert!(Stemming::with_config(strict)
            .decompose(&stream)
            .components()
            .is_empty());
        let lenient = StemmingConfig {
            min_support: 3,
            ..StemmingConfig::default()
        };
        assert_eq!(
            Stemming::with_config(lenient)
                .decompose(&stream)
                .components()
                .len(),
            1
        );
    }

    #[test]
    fn max_subseq_len_still_finds_stems() {
        // Cap at pairs only: the stem is still found (it IS a pair).
        let stream: EventStream = (0..5)
            .map(|i| withdraw(i, 1, 1, "11423 209 701", &format!("60.{i}.0.0/16")))
            .collect();
        let config = StemmingConfig {
            max_subseq_len: 2,
            ..StemmingConfig::default()
        };
        let result = Stemming::with_config(config).decompose(&stream);
        let top = &result.components()[0];
        assert_eq!(top.subsequence.len(), 2);
        assert_eq!(top.support, 5);
    }

    #[test]
    fn component_stream_extraction() {
        let stream: EventStream = (0..4)
            .map(|i| withdraw(i, 3, 66, "11423 209", &format!("10.{i}.0.0/16")))
            .collect();
        let result = Stemming::new().decompose(&stream);
        let sub = result.component_stream(&stream, 0);
        assert_eq!(sub.len(), result.components()[0].event_count());
    }

    /// The index holds each peer/hop/path sequence once and each prefix
    /// once. Under every rule, no trie node holds a prefix symbol, and a
    /// prefix has at most one leaf: its best suffix, which ends in it.
    /// Returns the index's trie nodes (the root included) and leaves.
    fn index_shape(events: &[Event], ranking: RankingRule) -> (usize, usize) {
        let config = StemmingConfig {
            ranking,
            min_support: 2,
            ..StemmingConfig::default()
        };
        let mut cache = EncodingCache::new();
        let mut window = Stemming::with_config(config).window(&mut cache, events, |_, _| 1);
        let prefix_events = &window.prefix_events;
        let is_prefix = |s: &Symbol| !prefix_events.get(s.index()).is_empty();
        let (counter, spell) = window.index.parts();
        let mut with_leaf = BTreeSet::new();
        let mut trie = 0;
        for (subseq, leaf) in counter.nodes(spell) {
            if leaf {
                let (last, body) = subseq.split_last().expect("a leaf is a suffix");
                assert!(is_prefix(last), "{ranking:?}: a leaf ends in its prefix");
                assert!(!body.iter().any(is_prefix), "{ranking:?}: {subseq:?}");
                assert!(with_leaf.insert(*last), "{ranking:?}: two leaves");
            } else {
                assert!(
                    !subseq.iter().any(is_prefix),
                    "{ranking:?}: a trie node holds a prefix: {subseq:?}"
                );
                trie += 1;
            }
        }
        assert_eq!(trie + with_leaf.len(), counter.node_count());
        (trie, with_leaf.len())
    }

    /// A churn window: 350 withdrawals, each for its own prefix, over 4
    /// peers × 32 paths.
    fn churn_window() -> Vec<Event> {
        (0..350u64)
            .map(|i| {
                let (peer, path) = ((i % 4) as u8, i / 4 % 32);
                withdraw(
                    i,
                    peer,
                    peer,
                    &format!("11423 {} {}", 209 + path % 4, 7000 + path),
                    &format!("10.{}.{}.0/24", i / 250, i % 250),
                )
            })
            .collect()
    }

    /// A 40,000-event session-flap window: 20,000 prefixes, each announced
    /// and withdrawn over one of 13 three-hop paths.
    fn flap_window() -> Vec<Event> {
        let flap = |t: u64, i: u64| {
            let event = withdraw(
                t,
                3,
                66,
                &format!("7018 209 {}", 300 + i % 13),
                &format!("20.{}.{}.0/24", i / 256, i % 256),
            );
            if t < 20_000 {
                Event::announce(event.time, event.peer, event.prefix, event.attrs)
            } else {
                event
            }
        };
        (0..20_000)
            .map(|i| flap(i, i))
            .chain((0..20_000).map(|i| flap(20_000 + i, i)))
            .collect()
    }

    /// The churn window indexes the nodes of its distinct peer/hop/path
    /// sequences; each prefix weighs 1, below `min_support` 2, so it gets a
    /// leaf only under `CoverageWeighted`, whose floor is 1. The flap window
    /// holds at most 20,100 nodes: a leaf per prefix on a trie of its 13
    /// sequences, where indexing every full sequence took 120,076.
    #[test]
    fn the_index_holds_only_what_can_win() {
        let churn = churn_window();
        let mut encoder = SequenceEncoder::new();
        let mut without_prefix = SubsequenceCounter::new(0);
        for event in &churn {
            let seq = encoder.encode(event);
            without_prefix.add(&seq[..seq.len() - 1]);
        }
        for ranking in RankingRule::ALL {
            let leaves = if ranking.count_ranks_first() { 0 } else { 350 };
            assert_eq!(
                index_shape(&churn, ranking),
                (without_prefix.node_count(), leaves),
                "{ranking:?}"
            );
        }

        let flaps = flap_window();
        let mut every_full_sequence = SubsequenceCounter::new(0);
        for event in &flaps {
            every_full_sequence.add(&encoder.encode(event));
        }
        assert_eq!(every_full_sequence.node_count(), 120_076);
        for ranking in RankingRule::ALL {
            let (trie, leaves) = index_shape(&flaps, ranking);
            assert_eq!(leaves, 20_000, "{ranking:?}");
            assert_eq!(trie, 76, "{ranking:?}");
            assert!(trie + leaves <= 20_100, "{ranking:?}");
        }
    }

    /// The encode work is per distinct (peer, nexthop, path), not per
    /// symbol. Interning every symbol of every event takes 240,000 element
    /// lookups on the flap window; through the encoding cache it encodes
    /// its 13 paths once each and looks up 40,000 prefixes, and a second
    /// window through the same cache encodes none. The churn window walks
    /// the trie once per distinct peer/hop/path sequence, not once per
    /// group, and a prepended or unshared copy of a path is the same path.
    #[test]
    fn each_path_is_encoded_and_walked_once() {
        let stemming = Stemming::new();
        let flaps = flap_window();
        let symbols: usize = flaps
            .iter()
            .map(|e| SequenceEncoder::new().encode(e).len())
            .sum();
        assert_eq!(symbols, 240_000);
        let mut cache = EncodingCache::new();
        drop(stemming.window(&mut cache, &flaps, |_, _| 1));
        assert_eq!((cache.encoded, cache.prefix_lookups), (13, 40_000));
        assert_eq!(cache.index().walks, 13);
        drop(stemming.window(&mut cache, &flaps, |_, _| 1));
        assert_eq!((cache.encoded, cache.prefix_lookups), (13, 80_000));
        assert_eq!(cache.index().walks, 13);

        let churn = churn_window();
        let mut encoder = SequenceEncoder::new();
        let distinct: BTreeSet<Vec<Symbol>> = churn
            .iter()
            .map(|e| {
                let mut seq = encoder.encode(e);
                seq.pop();
                seq
            })
            .collect();
        assert_eq!(distinct.len(), 128);
        let mut cache = EncodingCache::new();
        let window = stemming.window(&mut cache, &churn, |_, _| 1);
        assert_eq!(window.groups.len(), 350);
        drop(window);
        assert_eq!(cache.index().walks, 128);

        let copies = vec![
            withdraw(0, 1, 1, "11423 209 701", "10.0.0.0/8"),
            withdraw(1, 1, 1, "11423 11423 209 701 701", "10.0.0.0/8"),
            withdraw(2, 1, 1, "11423 209 701", "10.0.0.0/8"),
            withdraw(3, 1, 1, "11423 209 209 701", "10.1.0.0/16"),
        ];
        let mut cache = EncodingCache::new();
        let groups = stemming.window(&mut cache, &copies, |_, _| 1).groups.len();
        assert_eq!((cache.encoded, groups), (1, 2));
        assert_eq!(cache.index().walks, 1);
    }

    /// A window on paths the index has met before creates no trie node,
    /// no edge and no walk down the trie: it only holds and counts. So
    /// under a length cap too, where counting walks create the nodes past
    /// the cap.
    #[test]
    fn a_second_window_on_the_same_paths_builds_nothing() {
        for max_subseq_len in [0, 2] {
            let stemming = Stemming::with_config(StemmingConfig {
                max_subseq_len,
                ..StemmingConfig::default()
            });
            for events in [churn_window(), flap_window()] {
                let stream: EventStream = events.into_iter().collect();
                let mut cache = EncodingCache::new();
                let built = |cache: &EncodingCache| {
                    let index = cache.index();
                    (index.trie_nodes(), index.edge_count(), index.walks)
                };
                let first = stemming.decompose_cached(&mut cache, &stream, |_, _| 1);
                let after_first = built(&cache);
                let second = stemming.decompose_cached(&mut cache, &stream, |_, _| 1);
                assert_eq!(built(&cache), after_first, "cap {max_subseq_len}");
                assert_eq!(second.components(), first.components());
            }
        }
    }

    /// After a window of 20,000 prefixes, a 300-event window's scans —
    /// building the counts, heapifying the candidates, resetting — read no
    /// more nodes than the window touched: as many as on a cold index,
    /// though the warm trie holds more, and none of the 20,000 leaves.
    #[test]
    fn a_window_scans_only_what_it_touched() {
        let stemming = Stemming::new();
        let small: EventStream = churn_window().into_iter().take(300).collect();
        let scans = |cache: &mut EncodingCache| {
            let before = cache.index().scanned;
            stemming.decompose_cached(cache, &small, |_, _| 1);
            let after = cache.index().scanned;
            (
                after.materialize - before.materialize,
                after.heapify - before.heapify,
                after.reset - before.reset,
            )
        };
        let mut cold = EncodingCache::new();
        let (materialize, heapify, touched) = scans(&mut cold);
        assert!(materialize <= touched && heapify <= touched && touched > 0);

        let mut warm = EncodingCache::new();
        let churn: EventStream = churn_window().into_iter().collect();
        let flaps: EventStream = flap_window().into_iter().collect();
        stemming.decompose_cached(&mut warm, &churn, |_, _| 1);
        let before = warm.index().scanned.heapify;
        stemming.decompose_cached(&mut warm, &flaps, |_, _| 1);
        assert!(warm.index().scanned.heapify - before >= 20_000);
        assert!(warm.index().trie_nodes() > cold.index().trie_nodes());
        assert_eq!(scans(&mut warm), (materialize, heapify, touched));
    }

    #[test]
    fn report_mentions_stem() {
        let stream: EventStream = (0..4)
            .map(|i| withdraw(i, 3, 66, "11423 209", &format!("10.{i}.0.0/16")))
            .collect();
        let result = Stemming::new().decompose(&stream);
        let report = result.report();
        assert!(report.contains("11423-209"), "report was: {report}");
        assert!(report.contains("coverage"));
    }
}
