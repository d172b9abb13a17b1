//! A multiset of interned prefixes with O(1) distinct-count queries.
//!
//! TAMP edge weights are *unique* prefix counts, but the same prefix can be
//! carried over one edge by several routes (different routers' trees merge
//! onto shared edges, and during animation a prefix may be announced via one
//! tree while still present in another). A plain set cannot support removal;
//! a refcounted bag can.
//!
//! Representation: a realistic merged graph has a heavy-tailed edge
//! population — a few near-root edges carry 10^5 prefixes while hundreds of
//! thousands of deep edges carry a handful. The bag therefore starts as a
//! small inline vector of `(prefix, refcount)` pairs and spills to a
//! `HashMap` only past `SPILL_THRESHOLD` entries, which keeps the common
//! case allocation-light. (This is the "hybrid vs plain HashMap" design
//! choice of DESIGN.md §4, decision 3; EXPERIMENTS.md's Table I(b) notes
//! what the plain map cost on the 1.5M-route picture.)

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Distinct-entry count at which a bag trades its inline vector for a map.
const SPILL_THRESHOLD: usize = 12;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Repr {
    /// Sorted-by-insertion small vector of `(prefix_id, refcount)`.
    Small(Vec<(u32, u32)>),
    /// Spilled representation for heavy edges.
    Large(HashMap<u32, u32>),
}

/// A refcounted bag of interned prefix ids.
///
/// ```
/// use bgpscope_tamp::PrefixBag;
///
/// let mut bag = PrefixBag::new();
/// bag.insert(7);
/// bag.insert(7);
/// bag.insert(9);
/// assert_eq!(bag.distinct(), 2);
/// bag.remove(7);
/// assert_eq!(bag.distinct(), 2); // one ref left
/// bag.remove(7);
/// assert_eq!(bag.distinct(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixBag {
    repr: Repr,
}

impl Default for PrefixBag {
    fn default() -> Self {
        PrefixBag {
            repr: Repr::Small(Vec::new()),
        }
    }
}

impl PrefixBag {
    /// An empty bag.
    pub fn new() -> Self {
        PrefixBag::default()
    }

    fn spill(&mut self) {
        if let Repr::Small(v) = &self.repr {
            let map: HashMap<u32, u32> = v.iter().copied().collect();
            self.repr = Repr::Large(map);
        }
    }

    /// Adds one reference to `prefix_id`; returns `true` if the prefix was
    /// not previously present (the distinct count grew).
    pub fn insert(&mut self, prefix_id: u32) -> bool {
        match &mut self.repr {
            Repr::Small(v) => {
                if let Some(entry) = v.iter_mut().find(|(p, _)| *p == prefix_id) {
                    entry.1 += 1;
                    return false;
                }
                v.push((prefix_id, 1));
                if v.len() > SPILL_THRESHOLD {
                    self.spill();
                }
                true
            }
            Repr::Large(m) => {
                let count = m.entry(prefix_id).or_insert(0);
                *count += 1;
                *count == 1
            }
        }
    }

    /// Drops one reference; returns `true` if the prefix is now absent
    /// (the distinct count shrank). Removing an absent prefix is a no-op.
    pub fn remove(&mut self, prefix_id: u32) -> bool {
        match &mut self.repr {
            Repr::Small(v) => match v.iter().position(|(p, _)| *p == prefix_id) {
                Some(i) if v[i].1 > 1 => {
                    v[i].1 -= 1;
                    false
                }
                Some(i) => {
                    v.swap_remove(i);
                    true
                }
                None => false,
            },
            Repr::Large(m) => match m.get_mut(&prefix_id) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    false
                }
                Some(_) => {
                    m.remove(&prefix_id);
                    true
                }
                None => false,
            },
        }
    }

    /// Number of distinct prefixes in the bag (the TAMP edge weight).
    #[inline]
    pub fn distinct(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len(),
            Repr::Large(m) => m.len(),
        }
    }

    /// Whether the bag holds at least one reference to `prefix_id`.
    pub fn contains(&self, prefix_id: u32) -> bool {
        self.ref_count(prefix_id) > 0
    }

    /// The reference count for `prefix_id`.
    pub fn ref_count(&self, prefix_id: u32) -> u32 {
        match &self.repr {
            Repr::Small(v) => v
                .iter()
                .find(|(p, _)| *p == prefix_id)
                .map(|&(_, c)| c)
                .unwrap_or(0),
            Repr::Large(m) => m.get(&prefix_id).copied().unwrap_or(0),
        }
    }

    /// True if the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.distinct() == 0
    }

    /// Iterates over distinct prefix ids in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (small, large) = match &self.repr {
            Repr::Small(v) => (Some(v.iter().map(|&(p, _)| p)), None),
            Repr::Large(m) => (None, Some(m.keys().copied())),
        };
        small
            .into_iter()
            .flatten()
            .chain(large.into_iter().flatten())
    }

    /// Absorbs all references from `other` (graph merge).
    pub fn absorb(&mut self, other: &PrefixBag) {
        match &other.repr {
            Repr::Small(v) => {
                for &(p, c) in v {
                    for _ in 0..c {
                        self.insert(p);
                    }
                }
            }
            Repr::Large(m) => {
                self.spill();
                let Repr::Large(own) = &mut self.repr else {
                    unreachable!("just spilled")
                };
                for (&p, &c) in m {
                    *own.entry(p).or_insert(0) += c;
                }
            }
        }
    }

    /// Distinct count of the union with `other` without materializing it.
    pub fn union_distinct(&self, other: &PrefixBag) -> usize {
        let (small, large) = if self.distinct() <= other.distinct() {
            (self, other)
        } else {
            (other, self)
        };
        let overlap = small.iter().filter(|&p| large.contains(p)).count();
        self.distinct() + other.distinct() - overlap
    }
}

impl FromIterator<u32> for PrefixBag {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut bag = PrefixBag::new();
        for id in iter {
            bag.insert(id);
        }
        bag
    }
}

impl Extend<u32> for PrefixBag {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_refcounts() {
        let mut bag = PrefixBag::new();
        assert!(bag.insert(1));
        assert!(!bag.insert(1));
        assert_eq!(bag.ref_count(1), 2);
        assert!(!bag.remove(1));
        assert!(bag.remove(1));
        assert!(!bag.remove(1)); // absent: no-op
        assert!(bag.is_empty());
    }

    #[test]
    fn distinct_is_set_semantics() {
        let bag: PrefixBag = [1, 1, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(bag.distinct(), 3);
        assert!(bag.contains(2));
        assert!(!bag.contains(9));
    }

    #[test]
    fn absorb_merges_counts() {
        let mut a: PrefixBag = [1, 2].into_iter().collect();
        let b: PrefixBag = [2, 3].into_iter().collect();
        a.absorb(&b);
        assert_eq!(a.distinct(), 3);
        assert_eq!(a.ref_count(2), 2);
    }

    #[test]
    fn union_distinct_counts_overlap_once() {
        let a: PrefixBag = [1, 2, 3].into_iter().collect();
        let b: PrefixBag = [2, 3, 4].into_iter().collect();
        assert_eq!(a.union_distinct(&b), 4);
        assert_eq!(b.union_distinct(&a), 4);
        assert_eq!(a.union_distinct(&PrefixBag::new()), 3);
    }

    #[test]
    fn spill_preserves_semantics() {
        // Cross the spill threshold and keep checking invariants.
        let mut bag = PrefixBag::new();
        for i in 0..100u32 {
            assert!(bag.insert(i));
            assert!(!bag.insert(i)); // second ref
        }
        assert_eq!(bag.distinct(), 100);
        for i in 0..100u32 {
            assert_eq!(bag.ref_count(i), 2);
            assert!(!bag.remove(i));
            assert!(bag.remove(i));
        }
        assert!(bag.is_empty());
    }

    #[test]
    fn absorb_small_into_large_and_back() {
        let large: PrefixBag = (0..50u32).collect();
        let mut small: PrefixBag = [1, 2].into_iter().collect();
        small.absorb(&large);
        assert_eq!(small.distinct(), 50);
        assert_eq!(small.ref_count(1), 2);

        let mut large2: PrefixBag = (0..50u32).collect();
        let tiny: PrefixBag = [0, 99].into_iter().collect();
        large2.absorb(&tiny);
        assert_eq!(large2.distinct(), 51);
        assert_eq!(large2.ref_count(0), 2);
    }

    #[test]
    fn iter_covers_both_reprs() {
        let small: PrefixBag = [5, 6].into_iter().collect();
        let mut got: Vec<u32> = small.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![5, 6]);

        let large: PrefixBag = (0..40u32).collect();
        assert_eq!(large.iter().count(), 40);
    }
}
