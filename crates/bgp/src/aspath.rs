//! Autonomous-system numbers and AS paths.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// An autonomous-system number (2-byte era, matching the paper's data).
///
/// ```
/// use bgpscope_bgp::Asn;
/// assert_eq!(Asn(11423).to_string(), "11423");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl Asn {
    /// The raw numeric value.
    #[inline]
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// An AS_PATH: the ordered sequence of ASes a route announcement traversed,
/// nearest AS first.
///
/// Prepending (an AS repeating itself to deprecate a path) is representable;
/// [`AsPath::hop_count`] counts path elements including repeats, which is what
/// the BGP decision process compares, while [`AsPath::unique_len`] counts
/// distinct ASes.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::{AsPath, Asn};
/// let p = AsPath::from_asns([Asn(11423), Asn(209), Asn(701), Asn(701)]);
/// assert_eq!(p.hop_count(), 4);
/// assert_eq!(p.unique_len(), 3);
/// assert_eq!(p.origin_as(), Some(Asn(701)));
/// assert_eq!(p.first_as(), Some(Asn(11423)));
/// ```
///
/// The ASNs live in one shared, immutable allocation: cloning a path — and
/// so an event, into the in-flight ring, a checkpoint or a recorded frame —
/// bumps a reference count instead of copying the hops. Equality, ordering
/// and hashing are the slice's, and the serialized form is a plain list.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AsPath {
    asns: Arc<[Asn]>,
}

impl AsPath {
    /// An empty AS path (a locally originated route).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path from an ordered iterator of ASNs, nearest-first. An
    /// iterator whose length is exact up front — a mapped range, a `Vec`,
    /// a slice — fills one allocation; any other is collected into a
    /// `Vec` first.
    pub fn from_asns<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        AsPath {
            asns: asns.into_iter().collect(),
        }
    }

    /// Builds a path from raw `u32` AS numbers, nearest-first.
    pub fn from_u32s<I: IntoIterator<Item = u32>>(asns: I) -> Self {
        AsPath::from_asns(asns.into_iter().map(Asn))
    }

    /// True for a locally originated route (no ASes on the path).
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Number of path elements, counting prepending repeats.
    pub fn hop_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of distinct ASes on the path.
    pub fn unique_len(&self) -> usize {
        let mut seen: Vec<Asn> = Vec::with_capacity(self.asns.len());
        for &a in self.asns.iter() {
            if !seen.contains(&a) {
                seen.push(a);
            }
        }
        seen.len()
    }

    /// The AS the announcement was most recently received from (leftmost).
    pub fn first_as(&self) -> Option<Asn> {
        self.asns.first().copied()
    }

    /// The AS that originated the route (rightmost).
    pub fn origin_as(&self) -> Option<Asn> {
        self.asns.last().copied()
    }

    /// The ordered ASNs, nearest-first.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Whether `asn` appears anywhere on the path (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns.contains(&asn)
    }

    /// Whether the adjacent pair `a -> b` appears on the path.
    ///
    /// Stemming locates failures on such pairs ("stems").
    pub fn contains_edge(&self, a: Asn, b: Asn) -> bool {
        self.asns.windows(2).any(|w| w[0] == a && w[1] == b)
    }

    /// Returns a new path with `asn` prepended (as done when an AS
    /// re-announces a route to an EBGP peer). Prepend `count` copies.
    pub fn prepended(&self, asn: Asn, count: usize) -> AsPath {
        AsPath::from_asns(std::iter::repeat_n(asn, count).chain(self.asns.iter().copied()))
    }

    /// Iterates over the ASNs nearest-first.
    pub fn iter(&self) -> std::slice::Iter<'_, Asn> {
        self.asns.iter()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in self.asns.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        if self.asns.is_empty() {
            write!(f, "<empty>")?;
        }
        Ok(())
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AsPath({self})")
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath::from_asns(iter)
    }
}

/// Appends by building a new path: the storage may be shared with clones,
/// which keep the old hops.
impl Extend<Asn> for AsPath {
    fn extend<T: IntoIterator<Item = Asn>>(&mut self, iter: T) {
        self.asns = self.asns.iter().copied().chain(iter).collect();
    }
}

impl<'a> IntoIterator for &'a AsPath {
    type Item = &'a Asn;
    type IntoIter = std::slice::Iter<'a, Asn>;
    fn into_iter(self) -> Self::IntoIter {
        self.asns.iter()
    }
}

/// Parses a space-separated AS path, e.g. `"11423 209 701"`.
impl FromStr for AsPath {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Counting the tokens first sizes the path up front: it is
        // allocated once and parsed in place.
        let mut asns: Arc<[Asn]> = (0..s.split_whitespace().count()).map(|_| Asn(0)).collect();
        let slots = Arc::get_mut(&mut asns).expect("a fresh Arc has no other owner");
        for (slot, tok) in slots.iter_mut().zip(s.split_whitespace()) {
            *slot = Asn(tok.parse()?);
        }
        Ok(AsPath { asns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse() {
        let p: AsPath = "11423 209 701 1299 5713".parse().unwrap();
        assert_eq!(p.to_string(), "11423 209 701 1299 5713");
        assert_eq!(p.hop_count(), 5);
        assert_eq!(p.first_as(), Some(Asn(11423)));
        assert_eq!(p.origin_as(), Some(Asn(5713)));
    }

    #[test]
    fn empty_path_is_local() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.origin_as(), None);
        assert_eq!(p.to_string(), "<empty>");
    }

    #[test]
    fn prepending_counts_hops_not_uniques() {
        let p: AsPath = "701 1299".parse().unwrap();
        let q = p.prepended(Asn(7018), 3);
        assert_eq!(q.to_string(), "7018 7018 7018 701 1299");
        assert_eq!(q.hop_count(), 5);
        assert_eq!(q.unique_len(), 3);
    }

    #[test]
    fn edges() {
        let p: AsPath = "11423 209 7018 13606".parse().unwrap();
        assert!(p.contains_edge(Asn(11423), Asn(209)));
        assert!(p.contains_edge(Asn(209), Asn(7018)));
        assert!(!p.contains_edge(Asn(209), Asn(13606)));
        assert!(!p.contains_edge(Asn(13606), Asn(7018)));
    }

    #[test]
    fn loop_detection() {
        let p: AsPath = "11423 209 701".parse().unwrap();
        assert!(p.contains(Asn(209)));
        assert!(!p.contains(Asn(3356)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("11423 banana".parse::<AsPath>().is_err());
    }

    #[test]
    fn clones_share_storage() {
        let p: AsPath = "11423 209 701".parse().unwrap();
        let q = p.clone();
        assert!(std::ptr::eq(p.asns().as_ptr(), q.asns().as_ptr()));
        assert_eq!(p, q);
    }

    #[test]
    fn extend_appends_and_leaves_clones_alone() {
        let mut p: AsPath = "11423 209".parse().unwrap();
        let before = p.clone();
        p.extend([Asn(701), Asn(1299)]);
        assert_eq!(p.to_string(), "11423 209 701 1299");
        assert_eq!(before.to_string(), "11423 209");
    }
}
