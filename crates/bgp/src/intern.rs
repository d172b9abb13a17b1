//! Symbol interning shared by TAMP and Stemming.
//!
//! Both algorithms treat a BGP event as a sequence of *elements* — collector
//! peer, BGP nexthop, the ASes on the path, and the prefix. Interning each
//! element to a dense `u32` keeps the Stemming hot loop allocation-free and
//! lets TAMP store prefix sets as integer sets.
//!
//! Elements come from routes a peer announces, so the forward map is a
//! [`ProbeMap`]: an unkeyed home slot and a bounded probe, with a keyed
//! overflow for keys that collide (the HashDoS bound is in
//! [`crate::probe`]).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::{Prefix, RouterId};
use crate::aspath::Asn;
use crate::message::PeerId;
use crate::probe::ProbeMap;

/// What kind of network element a [`Symbol`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SymbolKind {
    /// A collector peer (`x` in the paper's sequence).
    Peer,
    /// A BGP NEXT_HOP (`h`).
    Nexthop,
    /// An autonomous system (`a1 … an`).
    As,
    /// A prefix (`p`).
    Prefix,
}

impl fmt::Display for SymbolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SymbolKind::Peer => "peer",
            SymbolKind::Nexthop => "nexthop",
            SymbolKind::As => "as",
            SymbolKind::Prefix => "prefix",
        };
        write!(f, "{s}")
    }
}

/// The identity of an interned element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Element {
    /// A collector peer.
    Peer(PeerId),
    /// A BGP NEXT_HOP address.
    Nexthop(RouterId),
    /// An AS number.
    As(Asn),
    /// An IPv4 prefix.
    Prefix(Prefix),
}

impl Element {
    /// The kind tag of this element.
    pub fn kind(&self) -> SymbolKind {
        match self {
            Element::Peer(_) => SymbolKind::Peer,
            Element::Nexthop(_) => SymbolKind::Nexthop,
            Element::As(_) => SymbolKind::As,
            Element::Prefix(_) => SymbolKind::Prefix,
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Peer(p) => write!(f, "{p}"),
            Element::Nexthop(h) => write!(f, "{h}"),
            Element::As(a) => write!(f, "{a}"),
            Element::Prefix(p) => write!(f, "{p}"),
        }
    }
}

/// A dense interned id for an [`Element`].
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; resolve back with [`Interner::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw dense index.
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional map between [`Element`]s and dense [`Symbol`]s, numbered
/// in order of first appearance.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::intern::{Element, Interner};
/// use bgpscope_bgp::Asn;
///
/// let mut interner = Interner::new();
/// let s1 = interner.intern(Element::As(Asn(209)));
/// let s2 = interner.intern(Element::As(Asn(209)));
/// assert_eq!(s1, s2);
/// assert_eq!(interner.resolve(s1), Element::As(Asn(209)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    forward: ProbeMap<Element, Symbol>,
    reverse: Vec<Element>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty interner that holds `capacity` elements before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Interner {
            forward: ProbeMap::with_capacity(capacity),
            reverse: Vec::with_capacity(capacity),
        }
    }

    /// Interns `element`, returning its stable symbol: the next unused one
    /// if `element` is new. One probe either way.
    pub fn intern(&mut self, element: Element) -> Symbol {
        let reverse = &mut self.reverse;
        self.forward.get_or_insert_with(&element, || {
            let sym = Symbol(reverse.len() as u32);
            reverse.push(element);
            sym
        })
    }

    /// Looks up the symbol for an element without interning it.
    pub fn get(&self, element: &Element) -> Option<Symbol> {
        self.forward.get(element)
    }

    /// Resolves a symbol back to its element.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> Element {
        self.reverse[sym.index()]
    }

    /// Resolves a symbol if it belongs to this interner.
    pub fn try_resolve(&self, sym: Symbol) -> Option<Element> {
        self.reverse.get(sym.index()).copied()
    }

    /// Number of interned elements.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Convenience: intern a peer.
    pub fn peer(&mut self, p: PeerId) -> Symbol {
        self.intern(Element::Peer(p))
    }

    /// Convenience: intern a nexthop.
    pub fn nexthop(&mut self, h: RouterId) -> Symbol {
        self.intern(Element::Nexthop(h))
    }

    /// Convenience: intern an AS.
    pub fn asn(&mut self, a: Asn) -> Symbol {
        self.intern(Element::As(a))
    }

    /// Convenience: intern a prefix.
    pub fn prefix(&mut self, p: Prefix) -> Symbol {
        self.intern(Element::Prefix(p))
    }

    /// Renders a symbol for humans; one this interner never produced renders
    /// as `?sym<n>`.
    pub fn display(&self, sym: Symbol) -> String {
        render(&self.reverse, &[sym])
    }
}

/// Renders `syms` joined by `-` into one string, each resolved against
/// `elements` (`?sym<n>` when out of range). Every rendered symbol goes
/// through here: a single one, a stem, a common portion.
fn render(elements: &[Element], syms: &[Symbol]) -> String {
    use fmt::Write;
    // A rendered dotted quad is at most 15 bytes; the rest are shorter.
    let mut out = String::with_capacity(syms.len() * 16);
    for (i, &sym) in syms.iter().enumerate() {
        if i > 0 {
            out.push('-');
        }
        let written = match elements.get(sym.index()) {
            Some(element) => write!(out, "{element}"),
            None => write!(out, "?sym{}", sym.0),
        };
        written.expect("writing to a String cannot fail");
    }
    out
}

/// A read-only snapshot view of an [`Interner`] suitable for sharing with
/// analysis results that outlive the mutation phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    reverse: Vec<Element>,
}

impl SymbolTable {
    /// Resolves a symbol, if known.
    pub fn resolve(&self, sym: Symbol) -> Option<Element> {
        self.reverse.get(sym.index()).copied()
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when no symbols are recorded.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Renders a symbol for humans.
    pub fn display(&self, sym: Symbol) -> String {
        render(&self.reverse, &[sym])
    }

    /// Renders `syms` joined by `-` into one string — `11423-209-701` — the
    /// form a stem and a common portion take in a report.
    pub fn render(&self, syms: &[Symbol]) -> String {
        render(&self.reverse, syms)
    }
}

impl From<&Interner> for SymbolTable {
    fn from(i: &Interner) -> Self {
        SymbolTable {
            reverse: i.reverse.clone(),
        }
    }
}

impl From<Interner> for SymbolTable {
    fn from(i: Interner) -> Self {
        SymbolTable { reverse: i.reverse }
    }
}

/// Symbol `n` is `elements[n]`: a table numbered elsewhere, as Stemming
/// numbers a window's symbols through its encoding cache.
impl From<Vec<Element>> for SymbolTable {
    fn from(reverse: Vec<Element>) -> Self {
        SymbolTable { reverse }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.asn(Asn(209));
        let b = i.asn(Asn(701));
        let a2 = i.asn(Asn(209));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn same_value_different_kind_distinct() {
        // A peer at 10.0.0.1 and a nexthop at 10.0.0.1 are different symbols.
        let mut i = Interner::new();
        let r = RouterId::from_octets(10, 0, 0, 1);
        let p = i.peer(PeerId(r));
        let h = i.nexthop(r);
        assert_ne!(p, h);
        assert_eq!(i.resolve(p).kind(), SymbolKind::Peer);
        assert_eq!(i.resolve(h).kind(), SymbolKind::Nexthop);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let px: Prefix = "4.5.0.0/16".parse().unwrap();
        let s = i.prefix(px);
        assert_eq!(i.resolve(s), Element::Prefix(px));
        assert_eq!(i.display(s), "4.5.0.0/16");
        assert_eq!(i.try_resolve(Symbol(99)), None);
        assert_eq!(i.display(Symbol(99)), "?sym99");
    }

    #[test]
    fn snapshot_table() {
        let mut i = Interner::new();
        let s = i.asn(Asn(11423));
        let t: SymbolTable = (&i).into();
        assert_eq!(t.resolve(s), Some(Element::As(Asn(11423))));
        assert_eq!(t.len(), 1);
        assert_eq!(t.display(s), "11423");
    }

    #[test]
    fn render_joins_with_dashes() {
        let mut i = Interner::with_capacity(4);
        let peer = i.peer(PeerId(RouterId::from_octets(128, 32, 1, 3)));
        let asn = i.asn(Asn(209));
        let px = i.prefix("12.2.41.0/24".parse().unwrap());
        let t: SymbolTable = i.into();
        assert_eq!(
            t.render(&[peer, asn, px, Symbol(7)]),
            "128.32.1.3-209-12.2.41.0/24-?sym7"
        );
        assert_eq!(t.render(&[]), "");
    }
}
