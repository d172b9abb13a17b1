//! The interner against a first-appearance oracle that shares no code with
//! it: a `Vec<Element>` scanned from the front, where symbol `n` is the `n`th
//! distinct element seen. Stemming's rank tie-breaks and every rendered
//! report depend on that numbering, and the Stemming differential cannot see
//! it change (its reference encodes through the same `SequenceEncoder`).

use std::sync::OnceLock;

use proptest::prelude::*;

use bgpscope_bgp::intern::{Element, Interner, Symbol};
use bgpscope_bgp::probe::{hash_of, PROBES};
use bgpscope_bgp::{Asn, PeerId, Prefix, RouterId};

/// The oracle.
#[derive(Default)]
struct FirstAppearance(Vec<Element>);

impl FirstAppearance {
    fn get(&self, element: &Element) -> Option<Symbol> {
        let at = self.0.iter().position(|seen| seen == element)?;
        Some(Symbol(at as u32))
    }

    fn intern(&mut self, element: Element) -> Symbol {
        self.get(&element).unwrap_or_else(|| {
            self.0.push(element);
            Symbol(self.0.len() as u32 - 1)
        })
    }
}

/// The colliding elements share this many top hash bits, so they share a
/// home slot in every table of up to 4,096 slots.
const SHARED_BITS: u32 = 12;

/// A capacity that holds every stream below without growing.
const PRESIZED: usize = 400;

/// Twice a probe window of elements of every kind sharing one home slot,
/// found by brute force: feeding them runs the overflow, and growth with
/// entries in the overflow.
fn colliding() -> &'static [Element] {
    static FOUND: OnceLock<Vec<Element>> = OnceLock::new();
    FOUND.get_or_init(|| {
        let home = |element: &Element| hash_of(element) >> (u64::BITS - SHARED_BITS);
        let element = |n: u32| match n % 4 {
            0 => Element::Peer(PeerId(RouterId(n))),
            1 => Element::Nexthop(RouterId(n)),
            2 => Element::As(Asn(n)),
            _ => Element::Prefix(Prefix::new(n << 8, 24)),
        };
        let target = home(&element(0));
        (0..)
            .map(element)
            .filter(|e| home(e) == target)
            .take(2 * PROBES)
            .collect()
    })
}

/// Random elements from small ranges, so a stream repeats itself, with one
/// in four drawn from the colliding ones.
fn arb_element() -> impl Strategy<Value = Element> {
    prop_oneof![
        2 => (0u32..8).prop_map(|n| Element::Peer(PeerId(RouterId(n)))),
        2 => (0u32..8).prop_map(|n| Element::Nexthop(RouterId(n))),
        4 => (0u32..40).prop_map(|n| Element::As(Asn(n))),
        4 => (0u32..40, 8u8..=32).prop_map(|(a, len)| Element::Prefix(Prefix::new(a << 8, len))),
        4 => (0..2 * PROBES).prop_map(|i| colliding()[i]),
    ]
}

/// Interns `stream` into an interner of `capacity` and into the oracle,
/// comparing every answer on the way and every symbol at the end.
fn check(capacity: usize, stream: &[Element]) {
    let mut interner = Interner::with_capacity(capacity);
    let mut oracle = FirstAppearance::default();
    for &element in stream {
        assert_eq!(interner.get(&element), oracle.get(&element), "{element:?}");
        assert_eq!(interner.intern(element), oracle.intern(element));
        assert_eq!(interner.len(), oracle.0.len());
    }
    for (at, &element) in oracle.0.iter().enumerate() {
        let sym = Symbol(at as u32);
        assert_eq!(interner.resolve(sym), element);
        assert_eq!(interner.get(&element), Some(sym));
    }
    assert_eq!(interner.try_resolve(Symbol(oracle.0.len() as u32)), None);
}

#[test]
fn colliding_elements_number_in_first_appearance_order() {
    let clash = colliding();
    assert_eq!(clash.len(), 2 * PROBES);
    let stream: Vec<Element> = clash.iter().chain(clash.iter().rev()).copied().collect();
    for capacity in [0, 1, PRESIZED] {
        check(capacity, &stream);
    }
}

proptest! {
    #[test]
    fn interner_numbers_in_first_appearance_order(
        stream in proptest::collection::vec(arb_element(), 0..300),
    ) {
        // Every colliding element at least once, after the random ones.
        let stream: Vec<Element> = stream.into_iter().chain(colliding().iter().copied()).collect();
        for capacity in [0, 1, PRESIZED] {
            check(capacity, &stream);
        }
    }
}
