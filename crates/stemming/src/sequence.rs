//! Turning BGP events into symbol sequences.
//!
//! An event from peer `x` for prefix `p` with nexthop `h` and AS path
//! `a1 … an` becomes the sequence `c = x h a1 … an p`. Consecutive duplicate
//! ASes (prepending) are collapsed: `701 701 701` contributes the single
//! element `701`, since prepending repeats carry no extra location
//! information and would distort sub-sequence counts.

use bgpscope_bgp::intern::{Element, Interner, Symbol};
use bgpscope_bgp::Event;

/// Encodes events into interned symbol sequences, owning the interner:
/// symbol by symbol, in order of first appearance. The reference
/// decomposition encodes this way; the shipped one goes through an
/// [`EncodingCache`](crate::EncodingCache), which numbers a window's
/// symbols the same.
#[derive(Debug, Default)]
pub struct SequenceEncoder {
    interner: Interner,
}

impl SequenceEncoder {
    /// A fresh encoder with an empty symbol table.
    pub fn new() -> Self {
        SequenceEncoder::default()
    }

    /// Encodes one event into its sequence `x h a1 … an p`.
    pub fn encode(&mut self, event: &Event) -> Vec<Symbol> {
        sequence_of(event, &mut self.interner)
    }

    /// The interner accumulated so far.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Consumes the encoder, returning the interner.
    pub fn into_interner(self) -> Interner {
        self.interner
    }
}

/// Encodes `event` into its symbol sequence using `interner`.
///
/// The sequence is `[peer, nexthop, as1, …, asn, prefix]` with consecutive
/// duplicate ASes collapsed.
pub fn sequence_of(event: &Event, interner: &mut Interner) -> Vec<Symbol> {
    let mut seq = Vec::with_capacity(event.attrs.as_path.asns().len() + 3);
    seq.push(interner.intern(Element::Peer(event.peer)));
    seq.push(interner.intern(Element::Nexthop(event.attrs.next_hop)));
    let mut prev = None;
    for &asn in event.attrs.as_path.asns() {
        if prev == Some(asn) {
            continue;
        }
        seq.push(interner.intern(Element::As(asn)));
        prev = Some(asn);
    }
    seq.push(interner.intern(Element::Prefix(event.prefix)));
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::{PathAttributes, PeerId, RouterId, Timestamp};

    fn event(path: &str, prefix: &str) -> Event {
        Event::announce(
            Timestamp::ZERO,
            PeerId::from_octets(128, 32, 1, 3),
            prefix.parse().unwrap(),
            PathAttributes::new(RouterId::from_octets(128, 32, 0, 66), path.parse().unwrap()),
        )
    }

    #[test]
    fn sequence_shape() {
        let mut enc = SequenceEncoder::new();
        let seq = enc.encode(&event("11423 209 701", "10.0.0.0/8"));
        assert_eq!(seq.len(), 6); // peer + hop + 3 ASes + prefix
        let shown: Vec<String> = seq.iter().map(|&s| enc.interner().display(s)).collect();
        assert_eq!(
            shown,
            vec![
                "128.32.1.3",
                "128.32.0.66",
                "11423",
                "209",
                "701",
                "10.0.0.0/8"
            ]
        );
    }

    #[test]
    fn prepending_collapses() {
        let mut enc = SequenceEncoder::new();
        let seq = enc.encode(&event("701 701 701 1299", "10.0.0.0/8"));
        // peer + hop + 701 + 1299 + prefix = 5
        assert_eq!(seq.len(), 5);
    }

    #[test]
    fn nonconsecutive_duplicates_survive() {
        // A path like 1 2 1 keeps both 1s: they are distinct positions.
        let mut enc = SequenceEncoder::new();
        let seq = enc.encode(&event("1 2 1", "10.0.0.0/8"));
        assert_eq!(seq.len(), 6);
        assert_eq!(seq[2], seq[4]);
    }

    #[test]
    fn shared_symbols_across_events() {
        let mut enc = SequenceEncoder::new();
        let a = enc.encode(&event("11423 209 701", "10.0.0.0/8"));
        let b = enc.encode(&event("11423 209 7018", "10.1.0.0/16"));
        assert_eq!(a[0], b[0]); // same peer symbol
        assert_eq!(a[2], b[2]); // same 11423
        assert_eq!(a[3], b[3]); // same 209
        assert_ne!(a[4], b[4]);
    }

    #[test]
    fn empty_as_path_local_route() {
        let mut enc = SequenceEncoder::new();
        let seq = enc.encode(&event("", "10.0.0.0/8"));
        assert_eq!(seq.len(), 3); // peer, hop, prefix
    }
}
