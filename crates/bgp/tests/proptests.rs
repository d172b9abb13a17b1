//! Property-based tests for the BGP data model.

use proptest::prelude::*;

use bgpscope_bgp::{
    AdjRibIn, AsPath, Asn, AttrTable, Community, EventStream, PathAttributes, Prefix, PrefixTrie,
    RouterId, Timestamp,
};
use bgpscope_bgp::{Event, PeerId};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(addr, len))
}

fn arb_aspath() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(1u32..65000, 0..8).prop_map(AsPath::from_u32s)
}

proptest! {
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn prefix_host_bits_always_zero(p in arb_prefix()) {
        prop_assert_eq!(p.addr() & !Prefix::mask(p.len()), 0);
    }

    #[test]
    fn prefix_contains_its_own_network(p in arb_prefix()) {
        prop_assert!(p.contains_addr(p.addr()));
        prop_assert!(p.covers(&p));
    }

    #[test]
    fn split_children_partition_parent(p in arb_prefix()) {
        if let Some((lo, hi)) = p.split() {
            prop_assert!(p.covers(&lo));
            prop_assert!(p.covers(&hi));
            prop_assert!(!lo.covers(&hi));
            prop_assert!(!hi.covers(&lo));
            prop_assert_eq!(lo.len(), p.len() + 1);
        }
    }

    #[test]
    fn aspath_display_parse_roundtrip(path in arb_aspath()) {
        if !path.is_empty() {
            let s = path.to_string();
            let q: AsPath = s.parse().unwrap();
            prop_assert_eq!(path, q);
        }
    }

    #[test]
    fn aspath_prepend_preserves_suffix(path in arb_aspath(), asn in 1u32..65000, count in 1usize..4) {
        let q = path.prepended(Asn(asn), count);
        prop_assert_eq!(q.hop_count(), path.hop_count() + count);
        prop_assert_eq!(q.first_as(), Some(Asn(asn)));
        prop_assert_eq!(&q.asns()[count..], path.asns());
    }

    #[test]
    fn aspath_unique_len_bounds(path in arb_aspath()) {
        prop_assert!(path.unique_len() <= path.hop_count());
        if !path.is_empty() {
            prop_assert!(path.unique_len() >= 1);
        }
    }

    #[test]
    fn community_roundtrip(a in any::<u16>(), v in any::<u16>()) {
        let c = Community::new(a, v);
        prop_assert_eq!(c.asn_part(), a);
        prop_assert_eq!(c.value_part(), v);
        let parsed: Community = c.to_string().parse().unwrap();
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn communities_sorted_unique_under_random_ops(ops in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..40)) {
        let mut attrs = PathAttributes::new(RouterId(0), AsPath::empty());
        for (a, v, add) in ops {
            let c = Community::new(a, v);
            if add {
                attrs.add_community(c);
            } else {
                attrs.remove_community(c);
            }
            prop_assert!(attrs.communities.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn adj_rib_in_withdraw_returns_last_announced(
        announcements in proptest::collection::vec((arb_prefix(), arb_aspath()), 1..30)
    ) {
        let mut table = AttrTable::new();
        let mut rib = AdjRibIn::new();
        let mut last = std::collections::HashMap::new();
        for (p, path) in &announcements {
            let attrs = PathAttributes::new(RouterId(1), path.clone());
            if let Some(old) = rib.announce(*p, table.intern(&attrs)) {
                table.release(old);
            }
            last.insert(*p, attrs);
        }
        prop_assert_eq!(rib.len(), last.len());
        for (p, attrs) in last {
            let old = rib.withdraw(p).map(|id| table.take(id));
            prop_assert_eq!(old, Some(attrs));
        }
        prop_assert!(rib.is_empty());
        prop_assert!(table.is_empty());
    }

    #[test]
    fn trie_longest_match_agrees_with_linear_scan(
        entries in proptest::collection::vec(arb_prefix(), 1..40),
        addr in any::<u32>(),
    ) {
        let trie: PrefixTrie<usize> = entries.iter().copied().zip(0..).collect();
        let expected = entries
            .iter()
            .filter(|p| p.contains_addr(addr))
            .max_by_key(|p| p.len());
        let got = trie.longest_match_addr(addr).map(|(p, _)| p);
        prop_assert_eq!(got.map(|p| p.len()), expected.map(|p| p.len()));
        if let (Some(g), Some(_)) = (got, expected) {
            prop_assert!(g.contains_addr(addr));
        }
    }

    #[test]
    fn event_stream_window_contains_only_range(times in proptest::collection::vec(0u64..1000, 1..50), lo in 0u64..1000, width in 0u64..1000) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let stream: EventStream = sorted
            .iter()
            .map(|&t| Event::announce(
                Timestamp::from_secs(t),
                PeerId::from_octets(1, 1, 1, 1),
                Prefix::from_octets(10, 0, 0, 0, 8),
                PathAttributes::new(RouterId(1), AsPath::empty()),
            ))
            .collect();
        let start = Timestamp::from_secs(lo);
        let end = Timestamp::from_secs(lo + width);
        let w = stream.window(start, end);
        for e in &w {
            prop_assert!(e.time >= start && e.time < end);
        }
        let expected = sorted.iter().filter(|&&t| t >= lo && t < lo + width).count();
        prop_assert_eq!(w.len(), expected);
    }
}
