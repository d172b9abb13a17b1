//! BGP data model for `bgpscope`.
//!
//! This crate is the foundation of the workspace: it defines IPv4 prefixes,
//! autonomous-system numbers, AS paths, the BGP path attributes used by the
//! DSN'05 paper (NEXT_HOP, LOCAL_PREF, MED, communities, origin), UPDATE
//! messages, per-peer Adj-RIB-Ins of ids into one attribute table, a
//! Loc-RIB with the full best-path decision process (including the RFC 3345
//! MED comparison rules that make persistent route oscillation possible), a
//! longest-match prefix trie, and a global symbol interner shared by the
//! TAMP and Stemming algorithms.
//!
//! # Example
//!
//! ```
//! use bgpscope_bgp::{Prefix, AsPath, Asn};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p: Prefix = "192.0.2.0/24".parse()?;
//! assert_eq!(p.len(), 24);
//! let path = AsPath::from_asns([Asn(11423), Asn(209), Asn(701)]);
//! assert_eq!(path.hop_count(), 3);
//! assert!(path.contains_edge(Asn(11423), Asn(209)));
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod aspath;
pub mod attrs;
pub mod damping;
pub mod decision;
pub mod event;
pub mod intern;
pub mod message;
pub mod probe;
pub mod rib;
pub mod trie;

pub use addr::{Ipv4Net, ParsePrefixError, Prefix, RouterId};
pub use aspath::{AsPath, Asn};
pub use attrs::{Community, LocalPref, Med, Origin, PathAttributes};
pub use damping::{DampingConfig, FlapDamper};
pub use decision::{BestPathReason, DecisionConfig, DecisionProcess};
pub use event::{Event, EventKind, EventStream, Timestamp};
pub use intern::{Interner, Symbol, SymbolKind, SymbolTable};
pub use message::{PeerId, UpdateMessage};
pub use rib::{AdjRibIn, AttrId, AttrTable, LocRib, Route, RouteKey};
pub use trie::PrefixTrie;

/// SplitMix64: the workspace's one seed-derivation / keyed-hash mix (retry
/// jitter in ingest, short-read scatter in the MRT fault reader, netsim's
/// seed streams and tie-break keys). Deterministic streams depend on these
/// exact constants.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
