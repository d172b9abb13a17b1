//! The **Stemming** algorithm (DSN'05 §III-B): anomaly detection by finding
//! the most strongly correlated components in a stream of BGP events.
//!
//! BGP is extremely chatty: a single incident — a peering reset, a leak, a
//! flap — produces thousands to millions of prefix-level messages, and the
//! protocol never says what actually happened. Stemming recovers the incident
//! structure statistically:
//!
//! 1. Every event becomes the symbol sequence `c = x h a1 … an p`
//!    (collector peer, BGP nexthop, AS path, prefix).
//! 2. Count how many events contain each contiguous sub-sequence.
//! 3. Rank sub-sequences and take the winner `s'` — the "common portion"
//!    shared by the correlated events.
//! 4. The **stem** — the suspected problem location — is the last adjacent
//!    pair of `s'`.
//! 5. The component's prefixes `P` are the prefixes of events containing
//!    `s'`; its events `E` are *all* events touching any prefix in `P`.
//! 6. Remove `E` and recurse to find the next component.
//!
//! Stemming is temporally independent: it never reasons about event order, so
//! it works at any time-scale — seconds-wide windows catch session resets,
//! hour- or day-wide windows let a single-prefix persistent oscillation
//! overwhelm every other correlation. The scale is the caller's window: the
//! anomaly crate's realtime detector runs Stemming over tumbling windows of
//! `PipelineConfig::window`, so a slow anomaly is found by running it at a
//! wider window.
//!
//! # Example
//!
//! ```
//! use bgpscope_bgp::{Event, EventStream, PathAttributes, PeerId, RouterId, Timestamp};
//! use bgpscope_stemming::Stemming;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let peer = PeerId::from_octets(128, 32, 1, 3);
//! let hop = RouterId::from_octets(128, 32, 0, 66);
//! let mut stream = EventStream::new();
//! for (path, prefix) in [
//!     ("11423 209 701", "192.96.10.0/24"),
//!     ("11423 209 7018", "12.2.41.0/24"),
//!     ("11423 209 1239", "62.80.64.0/20"),
//! ] {
//!     stream.push(Event::withdraw(
//!         Timestamp::ZERO,
//!         peer,
//!         prefix.parse()?,
//!         PathAttributes::new(hop, path.parse()?),
//!     ));
//! }
//! let result = Stemming::new().decompose(&stream);
//! let top = &result.components()[0];
//! // The common portion is …-11423-209; the failure location is 11423-209.
//! assert_eq!(result.symbols().display(top.stem().0), "11423");
//! assert_eq!(result.symbols().display(top.stem().1), "209");
//! # Ok(())
//! # }
//! ```

pub mod algorithm;
pub mod cache;
pub mod component;
pub mod count;
pub mod rank;
#[doc(hidden)]
pub mod reference;
pub mod sequence;

pub use algorithm::{Stemming, StemmingConfig, StemmingResult};
pub use cache::EncodingCache;
pub use component::{Component, Stem};
pub use count::{SubsequenceCounter, SubsequenceStat};
pub use rank::RankingRule;
pub use sequence::{sequence_of, SequenceEncoder};
