//! The passive route collector — the workspace's analogue of Packet Design's
//! Route Explorer (REX), the paper's data-collection substrate (§II).
//!
//! The collector IBGP-peers passively with a site's BGP edge routers (or an
//! ISP's route reflectors) and keeps an Adj-RIB-In per peer. Raw UPDATE
//! messages are insufficient for analysis — withdrawals carry no attributes —
//! so the collector *augments* them: every prefix-level change becomes an
//! [`bgpscope_bgp::Event`] with full attributes (the withdrawn ones for
//! withdrawals, reconstructed from the Adj-RIB-In).
//!
//! A route in an Adj-RIB-In is a prefix and an [`bgpscope_bgp::AttrId`]:
//! the collector stores each distinct attribute set once, in one
//! [`bgpscope_bgp::AttrTable`] shared by every peer, counts the routes
//! holding it and frees it with the last. A feed repeats a few dozen sets
//! across its routes, so the RIB costs 12 bytes per route where it cost
//! 72; [`Collector::route`] reads one route back.
//!
//! The crate also provides BGP/IGP temporal synchronization (REX "temporally
//! synchronizes BGP and IGP routing messages", §III-D.3) and the event-rate
//! meter behind Figure 8.
//!
//! # Example
//!
//! ```
//! use bgpscope_bgp::{PathAttributes, PeerId, RouterId, Timestamp, UpdateMessage};
//! use bgpscope_collector::Collector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let peer = PeerId::from_octets(128, 32, 1, 3);
//! let mut rex = Collector::new();
//! let attrs = PathAttributes::new(RouterId::from_octets(128, 32, 0, 66), "11423 209".parse()?);
//! let announce = UpdateMessage::announce(peer, attrs.clone(), ["10.0.0.0/8".parse()?]);
//! rex.apply_update(&announce, Timestamp::from_secs(1));
//!
//! let withdraw = UpdateMessage::withdraw(peer, ["10.0.0.0/8".parse()?]);
//! let events = rex.apply_update(&withdraw, Timestamp::from_secs(2));
//! // The withdrawal event carries the withdrawn attributes.
//! assert_eq!(events[0].attrs, attrs);
//! # Ok(())
//! # }
//! ```

pub mod history;
pub mod rate;
pub mod rex;
pub mod sync;

pub use history::{RouteHistory, TimelineEntry};
pub use rate::{EventRateMeter, RateSeries, Spike};
pub use rex::Collector;
pub use sync::SyncedView;
