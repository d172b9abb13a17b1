//! Routing Information Bases: per-peer Adj-RIB-Ins over one attribute
//! table, and the Loc-RIB.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::addr::Prefix;
use crate::attrs::PathAttributes;
use crate::decision::{DecisionConfig, DecisionProcess};
use crate::event::Timestamp;
use crate::message::{PeerId, UpdateMessage};

/// A single route: one prefix reachable with one set of path attributes,
/// learned from one peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// The destination prefix.
    pub prefix: Prefix,
    /// Which peer we learned the route from.
    pub peer: PeerId,
    /// The route's path attributes.
    pub attrs: PathAttributes,
    /// When the route was last updated.
    pub time: Timestamp,
}

/// Identifies a route inside a multi-peer RIB: `(peer, prefix)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouteKey {
    /// The peer the route was learned from.
    pub peer: PeerId,
    /// The destination prefix.
    pub prefix: Prefix,
}

/// One distinct attribute set held by an [`AttrTable`]. Ids are dense: a
/// freed id is handed out again before the table grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(u32);

impl AttrId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The attribute sets a collector's routes hold, each stored once with a
/// count of the routes holding it. A set is interned when a route takes
/// it and freed when the last route holding it goes; its id is reused.
/// Sets are found by value in a std `HashMap` under its keyed hasher, so
/// equal sets always collapse to one id.
///
/// ```
/// use bgpscope_bgp::{AsPath, AttrTable, PathAttributes, RouterId};
///
/// let mut table = AttrTable::new();
/// let attrs = PathAttributes::new(RouterId::from_octets(1, 1, 1, 1), AsPath::from_u32s([1, 2]));
/// let a = table.intern(&attrs);
/// let b = table.intern(&attrs.clone());
/// assert_eq!(a, b);
/// assert_eq!(table.len(), 1);
/// assert_eq!(table.take(a), attrs);
/// table.release(b);
/// assert!(table.is_empty());
/// ```
#[derive(Clone, Default)]
pub struct AttrTable {
    /// Per id: the set and the routes holding it; `None` while free.
    slots: Vec<Option<Held>>,
    /// Free ids, reused last-freed first.
    free: Vec<AttrId>,
    /// Every held set, by value. Shares each set's one allocation with
    /// its slot.
    ids: HashMap<Arc<PathAttributes>, AttrId>,
}

#[derive(Debug, Clone)]
struct Held {
    attrs: Arc<PathAttributes>,
    routes: u32,
}

impl fmt::Debug for AttrTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttrTable")
            .field("held", &self.len())
            .field("ids", &self.slots.len())
            .finish()
    }
}

impl AttrTable {
    /// An empty table.
    pub fn new() -> Self {
        AttrTable::default()
    }

    /// One more route holds `attrs`: returns the id of the equal set
    /// already held, or stores a copy under a free id.
    pub fn intern(&mut self, attrs: &PathAttributes) -> AttrId {
        match self.ids.get(attrs) {
            Some(&id) => {
                self.held_mut(id).routes += 1;
                id
            }
            None => self.insert(Arc::new(attrs.clone())),
        }
    }

    /// Stores a set no route holds yet, under the last-freed id or a new
    /// one.
    fn insert(&mut self, attrs: Arc<PathAttributes>) -> AttrId {
        let held = Some(Held {
            attrs: Arc::clone(&attrs),
            routes: 1,
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id.index()] = held;
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("fewer than 2^32 attribute sets");
                self.slots.push(held);
                AttrId(id)
            }
        };
        self.ids.insert(attrs, id);
        id
    }

    /// The set behind a held id.
    ///
    /// # Panics
    ///
    /// When `id` is not held.
    pub fn get(&self, id: AttrId) -> &PathAttributes {
        &self.slots[id.index()]
            .as_ref()
            .expect("a held attribute id")
            .attrs
    }

    /// One route fewer holds `id`; the set is freed with the last.
    ///
    /// # Panics
    ///
    /// When `id` is not held.
    pub fn release(&mut self, id: AttrId) {
        let held = self.held_mut(id);
        held.routes -= 1;
        if held.routes == 0 {
            let held = self.slots[id.index()].take().expect("held");
            self.ids.remove(&*held.attrs);
            self.free.push(id);
        }
    }

    /// [`AttrTable::release`], returning a copy of the set.
    pub fn take(&mut self, id: AttrId) -> PathAttributes {
        let attrs = self.get(id).clone();
        self.release(id);
        attrs
    }

    fn held_mut(&mut self, id: AttrId) -> &mut Held {
        self.slots[id.index()]
            .as_mut()
            .expect("a held attribute id")
    }

    /// Distinct sets held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no route holds any set.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The Adj-RIB-In for a single peer: the exact set of routes that peer has
/// announced and not yet withdrawn, each as the [`AttrId`] of its
/// attributes in the collector's one [`AttrTable`].
///
/// This is the data structure that lets the collector recover the attributes
/// of withdrawn routes (§II): "When a peer sends REX an explicit withdrawal
/// or an announcement that implicitly invalidates a route, the peer's
/// AdjRibIn tells us the original route attributes." The RIB only maps
/// prefixes to ids; holding and releasing the ids in the table is the
/// caller's.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::{AdjRibIn, AsPath, AttrTable, PathAttributes, Prefix, RouterId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut table = AttrTable::new();
/// let mut rib = AdjRibIn::new();
/// let p: Prefix = "10.0.0.0/8".parse()?;
/// let attrs = PathAttributes::new(RouterId::from_octets(1, 1, 1, 1), AsPath::empty());
/// assert_eq!(rib.announce(p, table.intern(&attrs)), None);
/// let old = rib.withdraw(p).expect("a live route");
/// assert_eq!(table.take(old), attrs);
/// assert!(table.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdjRibIn {
    routes: HashMap<Prefix, AttrId>,
}

impl AdjRibIn {
    /// An empty Adj-RIB-In.
    pub fn new() -> Self {
        AdjRibIn::default()
    }

    /// Installs or replaces the route for `prefix`, returning the id it
    /// replaced.
    pub fn announce(&mut self, prefix: Prefix, id: AttrId) -> Option<AttrId> {
        self.routes.insert(prefix, id)
    }

    /// Removes the route for `prefix`, returning its id if it had one (a
    /// withdrawal for a prefix the peer never announced is BGP noise).
    pub fn withdraw(&mut self, prefix: Prefix) -> Option<AttrId> {
        self.routes.remove(&prefix)
    }

    /// The attribute id of the route to `prefix`, if announced.
    pub fn get(&self, prefix: &Prefix) -> Option<AttrId> {
        self.routes.get(prefix).copied()
    }

    /// Number of live routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the peer has no live routes (e.g. right after session loss).
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates over `(prefix, id)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, AttrId)> + '_ {
        self.routes.iter().map(|(&prefix, &id)| (prefix, id))
    }

    /// Drops every route, returning them (a session reset's mass withdrawal).
    pub fn clear(&mut self) -> Vec<(Prefix, AttrId)> {
        self.routes.drain().collect()
    }
}

/// A multi-peer RIB with best-path selection: candidate routes per prefix
/// from every peer, plus the decision process that picks the best.
///
/// Used by simulated routers (via `bgpscope-netsim`) and available to users
/// who want to ask "what would this router choose?".
#[derive(Debug, Clone, Default)]
pub struct LocRib {
    /// Candidates per prefix, keyed by learning peer.
    candidates: HashMap<Prefix, Vec<Route>>,
    /// Decision-process configuration.
    config: DecisionConfig,
}

impl LocRib {
    /// An empty Loc-RIB with default decision configuration.
    pub fn new() -> Self {
        LocRib::default()
    }

    /// An empty Loc-RIB with an explicit decision configuration.
    pub fn with_config(config: DecisionConfig) -> Self {
        LocRib {
            candidates: HashMap::new(),
            config,
        }
    }

    /// The decision configuration in use.
    pub fn config(&self) -> &DecisionConfig {
        &self.config
    }

    /// Applies a full UPDATE message; returns the prefixes whose best path
    /// may have changed.
    pub fn apply_update(&mut self, msg: &UpdateMessage, time: Timestamp) -> Vec<Prefix> {
        let mut touched = Vec::new();
        for &p in &msg.withdrawn {
            if self.remove(msg.peer, p) {
                touched.push(p);
            }
        }
        if let Some(attrs) = &msg.attrs {
            for &p in &msg.nlri {
                self.insert(Route {
                    prefix: p,
                    peer: msg.peer,
                    attrs: attrs.clone(),
                    time,
                });
                touched.push(p);
            }
        }
        touched
    }

    /// Installs or replaces one candidate route.
    pub fn insert(&mut self, route: Route) {
        let cands = self.candidates.entry(route.prefix).or_default();
        match cands.iter_mut().find(|r| r.peer == route.peer) {
            Some(existing) => *existing = route,
            None => cands.push(route),
        }
    }

    /// Removes the candidate from `peer` for `prefix`; returns whether one
    /// was present.
    pub fn remove(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        if let Some(cands) = self.candidates.get_mut(&prefix) {
            let before = cands.len();
            cands.retain(|r| r.peer != peer);
            let removed = cands.len() != before;
            if cands.is_empty() {
                self.candidates.remove(&prefix);
            }
            removed
        } else {
            false
        }
    }

    /// All candidate routes for `prefix`.
    pub fn candidates(&self, prefix: &Prefix) -> &[Route] {
        self.candidates
            .get(prefix)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The best route for `prefix` under the configured decision process.
    pub fn best(&self, prefix: &Prefix) -> Option<&Route> {
        let cands = self.candidates.get(prefix)?;
        DecisionProcess::new(&self.config).select(cands)
    }

    /// Iterates over every `(prefix, best route)` pair.
    pub fn best_routes(&self) -> impl Iterator<Item = (Prefix, &Route)> {
        self.candidates.iter().filter_map(|(p, cands)| {
            DecisionProcess::new(&self.config)
                .select(cands)
                .map(|r| (*p, r))
        })
    }

    /// Iterates over *all* candidate routes (the "show ip bgp" view).
    pub fn all_routes(&self) -> impl Iterator<Item = &Route> {
        self.candidates.values().flatten()
    }

    /// Number of distinct prefixes with at least one candidate.
    pub fn prefix_count(&self) -> usize {
        self.candidates.len()
    }

    /// Total number of candidate routes across all prefixes.
    pub fn route_count(&self) -> usize {
        self.candidates.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RouterId;
    use crate::aspath::AsPath;

    fn attrs(hop: u8, path: &str) -> PathAttributes {
        PathAttributes::new(
            RouterId::from_octets(10, 0, 0, hop),
            path.parse::<AsPath>().unwrap(),
        )
    }

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn adj_rib_in_tracks_old_attrs() {
        let mut table = AttrTable::new();
        let mut rib = AdjRibIn::new();
        let p = prefix("192.0.2.0/24");
        assert_eq!(
            rib.announce(p, table.intern(&attrs(1, "65000 65001"))),
            None
        );
        let old = rib
            .announce(p, table.intern(&attrs(2, "65000 65002")))
            .expect("a replaced route");
        assert_eq!(table.take(old).as_path.to_string(), "65000 65001");
        let old = rib.withdraw(p).expect("a live route");
        assert_eq!(table.take(old).as_path.to_string(), "65000 65002");
        assert_eq!(rib.withdraw(p), None);
        assert!(rib.is_empty());
        assert!(table.is_empty());
    }

    #[test]
    fn adj_rib_clear_is_session_reset() {
        let mut table = AttrTable::new();
        let mut rib = AdjRibIn::new();
        rib.announce(prefix("10.0.0.0/8"), table.intern(&attrs(1, "1")));
        rib.announce(prefix("10.1.0.0/16"), table.intern(&attrs(1, "1 2")));
        let dropped = rib.clear();
        assert_eq!(dropped.len(), 2);
        assert!(rib.is_empty());
        for (_, id) in dropped {
            table.release(id);
        }
        assert!(table.is_empty());
    }

    #[test]
    fn attr_table_collapses_equal_sets_whatever_their_allocation() {
        let mut table = AttrTable::new();
        let a = attrs(1, "65000 65001");
        let apart = attrs(1, "65000 65001");
        assert_ne!(a.as_path.asns().as_ptr(), apart.as_path.asns().as_ptr());
        let id = table.intern(&a);
        assert_eq!(table.intern(&apart), id);
        assert_eq!(table.intern(&a.clone()), id);
        // Same path and next hop, other MED: another set.
        let med = a.clone().with_med(7);
        let other = table.intern(&med);
        assert_ne!(other, id);
        assert_eq!(table.get(other), &med);
        assert_eq!(table.intern(&a), id);
        assert_eq!(table.len(), 2);
        for _ in 0..4 {
            table.release(id);
        }
        assert_eq!(table.len(), 1);
        table.release(other);
        assert!(table.is_empty());
    }

    #[test]
    fn attr_table_reuses_a_freed_id_for_a_new_set() {
        let mut table = AttrTable::new();
        let first = table.intern(&attrs(1, "1"));
        let second = table.intern(&attrs(2, "2"));
        table.release(first);
        assert_eq!(table.len(), 1);
        let third = table.intern(&attrs(3, "3"));
        assert_eq!(third, first);
        assert_eq!(table.get(third), &attrs(3, "3"));
        assert_eq!(table.get(second), &attrs(2, "2"));
        assert_eq!(table.slots.len(), 2, "no id was added");
    }

    #[test]
    fn loc_rib_replaces_per_peer() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        let peer_a = PeerId::from_octets(1, 1, 1, 1);
        rib.insert(Route {
            prefix: p,
            peer: peer_a,
            attrs: attrs(1, "65000 65001"),
            time: Timestamp::ZERO,
        });
        rib.insert(Route {
            prefix: p,
            peer: peer_a,
            attrs: attrs(1, "65000 65002"),
            time: Timestamp::from_secs(1),
        });
        assert_eq!(rib.candidates(&p).len(), 1);
        assert_eq!(
            rib.candidates(&p)[0].attrs.as_path.to_string(),
            "65000 65002"
        );
    }

    #[test]
    fn loc_rib_best_prefers_shorter_path() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        rib.insert(Route {
            prefix: p,
            peer: PeerId::from_octets(1, 1, 1, 1),
            attrs: attrs(1, "65000 65001 65002"),
            time: Timestamp::ZERO,
        });
        rib.insert(Route {
            prefix: p,
            peer: PeerId::from_octets(2, 2, 2, 2),
            attrs: attrs(2, "65000 65003"),
            time: Timestamp::ZERO,
        });
        let best = rib.best(&p).unwrap();
        assert_eq!(best.peer, PeerId::from_octets(2, 2, 2, 2));
    }

    #[test]
    fn apply_update_touches_prefixes() {
        let mut rib = LocRib::new();
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let msg = UpdateMessage::announce(
            peer,
            attrs(1, "65000"),
            [prefix("10.0.0.0/8"), prefix("10.1.0.0/16")],
        );
        let touched = rib.apply_update(&msg, Timestamp::ZERO);
        assert_eq!(touched.len(), 2);
        assert_eq!(rib.prefix_count(), 2);

        let msg = UpdateMessage::withdraw(peer, [prefix("10.0.0.0/8"), prefix("172.16.0.0/12")]);
        let touched = rib.apply_update(&msg, Timestamp::from_secs(1));
        // Only the prefix we actually had is reported as touched.
        assert_eq!(touched, vec![prefix("10.0.0.0/8")]);
        assert_eq!(rib.prefix_count(), 1);
    }

    #[test]
    fn remove_cleans_empty_entries() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        let peer = PeerId::from_octets(1, 1, 1, 1);
        rib.insert(Route {
            prefix: p,
            peer,
            attrs: attrs(1, "65000"),
            time: Timestamp::ZERO,
        });
        assert!(rib.remove(peer, p));
        assert!(!rib.remove(peer, p));
        assert_eq!(rib.prefix_count(), 0);
        assert_eq!(rib.route_count(), 0);
        assert!(rib.best(&p).is_none());
    }
}
