//! The collector core: per-peer Adj-RIB-Ins and event augmentation.

use std::collections::HashMap;

use bgpscope_bgp::{
    AdjRibIn, AttrId, AttrTable, Event, EventKind, EventStream, PathAttributes, PeerId, Prefix,
    Route, Timestamp, UpdateMessage,
};

/// A passive collector holding one Adj-RIB-In per peer.
///
/// Feed it raw [`UpdateMessage`]s; it returns augmented [`Event`]s and keeps
/// the per-peer table state needed to augment future withdrawals, to snapshot
/// RIBs, and to expand session resets into their withdrawal storms.
///
/// Each peer's Adj-RIB-In maps a prefix to an [`AttrId`] in the collector's
/// one [`AttrTable`], so an attribute set is stored once however many
/// routes, of however many peers, hold it. An announcement interns its
/// attributes without cloning them when the set is already held; a
/// withdrawal clones them back out.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    peers: HashMap<PeerId, AdjRibIn>,
    attrs: AttrTable,
    event_count: u64,
}

impl Collector {
    /// A collector with no peers yet (peers appear on first update).
    pub fn new() -> Self {
        Collector::default()
    }

    /// The peers seen so far.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peers.keys().copied()
    }

    /// Number of live routes across all peers.
    pub fn route_count(&self) -> usize {
        self.peers.values().map(AdjRibIn::len).sum()
    }

    /// Number of distinct prefixes with at least one live route.
    pub fn prefix_count(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for rib in self.peers.values() {
            set.extend(rib.iter().map(|(p, _)| p));
        }
        set.len()
    }

    /// Total events emitted since construction.
    pub fn events_seen(&self) -> u64 {
        self.event_count
    }

    /// `peer`'s live route to `prefix`: the id of its attribute set and
    /// the set itself.
    pub fn route(&self, peer: PeerId, prefix: Prefix) -> Option<(AttrId, &PathAttributes)> {
        let id = self.peers.get(&peer)?.get(&prefix)?;
        Some((id, self.attrs.get(id)))
    }

    /// Distinct attribute sets the live routes hold.
    pub fn attr_sets(&self) -> usize {
        self.attrs.len()
    }

    /// Applies one UPDATE, returning the augmented per-prefix events.
    ///
    /// * Announcements yield announce events with the new attributes (an
    ///   implicit replacement is still a single announce event, as in BGP).
    /// * Withdrawals yield withdraw events carrying the *old* attributes; a
    ///   withdrawal for a prefix the peer never announced yields nothing
    ///   (duplicate withdrawals are BGP noise the collector filters).
    ///
    /// A peer only gets an Adj-RIB-In slot once it *announces* something:
    /// withdraw-only updates from unknown peers — a corrupt or spoofed feed
    /// can carry arbitrarily many of them — are no-ops and must not grow
    /// the peer map.
    pub fn apply_update(&mut self, msg: &UpdateMessage, time: Timestamp) -> Vec<Event> {
        let mut events = Vec::with_capacity(msg.change_count());
        for &prefix in &msg.withdrawn {
            if let Some(old) = self.remove(msg.peer, prefix) {
                events.push(Event::withdraw(time, msg.peer, prefix, old));
            }
        }
        if let Some(attrs) = &msg.attrs {
            for &prefix in &msg.nlri {
                self.install(msg.peer, prefix, attrs);
                events.push(Event::announce(time, msg.peer, prefix, attrs.clone()));
            }
        }
        self.event_count += events.len() as u64;
        events
    }

    /// Augments one per-prefix event in place — what
    /// [`Collector::apply_update`] does for the one-prefix UPDATE the event
    /// stands for, without building that UPDATE or a `Vec` of results.
    ///
    /// An announce installs its attributes and comes back as it went in. A
    /// withdraw comes back carrying the attributes of the route it removed,
    /// or is `None` when the peer holds no route for the prefix (a stale
    /// withdrawal, or a peer that never announced anything).
    pub fn augment(&mut self, mut event: Event) -> Option<Event> {
        match event.kind {
            EventKind::Announce => self.install(event.peer, event.prefix, &event.attrs),
            EventKind::Withdraw => event.attrs = self.remove(event.peer, event.prefix)?,
        }
        self.event_count += 1;
        Some(event)
    }

    /// Installs (or implicitly replaces) `peer`'s route to `prefix`,
    /// creating the peer's Adj-RIB-In on its first announcement. The new
    /// set is held before the replaced one is released, so re-announcing
    /// the same attributes never frees their id.
    fn install(&mut self, peer: PeerId, prefix: Prefix, attrs: &PathAttributes) {
        let id = self.attrs.intern(attrs);
        if let Some(old) = self.peers.entry(peer).or_default().announce(prefix, id) {
            self.attrs.release(old);
        }
    }

    /// Removes `peer`'s route to `prefix`, returning its attributes; `None`
    /// when there was none. Never creates a peer.
    fn remove(&mut self, peer: PeerId, prefix: Prefix) -> Option<PathAttributes> {
        let old = self.peers.get_mut(&peer)?.withdraw(prefix)?;
        Some(self.attrs.take(old))
    }

    /// Applies many updates (each with its timestamp), returning one sorted
    /// stream.
    pub fn apply_updates<'a, I>(&mut self, updates: I) -> EventStream
    where
        I: IntoIterator<Item = (&'a UpdateMessage, Timestamp)>,
    {
        let mut stream = EventStream::new();
        for (msg, time) in updates {
            stream.extend(self.apply_update(msg, time));
        }
        stream.sort_by_time();
        stream
    }

    /// Expands a session loss with `peer`: the peer's whole Adj-RIB-In is
    /// withdrawn, exactly like the mass withdrawal a real reset produces.
    pub fn session_lost(&mut self, peer: PeerId, time: Timestamp) -> Vec<Event> {
        let Some(rib) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        let dropped = rib.clear();
        self.event_count += dropped.len() as u64;
        dropped
            .into_iter()
            .map(|(prefix, id)| Event::withdraw(time, peer, prefix, self.attrs.take(id)))
            .collect()
    }

    /// Expands a session (re-)establishment: the peer announces a full table.
    pub fn session_established(
        &mut self,
        peer: PeerId,
        table: &[(Prefix, PathAttributes)],
        time: Timestamp,
    ) -> Vec<Event> {
        // The peer is known from here on, even with an empty table.
        self.peers.entry(peer).or_default();
        let mut events = Vec::with_capacity(table.len());
        for (prefix, attrs) in table {
            self.install(peer, *prefix, attrs);
            events.push(Event::announce(time, peer, *prefix, attrs.clone()));
        }
        self.event_count += events.len() as u64;
        events
    }

    /// Snapshots every live route (for MRT dumps or TAMP seeding).
    pub fn snapshot(&self, time: Timestamp) -> Vec<Route> {
        let mut routes = Vec::with_capacity(self.route_count());
        for (&peer, rib) in &self.peers {
            for (prefix, id) in rib.iter() {
                routes.push(Route {
                    prefix,
                    peer,
                    attrs: self.attrs.get(id).clone(),
                    time,
                });
            }
        }
        routes.sort_by_key(|r| (r.peer, r.prefix));
        routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::RouterId;

    fn peer(n: u8) -> PeerId {
        PeerId::from_octets(128, 32, 1, n)
    }

    fn attrs(hop: u8, path: &str) -> PathAttributes {
        PathAttributes::new(
            RouterId::from_octets(128, 32, 0, hop),
            path.parse().unwrap(),
        )
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn withdrawal_augmented_with_old_attrs() {
        let mut rex = Collector::new();
        let a = attrs(66, "11423 209");
        rex.apply_update(
            &UpdateMessage::announce(peer(3), a.clone(), [p("10.0.0.0/8")]),
            Timestamp::from_secs(1),
        );
        let events = rex.apply_update(
            &UpdateMessage::withdraw(peer(3), [p("10.0.0.0/8")]),
            Timestamp::from_secs(2),
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attrs, a);
        assert_eq!(events[0].kind, bgpscope_bgp::EventKind::Withdraw);
    }

    #[test]
    fn duplicate_withdrawal_filtered() {
        let mut rex = Collector::new();
        let events = rex.apply_update(
            &UpdateMessage::withdraw(peer(3), [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        assert!(events.is_empty());
        assert_eq!(rex.events_seen(), 0);
    }

    #[test]
    fn withdraw_only_updates_from_unknown_peers_do_not_grow_peer_map() {
        let mut rex = Collector::new();
        for n in 0..200u8 {
            rex.apply_update(
                &UpdateMessage::withdraw(peer(n), [p("10.0.0.0/8")]),
                Timestamp::ZERO,
            );
        }
        assert_eq!(rex.peers().count(), 0);
        rex.apply_update(
            &UpdateMessage::announce(peer(1), attrs(66, "11423 209"), [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        assert_eq!(rex.peers().count(), 1);
    }

    #[test]
    fn implicit_replacement_single_event() {
        let mut rex = Collector::new();
        rex.apply_update(
            &UpdateMessage::announce(peer(3), attrs(66, "11423 209"), [p("10.0.0.0/8")]),
            Timestamp::from_secs(1),
        );
        let events = rex.apply_update(
            &UpdateMessage::announce(peer(3), attrs(66, "11423 11422 209"), [p("10.0.0.0/8")]),
            Timestamp::from_secs(2),
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attrs.as_path.to_string(), "11423 11422 209");
        assert_eq!(rex.route_count(), 1);
    }

    #[test]
    fn augment_moves_announces_and_restores_withdrawn_attrs() {
        let mut rex = Collector::new();
        let a = attrs(66, "11423 209");
        let prefix = p("10.0.0.0/8");
        let stale = Event::withdraw(Timestamp::from_secs(1), peer(3), prefix, attrs(1, "1"));
        assert_eq!(rex.augment(stale), None, "unknown peer");
        assert_eq!(rex.peers().count(), 0);
        let announce = Event::announce(Timestamp::from_secs(2), peer(3), prefix, a.clone());
        assert_eq!(rex.augment(announce.clone()), Some(announce));
        let withdraw = Event::withdraw(Timestamp::from_secs(3), peer(3), prefix, attrs(1, "1"));
        let out = rex.augment(withdraw).expect("a live route");
        assert_eq!(out.attrs, a);
        assert_eq!(out.time, Timestamp::from_secs(3));
        let again = Event::withdraw(Timestamp::from_secs(4), peer(3), prefix, a);
        assert_eq!(rex.augment(again), None, "stale withdrawal");
        assert_eq!(rex.events_seen(), 2);
        assert_eq!(rex.route_count(), 0);
    }

    #[test]
    fn session_reset_storm_and_reestablish() {
        let mut rex = Collector::new();
        let table: Vec<(Prefix, PathAttributes)> = (0..100u32)
            .map(|i| (p(&format!("10.{}.0.0/16", i)), attrs(66, "11423 209")))
            .collect();
        rex.session_established(peer(3), &table, Timestamp::ZERO);
        assert_eq!(rex.route_count(), 100);

        let storm = rex.session_lost(peer(3), Timestamp::from_secs(5));
        assert_eq!(storm.len(), 100);
        assert!(storm
            .iter()
            .all(|e| e.kind == bgpscope_bgp::EventKind::Withdraw));
        assert_eq!(rex.route_count(), 0);

        let re = rex.session_established(peer(3), &table, Timestamp::from_secs(65));
        assert_eq!(re.len(), 100);
        assert_eq!(rex.route_count(), 100);
        assert_eq!(rex.events_seen(), 300);
    }

    #[test]
    fn session_lost_unknown_peer_is_empty() {
        let mut rex = Collector::new();
        assert!(rex.session_lost(peer(9), Timestamp::ZERO).is_empty());
    }

    #[test]
    fn prefix_count_deduplicates_across_peers() {
        let mut rex = Collector::new();
        rex.apply_update(
            &UpdateMessage::announce(peer(1), attrs(66, "1"), [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        rex.apply_update(
            &UpdateMessage::announce(peer(2), attrs(90, "1"), [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        assert_eq!(rex.route_count(), 2);
        assert_eq!(rex.prefix_count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut rex = Collector::new();
        rex.apply_update(
            &UpdateMessage::announce(peer(2), attrs(90, "1"), [p("20.0.0.0/8"), p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        rex.apply_update(
            &UpdateMessage::announce(peer(1), attrs(66, "1"), [p("30.0.0.0/8")]),
            Timestamp::ZERO,
        );
        let snap = rex.snapshot(Timestamp::from_secs(9));
        assert_eq!(snap.len(), 3);
        assert!(snap
            .windows(2)
            .all(|w| (w[0].peer, w[0].prefix) <= (w[1].peer, w[1].prefix)));
        assert!(snap.iter().all(|r| r.time == Timestamp::from_secs(9)));
    }

    #[test]
    fn rib_and_peer_accessors() {
        let mut rex = Collector::new();
        assert!(rex.route(peer(1), p("10.0.0.0/8")).is_none());
        rex.apply_update(
            &UpdateMessage::announce(peer(1), attrs(66, "1 2"), [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        let (_, route) = rex.route(peer(1), p("10.0.0.0/8")).expect("route known");
        assert_eq!(route.as_path.to_string(), "1 2");
        assert!(rex.route(peer(1), p("20.0.0.0/8")).is_none());
        assert!(rex.route(peer(2), p("10.0.0.0/8")).is_none());
        let peers: Vec<PeerId> = rex.peers().collect();
        assert_eq!(peers, vec![peer(1)]);
        assert_eq!(rex.events_seen(), 1);
    }

    #[test]
    fn routes_share_one_attribute_set_across_peers() {
        let mut rex = Collector::new();
        let a = attrs(66, "11423 209");
        for n in 1..=3 {
            rex.apply_update(
                &UpdateMessage::announce(peer(n), a.clone(), [p("10.0.0.0/8"), p("20.0.0.0/8")]),
                Timestamp::ZERO,
            );
        }
        assert_eq!(rex.route_count(), 6);
        assert_eq!(rex.attr_sets(), 1);
        // Re-announcing the held set neither frees nor duplicates it.
        rex.apply_update(
            &UpdateMessage::announce(peer(1), a, [p("10.0.0.0/8")]),
            Timestamp::ZERO,
        );
        assert_eq!(rex.attr_sets(), 1);
        rex.session_lost(peer(1), Timestamp::ZERO);
        rex.session_lost(peer(2), Timestamp::ZERO);
        assert_eq!(rex.attr_sets(), 1);
        rex.session_lost(peer(3), Timestamp::ZERO);
        assert_eq!(rex.attr_sets(), 0);
    }

    #[test]
    fn apply_updates_sorts_stream() {
        let mut rex = Collector::new();
        let m1 = UpdateMessage::announce(peer(1), attrs(66, "1"), [p("10.0.0.0/8")]);
        let m2 = UpdateMessage::announce(peer(2), attrs(90, "2"), [p("20.0.0.0/8")]);
        let stream = rex.apply_updates([
            (&m1, Timestamp::from_secs(5)),
            (&m2, Timestamp::from_secs(1)),
        ]);
        assert_eq!(stream.len(), 2);
        assert!(stream.events()[0].time <= stream.events()[1].time);
    }
}
