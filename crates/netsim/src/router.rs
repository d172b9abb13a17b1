//! The simulated BGP router.

use std::collections::{BTreeMap, HashMap};

use bgpscope_bgp::{
    AsPath, Asn, DecisionConfig, DecisionProcess, FlapDamper, LocRib, PathAttributes, PeerId,
    Prefix, Route, RouterId, Timestamp, UpdateMessage,
};
use bgpscope_policy::{ConfigDocument, PolicyEngine, PolicyOutcome};

use crate::config::PeerRelation;

/// How a session relates the two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionKind {
    /// External BGP: different ASes; AS prepending and nexthop rewrite on
    /// export; LOCAL_PREF stripped.
    Ebgp,
    /// Internal BGP, plain peer (full-mesh member).
    Ibgp,
    /// Internal BGP where the *remote* router is our route-reflector client.
    IbgpClient,
}

impl SessionKind {
    /// True for either IBGP variant.
    pub fn is_ibgp(&self) -> bool {
        !matches!(self, SessionKind::Ebgp)
    }
}

/// How the local router learned a route (drives RR export rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LearnedFrom {
    Local,
    Ebgp,
    IbgpClient,
    IbgpNonClient,
}

/// BGP session FSM state (the minimal three-state subset of RFC 4271).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SessionState {
    /// Down and not trying: a detected failure parks here until the
    /// connect-retry timer (or a link recovery) kicks the session.
    Idle,
    /// Trying to (re)connect; becomes Established once both sides are in
    /// Connect and the establish delay elapses.
    Connect,
    /// Routes flow. Sessions start here (the sim boots converged-adjacent).
    #[default]
    Established,
}

/// One (outbound view of a) BGP session.
#[derive(Debug, Clone)]
pub struct Session {
    /// The remote router.
    pub peer: RouterId,
    /// Relationship.
    pub kind: SessionKind,
    /// FSM state: Idle → Connect → Established, driven by the engine's
    /// timers (all zero by default, so a flap walks the whole machine at
    /// one instant).
    pub state: SessionState,
    /// Gao-Rexford relationship of the remote router (None: legacy
    /// unrestricted export).
    pub relation: Option<PeerRelation>,
    /// Base propagation + processing delay for messages on this session.
    pub delay: Timestamp,
    /// Whether MED is propagated on export (EBGP only; ASes usually send
    /// MED to direct neighbors).
    pub send_med: bool,
    /// Minimum Route Advertisement Interval for this session. Zero means
    /// unpaced: every change goes out the instant the decision process
    /// emits it (the pre-MRAI engine, bit-for-bit).
    pub mrai: Timestamp,
    /// Whether withdrawals are rate-limited along with advertisements
    /// (RFC 4271 default is no: withdrawals bypass the MRAI timer).
    pub mrai_limits_withdrawals: bool,
    /// What we last advertised to this peer, per prefix (wire state).
    pub(crate) adj_rib_out: HashMap<Prefix, PathAttributes>,
    /// Desired wire state not yet sent, staged behind the MRAI timer.
    /// Last-writer-wins: restaging a prefix overwrites (coalesces) the
    /// previous pending change. `None` = pending withdrawal.
    pub(crate) pending: BTreeMap<Prefix, Option<PathAttributes>>,
    /// Earliest time the next MRAI flush may happen.
    pub(crate) next_allowed: Timestamp,
    /// Whether an `MraiExpire` event is already queued for this session.
    pub(crate) mrai_timer_armed: bool,
    /// Bumped on every FSM transition; queued FSM timer events carry the
    /// epoch they were scheduled under and no-op when stale.
    pub(crate) epoch: u64,
}

impl Session {
    fn new(peer: RouterId, kind: SessionKind, delay: Timestamp) -> Self {
        Session {
            peer,
            kind,
            state: SessionState::Established,
            relation: None,
            delay,
            send_med: true,
            mrai: Timestamp::ZERO,
            mrai_limits_withdrawals: false,
            adj_rib_out: HashMap::new(),
            pending: BTreeMap::new(),
            next_allowed: Timestamp::ZERO,
            mrai_timer_armed: false,
            epoch: 0,
        }
    }

    /// Whether routes currently flow on this session.
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }
}

/// A simulated router: identity, sessions, Loc-RIB, policies.
#[derive(Debug, Clone)]
pub struct Router {
    /// The router's address/identity.
    pub id: RouterId,
    /// The AS it belongs to.
    pub asn: Asn,
    /// Whether this router is a route reflector (has clients).
    pub reflector: bool,
    /// Whether the passive collector observes this router.
    pub monitored: bool,
    /// Candidate routes and best-path selection.
    pub rib: LocRib,
    /// Sessions keyed by remote router.
    pub sessions: HashMap<RouterId, Session>,
    /// Parsed configuration (route maps etc.), if any.
    pub config: Option<ConfigDocument>,
    /// Optional RFC 2439 route-flap damping on inbound routes.
    pub damping: Option<FlapDamper>,
    /// What we advertised to the collector, per prefix.
    collector_out: HashMap<Prefix, PathAttributes>,
    /// Peers whose `pending` gained entries since the engine last drained
    /// us (the engine services these: flush now or arm the MRAI timer).
    pub(crate) dirty_mrai: Vec<RouterId>,
    /// Changes absorbed before reaching the wire (pending overwrites and
    /// net-no-change removals); drained into `SimStats::mrai_coalesced`.
    pub(crate) mrai_coalesced: u64,
}

/// One outbound message produced by processing: `(destination, message)`.
/// `None` destination means the collector feed.
pub(crate) type Outbound = (Option<RouterId>, UpdateMessage);

impl Router {
    /// A router with no sessions.
    pub fn new(id: RouterId, asn: Asn) -> Self {
        Router {
            id,
            asn,
            reflector: false,
            monitored: false,
            rib: LocRib::new(),
            sessions: HashMap::new(),
            config: None,
            damping: None,
            collector_out: HashMap::new(),
            dirty_mrai: Vec::new(),
            mrai_coalesced: 0,
        }
    }

    /// Adds a session toward `peer`.
    pub fn add_session(&mut self, peer: RouterId, kind: SessionKind, delay: Timestamp) {
        if kind == SessionKind::IbgpClient {
            self.reflector = true;
        }
        self.sessions.insert(peer, Session::new(peer, kind, delay));
        let mut config = self.rib.config().clone();
        if kind == SessionKind::Ebgp {
            config.ebgp_peers.insert(PeerId(peer));
        }
        self.rib = rebuild_rib(&self.rib, config);
    }

    /// Sets the IGP cost toward a nexthop (feeds the decision process).
    pub fn set_igp_cost(&mut self, nexthop: RouterId, cost: u32) {
        let mut config = self.rib.config().clone();
        config.igp_cost.insert(nexthop, cost);
        self.rib = rebuild_rib(&self.rib, config);
    }

    /// How a candidate learned from `peer` classifies for export rules.
    fn learned_from(&self, peer: PeerId) -> LearnedFrom {
        if peer == PeerId(self.id) {
            return LearnedFrom::Local;
        }
        match self.sessions.get(&peer.router_id()).map(|s| s.kind) {
            Some(SessionKind::Ebgp) => LearnedFrom::Ebgp,
            Some(SessionKind::IbgpClient) => LearnedFrom::IbgpClient,
            Some(SessionKind::Ibgp) | None => LearnedFrom::IbgpNonClient,
        }
    }

    /// Whether a route learned as `src` may be exported on a session of
    /// `kind` (standard route-reflection rules).
    fn may_export(&self, src: LearnedFrom, kind: SessionKind) -> bool {
        match kind {
            SessionKind::Ebgp => true,
            SessionKind::Ibgp => matches!(
                src,
                LearnedFrom::Local | LearnedFrom::Ebgp | LearnedFrom::IbgpClient
            ),
            SessionKind::IbgpClient => true, // reflect everything to clients
        }
    }

    /// Gao-Rexford valley-free export: routes learned from a provider or a
    /// lateral peer are exported only toward customers (and toward legacy
    /// relation-less sessions); customer-learned and locally originated
    /// routes go everywhere. Sessions without relations are unrestricted,
    /// so hand-built topologies keep the legacy behavior.
    fn relation_permits(&self, learned_peer: PeerId, to: RouterId) -> bool {
        let src_rel = if learned_peer == PeerId(self.id) {
            None
        } else {
            self.sessions
                .get(&learned_peer.router_id())
                .and_then(|s| s.relation)
        };
        match src_rel {
            None | Some(PeerRelation::Customer) => true,
            Some(PeerRelation::Provider) | Some(PeerRelation::Peer) => !matches!(
                self.sessions.get(&to).and_then(|s| s.relation),
                Some(PeerRelation::Provider) | Some(PeerRelation::Peer)
            ),
        }
    }

    /// The import policy outcome for an announcement from `from`.
    fn import(
        &self,
        from: RouterId,
        attrs: &PathAttributes,
        prefix: Prefix,
    ) -> Option<PathAttributes> {
        // AS-path loop check (EBGP).
        if attrs.as_path.contains(self.asn) {
            return None;
        }
        let Some(config) = &self.config else {
            return Some(attrs.clone());
        };
        let map_name = config
            .neighbors
            .get(&from)
            .and_then(|n| n.route_map_in.as_deref());
        match map_name {
            None => Some(attrs.clone()),
            Some(name) => match PolicyEngine::new(config).apply(name, attrs, prefix) {
                PolicyOutcome::Permit(modified) => Some(modified),
                PolicyOutcome::Deny { .. } => None,
            },
        }
    }

    /// The export policy outcome toward `to`.
    fn export_policy(
        &self,
        to: RouterId,
        attrs: &PathAttributes,
        prefix: Prefix,
    ) -> Option<PathAttributes> {
        let Some(config) = &self.config else {
            return Some(attrs.clone());
        };
        let map_name = config
            .neighbors
            .get(&to)
            .and_then(|n| n.route_map_out.as_deref());
        match map_name {
            None => Some(attrs.clone()),
            Some(name) => match PolicyEngine::new(config).apply(name, attrs, prefix) {
                PolicyOutcome::Permit(modified) => Some(modified),
                PolicyOutcome::Deny { .. } => None,
            },
        }
    }

    /// Transforms attributes for export on a session.
    fn export_attrs(&self, session: &Session, attrs: &PathAttributes) -> PathAttributes {
        let mut out = attrs.clone();
        match session.kind {
            SessionKind::Ebgp => {
                out.as_path = out.as_path.prepended(self.asn, 1);
                out.next_hop = self.id;
                out.local_pref = None;
                if !session.send_med {
                    out.med = None;
                }
            }
            SessionKind::Ibgp | SessionKind::IbgpClient => {
                // IBGP: attributes (incl. NEXT_HOP) pass through unchanged.
            }
        }
        out
    }

    /// The `maximum-prefix` limit configured for `peer`, if any.
    pub fn max_prefix_limit(&self, peer: RouterId) -> Option<u32> {
        self.config.as_ref()?.neighbors.get(&peer)?.max_prefix
    }

    /// Count of candidate routes currently learned from `peer`.
    pub fn routes_from(&self, peer: RouterId) -> usize {
        self.rib
            .all_routes()
            .filter(|r| r.peer == PeerId(peer))
            .count()
    }

    /// Processes an inbound UPDATE from `from`, mutating the RIB and
    /// returning the outbound messages it triggers.
    pub(crate) fn process_update(
        &mut self,
        from: RouterId,
        msg: &UpdateMessage,
        now: Timestamp,
    ) -> Vec<Outbound> {
        // Record old bests for all touched prefixes.
        let mut touched: Vec<Prefix> = Vec::with_capacity(msg.change_count());
        touched.extend(msg.withdrawn.iter().copied());
        touched.extend(msg.nlri.iter().copied());
        touched.sort_unstable();
        touched.dedup();
        let old_bests: HashMap<Prefix, Option<Route>> = touched
            .iter()
            .map(|&p| (p, self.rib.best(&p).cloned()))
            .collect();

        // Apply withdrawals (each one is a flap for damping purposes).
        for &prefix in &msg.withdrawn {
            if let Some(damper) = &mut self.damping {
                damper.record_flap(PeerId(from), prefix, now);
            }
            self.rib.remove(PeerId(from), prefix);
        }
        // Apply announcements through damping, then import policy.
        if let Some(attrs) = &msg.attrs {
            for &prefix in &msg.nlri {
                if let Some(damper) = &mut self.damping {
                    // An attribute-changing re-announcement is also a flap.
                    let changed = self
                        .rib
                        .candidates(&prefix)
                        .iter()
                        .any(|r| r.peer == PeerId(from) && r.attrs != *attrs);
                    if changed {
                        damper.record_flap(PeerId(from), prefix, now);
                    }
                    if damper.is_suppressed(PeerId(from), prefix, now) {
                        // Suppressed: treat as unusable, drop any candidate.
                        self.rib.remove(PeerId(from), prefix);
                        continue;
                    }
                }
                match self.import(from, attrs, prefix) {
                    Some(imported) => {
                        self.rib.insert(Route {
                            prefix,
                            peer: PeerId(from),
                            attrs: imported,
                            time: now,
                        });
                    }
                    None => {
                        // Denied now (policy or loop): drop any previous
                        // candidate from this peer.
                        self.rib.remove(PeerId(from), prefix);
                    }
                }
            }
        }

        self.emit_changes(&touched, &old_bests, now)
    }

    /// Originates (or withdraws) a locally sourced route.
    pub(crate) fn originate(
        &mut self,
        prefix: Prefix,
        attrs: Option<PathAttributes>,
        now: Timestamp,
    ) -> Vec<Outbound> {
        let old_best = self.rib.best(&prefix).cloned();
        match attrs {
            Some(attrs) => self.rib.insert(Route {
                prefix,
                peer: PeerId(self.id),
                attrs,
                time: now,
            }),
            None => {
                self.rib.remove(PeerId(self.id), prefix);
            }
        }
        let old_bests: HashMap<Prefix, Option<Route>> = [(prefix, old_best)].into();
        self.emit_changes(&[prefix], &old_bests, now)
    }

    /// Drops every candidate learned from `peer` (session loss), returning
    /// the triggered messages.
    pub(crate) fn drop_peer_routes(&mut self, peer: RouterId, now: Timestamp) -> Vec<Outbound> {
        let mut prefixes: Vec<Prefix> = self
            .rib
            .all_routes()
            .filter(|r| r.peer == PeerId(peer))
            .map(|r| r.prefix)
            .collect();
        prefixes.sort_unstable(); // determinism (see emit_changes)
                                  // A session loss flaps every route it takes down.
        if let Some(damper) = &mut self.damping {
            for &p in &prefixes {
                damper.record_flap(PeerId(peer), p, now);
            }
        }
        let old_bests: HashMap<Prefix, Option<Route>> = prefixes
            .iter()
            .map(|&p| (p, self.rib.best(&p).cloned()))
            .collect();
        for &p in &prefixes {
            self.rib.remove(PeerId(peer), p);
        }
        self.emit_changes(&prefixes, &old_bests, now)
    }

    /// Re-sends the full exportable table to `peer` (session establishment).
    /// On a paced session this stages the table behind the MRAI timer, so
    /// re-establishment emits batched UPDATEs like a real table exchange.
    pub(crate) fn full_table_to(&mut self, peer: RouterId, _now: Timestamp) -> Vec<Outbound> {
        let Some(session) = self.sessions.get(&peer) else {
            return Vec::new();
        };
        if !session.is_established() {
            return Vec::new();
        }
        let kind = session.kind;
        let mut best_routes: Vec<(Prefix, Route)> = self
            .rib
            .best_routes()
            .map(|(p, r)| (p, r.clone()))
            .collect();
        best_routes.sort_by_key(|(p, _)| *p); // determinism (see emit_changes)
        let mut out = Vec::new();
        for (prefix, route) in best_routes {
            let src = self.learned_from(route.peer);
            if !self.may_export(src, kind)
                || route.peer == PeerId(peer)
                || !self.relation_permits(route.peer, peer)
            {
                continue;
            }
            if let Some(policied) = self.export_policy(peer, &route.attrs, prefix) {
                let session = self.sessions.get(&peer).expect("session exists");
                let attrs = self.export_attrs(session, &policied);
                self.stage_export(peer, prefix, Some(attrs), &mut out);
            }
        }
        out
    }

    /// Engine hook: recompute and emit best-path diffs for `touched`
    /// prefixes against previously captured `old_bests` (used after
    /// decision-config changes such as IGP metric updates).
    pub(crate) fn emit_changes_public(
        &mut self,
        touched: &[Prefix],
        old_bests: &HashMap<Prefix, Option<Route>>,
        now: Timestamp,
    ) -> Vec<Outbound> {
        self.emit_changes(touched, old_bests, now)
    }

    /// After RIB mutations, computes per-prefix best changes and the
    /// resulting messages to peers and to the collector.
    fn emit_changes(
        &mut self,
        touched: &[Prefix],
        old_bests: &HashMap<Prefix, Option<Route>>,
        _now: Timestamp,
    ) -> Vec<Outbound> {
        let mut out: Vec<Outbound> = Vec::new();
        for &prefix in touched {
            let new_best = self.rib.best(&prefix).cloned();
            let old_best = old_bests.get(&prefix).cloned().flatten();
            let changed = match (&old_best, &new_best) {
                (None, None) => false,
                (Some(o), Some(n)) => o.peer != n.peer || o.attrs != n.attrs,
                _ => true,
            };
            if !changed {
                continue;
            }

            // Collector feed (monitored routers export like an IBGP client).
            if self.monitored {
                match &new_best {
                    Some(best) => {
                        let prev = self.collector_out.insert(prefix, best.attrs.clone());
                        if prev.as_ref() != Some(&best.attrs) {
                            out.push((
                                None,
                                UpdateMessage::announce(
                                    PeerId(self.id),
                                    best.attrs.clone(),
                                    [prefix],
                                ),
                            ));
                        }
                    }
                    None => {
                        if self.collector_out.remove(&prefix).is_some() {
                            out.push((None, UpdateMessage::withdraw(PeerId(self.id), [prefix])));
                        }
                    }
                }
            }

            // Peer exports (sorted: HashMap iteration order must not leak
            // into event-scheduling order, or runs become irreproducible).
            let mut peers: Vec<RouterId> = self.sessions.keys().copied().collect();
            peers.sort_unstable();
            for peer in peers {
                let session = self.sessions.get(&peer).expect("session exists");
                if !session.is_established() {
                    continue;
                }
                let kind = session.kind;
                let advertise = match &new_best {
                    Some(best) if best.peer != PeerId(peer) => {
                        let src = self.learned_from(best.peer);
                        if self.may_export(src, kind) && self.relation_permits(best.peer, peer) {
                            self.export_policy(peer, &best.attrs, prefix)
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                let desired = advertise.map(|policied| {
                    let session = self.sessions.get(&peer).expect("session exists");
                    self.export_attrs(session, &policied)
                });
                self.stage_export(peer, prefix, desired, &mut out);
            }
        }
        out
    }

    /// Routes one desired per-(peer, prefix) wire state either straight to
    /// the output (unpaced session, bit-identical to the pre-MRAI engine)
    /// or into the session's `pending` staging map behind the MRAI timer.
    /// `desired == None` means withdrawal. The unpaced branch is not the
    /// paced one at a zero interval: the pacer batches pending changes per
    /// attribute set, which reorders a zero-interval session's feed.
    fn stage_export(
        &mut self,
        peer: RouterId,
        prefix: Prefix,
        desired: Option<PathAttributes>,
        out: &mut Vec<Outbound>,
    ) {
        let my_id = self.id;
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        if session.mrai == Timestamp::ZERO {
            match desired {
                Some(attrs) => {
                    let prev = session.adj_rib_out.insert(prefix, attrs.clone());
                    if prev.as_ref() != Some(&attrs) {
                        out.push((
                            Some(peer),
                            UpdateMessage::announce(PeerId(my_id), attrs, [prefix]),
                        ));
                    }
                }
                None => {
                    if session.adj_rib_out.remove(&prefix).is_some() {
                        out.push((Some(peer), UpdateMessage::withdraw(PeerId(my_id), [prefix])));
                    }
                }
            }
            return;
        }

        // Paced session. Withdrawals bypass the timer unless rate-limited
        // (RFC 4271 applies MRAI to advertisements only by default).
        if desired.is_none() && !session.mrai_limits_withdrawals {
            if session.pending.remove(&prefix).is_some() {
                self.mrai_coalesced += 1;
            }
            if session.adj_rib_out.remove(&prefix).is_some() {
                out.push((Some(peer), UpdateMessage::withdraw(PeerId(my_id), [prefix])));
            }
            return;
        }
        if session.adj_rib_out.get(&prefix) == desired.as_ref() {
            // Net no-change vs the wire: cancel any staged change.
            if session.pending.remove(&prefix).is_some() {
                self.mrai_coalesced += 1;
            }
            return;
        }
        if session.pending.insert(prefix, desired).is_some() {
            // Last-writer-wins coalescing inside the timer window.
            self.mrai_coalesced += 1;
        }
        if !self.dirty_mrai.contains(&peer) {
            self.dirty_mrai.push(peer);
        }
    }

    /// Flushes the staged `pending` map for `peer` into batched UPDATEs:
    /// one withdrawal message (sorted prefixes) plus one announcement per
    /// distinct attribute set. Returns the messages in deterministic order
    /// (BTreeMap iteration). The engine stamps `next_allowed`.
    pub(crate) fn flush_session(&mut self, peer: RouterId) -> Vec<UpdateMessage> {
        let my_id = self.id;
        let Some(session) = self.sessions.get_mut(&peer) else {
            return Vec::new();
        };
        if !session.is_established() {
            session.pending.clear();
            return Vec::new();
        }
        let pending = std::mem::take(&mut session.pending);
        let mut withdrawn: Vec<Prefix> = Vec::new();
        let mut groups: Vec<(PathAttributes, Vec<Prefix>)> = Vec::new();
        for (prefix, desired) in pending {
            match desired {
                None => {
                    if session.adj_rib_out.remove(&prefix).is_some() {
                        withdrawn.push(prefix);
                    }
                }
                Some(attrs) => {
                    let prev = session.adj_rib_out.insert(prefix, attrs.clone());
                    if prev.as_ref() != Some(&attrs) {
                        match groups.iter_mut().find(|(a, _)| *a == attrs) {
                            Some((_, prefixes)) => prefixes.push(prefix),
                            None => groups.push((attrs, vec![prefix])),
                        }
                    }
                }
            }
        }
        let mut msgs = Vec::new();
        if !withdrawn.is_empty() {
            msgs.push(UpdateMessage::withdraw(PeerId(my_id), withdrawn));
        }
        for (attrs, prefixes) in groups {
            msgs.push(UpdateMessage::announce(PeerId(my_id), attrs, prefixes));
        }
        msgs
    }

    /// Drains the list of sessions with newly staged changes.
    pub(crate) fn take_dirty_sessions(&mut self) -> Vec<RouterId> {
        std::mem::take(&mut self.dirty_mrai)
    }

    /// Drains the coalesced-change counter.
    pub(crate) fn take_coalesced(&mut self) -> u64 {
        std::mem::take(&mut self.mrai_coalesced)
    }

    /// The attributes this router would locally originate for `prefix`.
    pub fn local_attrs(&self, prefix: Prefix) -> PathAttributes {
        let _ = prefix;
        PathAttributes::new(self.id, AsPath::empty())
    }
}

/// Rebuilds a Loc-RIB with a new decision config, keeping candidates.
fn rebuild_rib(old: &LocRib, config: DecisionConfig) -> LocRib {
    let mut rib = LocRib::with_config(config);
    for route in old.all_routes() {
        rib.insert(route.clone());
    }
    rib
}

/// Convenience: check which best-path step a router would use for a prefix.
pub fn best_reason(router: &Router, prefix: &Prefix) -> Option<bgpscope_bgp::BestPathReason> {
    let candidates: Vec<Route> = router.rib.candidates(prefix).to_vec();
    DecisionProcess::new(router.rib.config())
        .select_with_reason(&candidates)
        .map(|(_, reason)| reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u8) -> RouterId {
        RouterId::from_octets(10, 0, 0, n)
    }

    fn attrs(path: &str, hop: RouterId) -> PathAttributes {
        PathAttributes::new(hop, path.parse().unwrap())
    }

    #[test]
    fn ebgp_export_prepends_and_rewrites_nexthop() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::from_millis(10));
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::from_millis(10));
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(
                PeerId(rid(2)),
                attrs("701 1299", rid(2)).with_local_pref(200),
                ["10.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        // Exports to rid(3) only (not back to rid(2)).
        let (dest, msg) = out
            .iter()
            .find(|(d, _)| *d == Some(rid(3)))
            .expect("export to rid(3)");
        assert_eq!(*dest, Some(rid(3)));
        let a = msg.attrs.as_ref().unwrap();
        assert_eq!(a.as_path.to_string(), "65000 701 1299");
        assert_eq!(a.next_hop, rid(1));
        assert_eq!(a.local_pref, None);
        assert!(!out.iter().any(|(d, _)| *d == Some(rid(2))));
    }

    #[test]
    fn as_loop_rejected() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(
                PeerId(rid(2)),
                attrs("701 65000 1299", rid(2)),
                ["10.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        assert!(out.is_empty());
        assert_eq!(r.rib.prefix_count(), 0);
    }

    #[test]
    fn ibgp_nonclient_routes_not_reflected_by_plain_router() {
        // Plain router: IBGP-learned route must not go to another IBGP peer.
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ibgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ibgp, Timestamp::ZERO);
        r.add_session(rid(4), SessionKind::Ebgp, Timestamp::ZERO);
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(
                PeerId(rid(2)),
                attrs("701", rid(9)),
                ["10.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        assert!(
            !out.iter().any(|(d, _)| *d == Some(rid(3))),
            "no IBGP reflection"
        );
        assert!(
            out.iter().any(|(d, _)| *d == Some(rid(4))),
            "EBGP export allowed"
        );
    }

    #[test]
    fn route_reflector_reflects_client_routes() {
        let mut rr = Router::new(rid(1), Asn(65000));
        rr.add_session(rid(2), SessionKind::IbgpClient, Timestamp::ZERO);
        rr.add_session(rid(3), SessionKind::IbgpClient, Timestamp::ZERO);
        rr.add_session(rid(4), SessionKind::Ibgp, Timestamp::ZERO);
        assert!(rr.reflector);
        let out = rr.process_update(
            rid(2),
            &UpdateMessage::announce(
                PeerId(rid(2)),
                attrs("701", rid(9)),
                ["10.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        // Client route reflects to other clients AND non-clients.
        assert!(out.iter().any(|(d, _)| *d == Some(rid(3))));
        assert!(out.iter().any(|(d, _)| *d == Some(rid(4))));
        // IBGP reflection preserves nexthop.
        let (_, msg) = out.iter().find(|(d, _)| *d == Some(rid(3))).unwrap();
        assert_eq!(msg.attrs.as_ref().unwrap().next_hop, rid(9));

        // Non-client route goes to clients only.
        let out = rr.process_update(
            rid(4),
            &UpdateMessage::announce(
                PeerId(rid(4)),
                attrs("3356", rid(8)),
                ["20.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        assert!(out.iter().any(|(d, _)| *d == Some(rid(2))));
        assert!(out.iter().any(|(d, _)| *d == Some(rid(3))));
    }

    #[test]
    fn monitored_router_feeds_collector() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.monitored = true;
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(
                PeerId(rid(2)),
                attrs("701", rid(2)),
                ["10.0.0.0/8".parse().unwrap()],
            ),
            Timestamp::ZERO,
        );
        assert!(
            out.iter().any(|(d, _)| d.is_none()),
            "collector got the announce"
        );
        // Withdraw flows to the collector too.
        let out = r.process_update(
            rid(2),
            &UpdateMessage::withdraw(PeerId(rid(2)), ["10.0.0.0/8".parse().unwrap()]),
            Timestamp::from_secs(1),
        );
        let coll: Vec<_> = out.iter().filter(|(d, _)| d.is_none()).collect();
        assert_eq!(coll.len(), 1);
        assert_eq!(coll[0].1.withdrawn.len(), 1);
    }

    #[test]
    fn duplicate_announcements_suppressed() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.monitored = true;
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        let msg = UpdateMessage::announce(
            PeerId(rid(2)),
            attrs("701", rid(2)),
            ["10.0.0.0/8".parse().unwrap()],
        );
        let out1 = r.process_update(rid(2), &msg, Timestamp::ZERO);
        assert!(!out1.is_empty());
        let out2 = r.process_update(rid(2), &msg, Timestamp::from_secs(1));
        assert!(
            out2.is_empty(),
            "identical re-announcement emits nothing: {out2:?}"
        );
    }

    #[test]
    fn better_route_replaces_and_withdraw_falls_back() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.monitored = true;
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), attrs("701 1299 5713", rid(2)), [p]),
            Timestamp::ZERO,
        );
        // Shorter path from rid(3) wins.
        let out = r.process_update(
            rid(3),
            &UpdateMessage::announce(PeerId(rid(3)), attrs("3356 5713", rid(3)), [p]),
            Timestamp::from_secs(1),
        );
        assert!(out.iter().any(|(d, m)| d.is_none() && !m.nlri.is_empty()));
        assert_eq!(r.rib.best(&p).unwrap().peer, PeerId(rid(3)));
        // Withdraw the better one: falls back, announcing the old path again.
        let out = r.process_update(
            rid(3),
            &UpdateMessage::withdraw(PeerId(rid(3)), [p]),
            Timestamp::from_secs(2),
        );
        let coll: Vec<_> = out.iter().filter(|(d, _)| d.is_none()).collect();
        assert_eq!(coll.len(), 1);
        assert_eq!(
            coll[0].1.attrs.as_ref().unwrap().as_path.to_string(),
            "701 1299 5713"
        );
    }

    #[test]
    fn originate_and_withdraw_local() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        let out = r.originate(p, Some(r.local_attrs(p)), Timestamp::ZERO);
        let (_, msg) = out.iter().find(|(d, _)| *d == Some(rid(2))).unwrap();
        assert_eq!(msg.attrs.as_ref().unwrap().as_path.to_string(), "65000");
        let out = r.originate(p, None, Timestamp::from_secs(1));
        assert!(out
            .iter()
            .any(|(d, m)| *d == Some(rid(2)) && !m.withdrawn.is_empty()));
    }

    #[test]
    fn drop_peer_routes_emits_withdrawals() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.monitored = true;
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        for i in 0..5u8 {
            r.process_update(
                rid(2),
                &UpdateMessage::announce(
                    PeerId(rid(2)),
                    attrs("701", rid(2)),
                    [Prefix::from_octets(10, i, 0, 0, 16)],
                ),
                Timestamp::ZERO,
            );
        }
        let out = r.drop_peer_routes(rid(2), Timestamp::from_secs(1));
        let withdrawals = out
            .iter()
            .filter(|(d, m)| d.is_none() && !m.withdrawn.is_empty())
            .count();
        assert_eq!(withdrawals, 5);
        assert_eq!(r.rib.prefix_count(), 0);
    }

    #[test]
    fn full_table_resend() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        for i in 0..3u8 {
            r.process_update(
                rid(2),
                &UpdateMessage::announce(
                    PeerId(rid(2)),
                    attrs("701", rid(2)),
                    [Prefix::from_octets(10, i, 0, 0, 16)],
                ),
                Timestamp::ZERO,
            );
        }
        r.sessions.get_mut(&rid(3)).unwrap().adj_rib_out.clear();
        let out = r.full_table_to(rid(3), Timestamp::from_secs(1));
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|(d, m)| *d == Some(rid(3)) && m.nlri.len() == 1));
    }

    #[test]
    fn export_policy_filters_and_tags() {
        use bgpscope_policy::parse_config;
        // r1 exports to rid(2) through a route map that denies untagged
        // routes and adds a community to the rest.
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        r.config = Some(
            parse_config(
                "router bgp 65000\n neighbor 10.0.0.2 route-map OUT out\nip community-list OK permit 1:1\nroute-map OUT permit 10\n match community OK\n set community 9:9 additive\n",
            )
            .unwrap(),
        );
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        // Untagged route from rid(3): denied toward rid(2).
        let out = r.process_update(
            rid(3),
            &UpdateMessage::announce(PeerId(rid(3)), attrs("701", rid(3)), [p]),
            Timestamp::ZERO,
        );
        assert!(
            !out.iter().any(|(d, _)| *d == Some(rid(2))),
            "untagged leaked: {out:?}"
        );
        // Tagged route: exported with the extra community.
        let tagged = attrs("702", rid(3)).with_community("1:1".parse().unwrap());
        let out = r.process_update(
            rid(3),
            &UpdateMessage::announce(PeerId(rid(3)), tagged, [p]),
            Timestamp::from_secs(1),
        );
        let (_, msg) = out
            .iter()
            .find(|(d, _)| *d == Some(rid(2)))
            .expect("export");
        let a = msg.attrs.as_ref().unwrap();
        assert!(a.has_community("1:1".parse().unwrap()));
        assert!(a.has_community("9:9".parse().unwrap()));
    }

    #[test]
    fn send_med_false_strips_med() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        r.sessions.get_mut(&rid(3)).unwrap().send_med = false;
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let with_med = attrs("701", rid(2)).with_med(42);
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), with_med, [p]),
            Timestamp::ZERO,
        );
        let (_, msg) = out
            .iter()
            .find(|(d, _)| *d == Some(rid(3)))
            .expect("export");
        assert_eq!(msg.attrs.as_ref().unwrap().med, None);
    }

    #[test]
    fn ibgp_client_flag_reflects_on_kind_queries() {
        assert!(SessionKind::Ibgp.is_ibgp());
        assert!(SessionKind::IbgpClient.is_ibgp());
        assert!(!SessionKind::Ebgp.is_ibgp());
    }

    #[test]
    fn import_policy_denies() {
        use bgpscope_policy::parse_config;
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.config = Some(
            parse_config(
                "router bgp 65000\n neighbor 10.0.0.2 route-map IN in\nip community-list OK permit 1:1\nroute-map IN permit 10\n match community OK\n",
            )
            .unwrap(),
        );
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        // Untagged: denied.
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), attrs("701", rid(2)), [p]),
            Timestamp::ZERO,
        );
        assert!(out.is_empty());
        assert_eq!(r.rib.prefix_count(), 0);
        // Tagged: permitted.
        let tagged = attrs("701", rid(2)).with_community("1:1".parse().unwrap());
        r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), tagged, [p]),
            Timestamp::ZERO,
        );
        assert_eq!(r.rib.prefix_count(), 1);
    }

    #[test]
    fn paced_session_stages_and_coalesces() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        r.sessions.get_mut(&rid(3)).unwrap().mrai = Timestamp::from_secs(30);
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        // First announcement: staged toward the paced peer, not emitted.
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), attrs("701 1299", rid(2)), [p]),
            Timestamp::ZERO,
        );
        assert!(!out.iter().any(|(d, _)| *d == Some(rid(3))));
        assert_eq!(r.take_dirty_sessions(), vec![rid(3)]);
        // A second, different path overwrites the staged entry.
        r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), attrs("701 3356 1299", rid(2)), [p]),
            Timestamp::from_secs(1),
        );
        assert_eq!(r.take_coalesced(), 1);
        // Flush emits exactly the last-written state, once.
        let msgs = r.flush_session(rid(3));
        assert_eq!(msgs.len(), 1);
        assert_eq!(
            msgs[0].attrs.as_ref().unwrap().as_path.to_string(),
            "65000 701 3356 1299"
        );
        // Nothing left pending.
        assert!(r.flush_session(rid(3)).is_empty());
    }

    #[test]
    fn withdrawal_bypasses_mrai_unless_rate_limited() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        for rate_limited in [false, true] {
            let mut r = Router::new(rid(1), Asn(65000));
            r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
            r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
            {
                let s = r.sessions.get_mut(&rid(3)).unwrap();
                s.mrai = Timestamp::from_secs(30);
                s.mrai_limits_withdrawals = rate_limited;
            }
            r.process_update(
                rid(2),
                &UpdateMessage::announce(PeerId(rid(2)), attrs("701", rid(2)), [p]),
                Timestamp::ZERO,
            );
            r.take_dirty_sessions();
            // Put the announcement on the wire so the withdrawal is real.
            let flushed = r.flush_session(rid(3));
            assert_eq!(flushed.len(), 1);
            let out = r.process_update(
                rid(2),
                &UpdateMessage::withdraw(PeerId(rid(2)), [p]),
                Timestamp::from_secs(1),
            );
            let instant_withdraw = out
                .iter()
                .any(|(d, m)| *d == Some(rid(3)) && !m.withdrawn.is_empty());
            if rate_limited {
                assert!(!instant_withdraw, "rate-limited withdrawal must stage");
                let msgs = r.flush_session(rid(3));
                assert_eq!(msgs.len(), 1);
                assert!(!msgs[0].withdrawn.is_empty());
            } else {
                assert!(instant_withdraw, "default withdrawal bypasses MRAI");
                assert!(r.flush_session(rid(3)).is_empty());
            }
        }
    }

    #[test]
    fn flush_batches_same_attrs_into_one_update() {
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        r.sessions.get_mut(&rid(3)).unwrap().mrai = Timestamp::from_secs(30);
        for i in 0..4u8 {
            r.process_update(
                rid(2),
                &UpdateMessage::announce(
                    PeerId(rid(2)),
                    attrs("701", rid(2)),
                    [Prefix::from_octets(10, i, 0, 0, 16)],
                ),
                Timestamp::ZERO,
            );
        }
        let msgs = r.flush_session(rid(3));
        // All four prefixes share one attribute set: one batched UPDATE.
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].nlri.len(), 4);
    }

    #[test]
    fn valley_free_blocks_provider_to_peer_and_provider() {
        // r1 has a provider (rid 2), a lateral peer (rid 3), and a
        // customer (rid 4). A provider-learned route must reach only the
        // customer.
        let mut r = Router::new(rid(1), Asn(65000));
        r.add_session(rid(2), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(3), SessionKind::Ebgp, Timestamp::ZERO);
        r.add_session(rid(4), SessionKind::Ebgp, Timestamp::ZERO);
        r.sessions.get_mut(&rid(2)).unwrap().relation = Some(PeerRelation::Provider);
        r.sessions.get_mut(&rid(3)).unwrap().relation = Some(PeerRelation::Peer);
        r.sessions.get_mut(&rid(4)).unwrap().relation = Some(PeerRelation::Customer);
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let out = r.process_update(
            rid(2),
            &UpdateMessage::announce(PeerId(rid(2)), attrs("701", rid(2)), [p]),
            Timestamp::ZERO,
        );
        assert!(
            !out.iter().any(|(d, _)| *d == Some(rid(3))),
            "no provider→peer"
        );
        assert!(
            out.iter().any(|(d, _)| *d == Some(rid(4))),
            "provider→customer ok"
        );

        // A customer-learned route goes everywhere.
        let q: Prefix = "20.0.0.0/8".parse().unwrap();
        let out = r.process_update(
            rid(4),
            &UpdateMessage::announce(PeerId(rid(4)), attrs("65004", rid(4)), [q]),
            Timestamp::ZERO,
        );
        assert!(
            out.iter().any(|(d, _)| *d == Some(rid(2))),
            "customer→provider ok"
        );
        assert!(
            out.iter().any(|(d, _)| *d == Some(rid(3))),
            "customer→peer ok"
        );
    }
}
