//! Declarative construction of simulations.

use std::collections::HashMap;

use bgpscope_bgp::{Asn, RouterId, Timestamp};
use bgpscope_policy::ConfigDocument;

use crate::config::{PeerRelation, ProtocolConfig};
use crate::engine::Sim;
use crate::router::{Router, SessionKind};

/// One queued session edge, applied at `build()`.
#[derive(Debug, Clone, Copy)]
struct PendingSession {
    a: RouterId,
    b: RouterId,
    kind: SessionKind,
    delay: Timestamp,
    /// Gao-Rexford relation as seen from each side: `(a's view of b,
    /// b's view of a)`. `None` = legacy unrestricted export.
    relations: (Option<PeerRelation>, Option<PeerRelation>),
}

/// Builds a [`Sim`] from routers, sessions, monitors, configs and IGP costs.
///
/// Sessions are symmetric: `session(a, b, Ebgp)` installs the session at
/// both ends. `SessionKind::IbgpClient` means **`b` is a client of `a`**
/// (`a` is the route reflector); `b` sees `a` as a plain IBGP peer.
///
/// Protocol timing defaults to [`ProtocolConfig::default`]: MRAI off and
/// zero FSM timers, the pre-timer engine bit-for-bit. Opt into realistic
/// dynamics with [`SimBuilder::protocol`].
#[derive(Debug, Default)]
pub struct SimBuilder {
    seed: u64,
    routers: HashMap<RouterId, Router>,
    default_delay: Timestamp,
    pending_sessions: Vec<PendingSession>,
    protocol: ProtocolConfig,
}

impl SimBuilder {
    /// A builder with a deterministic seed for delivery jitter and
    /// tie-shuffling (independent streams are derived from it).
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            routers: HashMap::new(),
            default_delay: Timestamp::from_millis(10),
            pending_sessions: Vec::new(),
            protocol: ProtocolConfig::default(),
        }
    }

    /// Sets the default session delay (10 ms if unset).
    pub fn default_delay(mut self, delay: Timestamp) -> Self {
        self.default_delay = delay;
        self
    }

    /// Sets the protocol timing (MRAI pacing + session FSM).
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Adds a router.
    pub fn router(mut self, id: RouterId, asn: Asn) -> Self {
        self.routers.insert(id, Router::new(id, asn));
        self
    }

    /// Adds a symmetric session with the default delay.
    pub fn session(self, a: RouterId, b: RouterId, kind: SessionKind) -> Self {
        let delay = self.default_delay;
        self.session_with_delay(a, b, kind, delay)
    }

    /// Adds a symmetric session with an explicit delay.
    pub fn session_with_delay(
        mut self,
        a: RouterId,
        b: RouterId,
        kind: SessionKind,
        delay: Timestamp,
    ) -> Self {
        self.pending_sessions.push(PendingSession {
            a,
            b,
            kind,
            delay,
            relations: (None, None),
        });
        self
    }

    /// Adds an eBGP session where `provider` sells transit to `customer`
    /// (valley-free export rules apply at both ends).
    pub fn provider_customer(self, provider: RouterId, customer: RouterId) -> Self {
        let delay = self.default_delay;
        self.provider_customer_with_delay(provider, customer, delay)
    }

    /// [`SimBuilder::provider_customer`] with an explicit delay.
    pub fn provider_customer_with_delay(
        mut self,
        provider: RouterId,
        customer: RouterId,
        delay: Timestamp,
    ) -> Self {
        self.pending_sessions.push(PendingSession {
            a: provider,
            b: customer,
            kind: SessionKind::Ebgp,
            delay,
            relations: (Some(PeerRelation::Customer), Some(PeerRelation::Provider)),
        });
        self
    }

    /// Adds a settlement-free lateral peering eBGP session.
    pub fn peer_link(self, a: RouterId, b: RouterId) -> Self {
        let delay = self.default_delay;
        self.peer_link_with_delay(a, b, delay)
    }

    /// [`SimBuilder::peer_link`] with an explicit delay.
    pub fn peer_link_with_delay(mut self, a: RouterId, b: RouterId, delay: Timestamp) -> Self {
        self.pending_sessions.push(PendingSession {
            a,
            b,
            kind: SessionKind::Ebgp,
            delay,
            relations: (Some(PeerRelation::Peer), Some(PeerRelation::Peer)),
        });
        self
    }

    /// Marks a router as observed by the passive collector.
    pub fn monitor(mut self, id: RouterId) -> Self {
        if let Some(r) = self.routers.get_mut(&id) {
            r.monitored = true;
        }
        self
    }

    /// Attaches a parsed configuration to a router.
    pub fn config(mut self, id: RouterId, config: ConfigDocument) -> Self {
        if let Some(r) = self.routers.get_mut(&id) {
            r.config = Some(config);
        }
        self
    }

    /// Sets the IGP cost `router` sees toward `nexthop`.
    pub fn igp_cost(mut self, router: RouterId, nexthop: RouterId, cost: u32) -> Self {
        if let Some(r) = self.routers.get_mut(&router) {
            r.set_igp_cost(nexthop, cost);
        }
        self
    }

    /// Finalizes the simulator.
    ///
    /// # Panics
    ///
    /// Panics if a session references an unknown router.
    pub fn build(mut self) -> Sim {
        let protocol = self.protocol;
        for ps in std::mem::take(&mut self.pending_sessions) {
            let PendingSession {
                a,
                b,
                kind,
                delay,
                relations,
            } = ps;
            assert!(self.routers.contains_key(&a), "unknown router {a}");
            assert!(self.routers.contains_key(&b), "unknown router {b}");
            // A second session on the same pair would silently overwrite the
            // first (and its relation/MRAI baking) — always a topology bug.
            assert!(
                !self.routers[&a].sessions.contains_key(&b),
                "duplicate session {a}–{b}"
            );
            let reverse_kind = match kind {
                SessionKind::Ebgp => SessionKind::Ebgp,
                SessionKind::Ibgp => SessionKind::Ibgp,
                // b is a's client; from b's side, a is a plain IBGP peer.
                SessionKind::IbgpClient => SessionKind::Ibgp,
            };
            self.routers
                .get_mut(&a)
                .expect("checked")
                .add_session(b, kind, delay);
            self.routers
                .get_mut(&b)
                .expect("checked")
                .add_session(a, reverse_kind, delay);
            // Bake relations and per-kind MRAI into each side.
            for (x, y, side_kind, rel) in
                [(a, b, kind, relations.0), (b, a, reverse_kind, relations.1)]
            {
                let s = self
                    .routers
                    .get_mut(&x)
                    .expect("checked")
                    .sessions
                    .get_mut(&y)
                    .expect("just added");
                s.relation = rel;
                s.mrai = if side_kind.is_ibgp() {
                    protocol.mrai.ibgp
                } else {
                    protocol.mrai.ebgp
                };
                s.mrai_limits_withdrawals = protocol.mrai.rate_limit_withdrawals;
            }
        }
        let mut sim = Sim::from_parts(self.routers, self.seed);
        sim.protocol = protocol;
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MraiConfig;

    fn rid(n: u8) -> RouterId {
        RouterId::from_octets(10, 0, 0, n)
    }

    #[test]
    fn symmetric_sessions() {
        let sim = SimBuilder::new(0)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        assert!(sim.router(rid(1)).unwrap().sessions.contains_key(&rid(2)));
        assert!(sim.router(rid(2)).unwrap().sessions.contains_key(&rid(1)));
    }

    #[test]
    fn client_relationship_asymmetric() {
        let sim = SimBuilder::new(0)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(1))
            .session(rid(1), rid(2), SessionKind::IbgpClient)
            .build();
        assert_eq!(
            sim.router(rid(1)).unwrap().sessions[&rid(2)].kind,
            SessionKind::IbgpClient
        );
        assert_eq!(
            sim.router(rid(2)).unwrap().sessions[&rid(1)].kind,
            SessionKind::Ibgp
        );
        assert!(sim.router(rid(1)).unwrap().reflector);
        assert!(!sim.router(rid(2)).unwrap().reflector);
    }

    #[test]
    #[should_panic(expected = "unknown router")]
    fn unknown_router_panics() {
        SimBuilder::new(0)
            .router(rid(1), Asn(1))
            .session(rid(1), rid(9), SessionKind::Ebgp)
            .build();
    }

    #[test]
    fn relations_and_mrai_baked_into_sessions() {
        let sim = SimBuilder::new(0)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .router(rid(3), Asn(3))
            .router(rid(4), Asn(1))
            .provider_customer(rid(1), rid(2))
            .peer_link(rid(2), rid(3))
            .session(rid(1), rid(4), SessionKind::Ibgp)
            .protocol(ProtocolConfig::default().with_mrai(MraiConfig::realistic()))
            .build();
        let r1 = sim.router(rid(1)).unwrap();
        let r2 = sim.router(rid(2)).unwrap();
        assert_eq!(r1.sessions[&rid(2)].relation, Some(PeerRelation::Customer));
        assert_eq!(r2.sessions[&rid(1)].relation, Some(PeerRelation::Provider));
        assert_eq!(r2.sessions[&rid(3)].relation, Some(PeerRelation::Peer));
        assert_eq!(r1.sessions[&rid(2)].mrai, Timestamp::from_secs(30));
        assert_eq!(r1.sessions[&rid(4)].mrai, Timestamp::from_secs(5));
        assert_eq!(r1.sessions[&rid(4)].relation, None);
    }
}
