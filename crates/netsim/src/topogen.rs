//! Internet-scale topology generation.
//!
//! [`TopologyGen`] grows Gao-Rexford-style customer/provider/peer
//! hierarchies: a tier-1 clique (settlement-free peers), a mid-tier of
//! transit providers, and a large fringe of stub ASes attached by
//! **preferential attachment** — each new customer picks providers with
//! probability proportional to current degree, which yields the
//! degree-skewed (heavy-tailed) connectivity of the real AS graph. All
//! randomness comes from one seeded generator, so the same `(seed, shape)`
//! always produces the same topology, independent of the simulation seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bgpscope_bgp::{splitmix64, Asn, RouterId, Timestamp};

use crate::config::ProtocolConfig;
use crate::engine::Sim;
use crate::topology::SimBuilder;

/// Which layer of the hierarchy a generated AS belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Member of the top clique (peers with every other tier-1).
    Tier1,
    /// Transit provider below the clique; may peer laterally.
    Mid,
    /// Fringe AS: customers only, no transit.
    Stub,
}

/// One generated AS.
#[derive(Debug, Clone, Copy)]
pub struct GenNode {
    /// Router identity (one router per AS).
    pub id: RouterId,
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy layer.
    pub tier: Tier,
}

/// The generated graph, before it becomes a [`Sim`].
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    /// All ASes, index order = generation order (tier-1s first, then mids,
    /// then stubs).
    pub nodes: Vec<GenNode>,
    /// Transit edges as `(provider, customer)`.
    pub provider_edges: Vec<(RouterId, RouterId)>,
    /// Lateral settlement-free edges.
    pub peer_edges: Vec<(RouterId, RouterId)>,
    seed: u64,
}

impl GeneratedTopology {
    /// All stub ASes.
    pub fn stubs(&self) -> impl Iterator<Item = &GenNode> {
        self.nodes.iter().filter(|n| n.tier == Tier::Stub)
    }

    /// Session degree of a router.
    pub fn degree(&self, id: RouterId) -> usize {
        self.provider_edges
            .iter()
            .filter(|&&(p, c)| p == id || c == id)
            .count()
            + self
                .peer_edges
                .iter()
                .filter(|&&(a, b)| a == id || b == id)
                .count()
    }

    /// The providers of an AS (empty for tier-1s).
    pub fn providers_of(&self, id: RouterId) -> Vec<RouterId> {
        self.provider_edges
            .iter()
            .filter(|&&(_, c)| c == id)
            .map(|&(p, _)| p)
            .collect()
    }

    /// A deterministic spread of `n` distinct stubs, varied by `salt`
    /// (useful for picking originators and flap victims in tests).
    pub fn sample_stubs(&self, n: usize, salt: u64) -> Vec<RouterId> {
        let stubs: Vec<RouterId> = self.stubs().map(|s| s.id).collect();
        if stubs.is_empty() {
            return Vec::new();
        }
        let mut picked = Vec::with_capacity(n);
        let mut cursor = splitmix64(self.seed ^ salt);
        while picked.len() < n.min(stubs.len()) {
            let candidate = stubs[(cursor % stubs.len() as u64) as usize];
            if !picked.contains(&candidate) {
                picked.push(candidate);
            }
            cursor = splitmix64(cursor);
        }
        picked
    }
}

/// Builder for Gao-Rexford hierarchies at up to tens of thousands of ASes.
#[derive(Debug, Clone)]
pub struct TopologyGen {
    seed: u64,
    ases: usize,
    tier1: Option<usize>,
    mids: Option<usize>,
    /// Maximum providers a multihomed stub attaches to.
    max_providers: usize,
    /// Per-mille probability of a lateral peer link between any two mids.
    peer_prob_per_mille: u16,
    /// How many mid-tier routers feed the collector.
    monitors: usize,
    protocol: ProtocolConfig,
}

impl TopologyGen {
    /// A generator for `ases` ASes with shape defaults scaled to the size.
    pub fn new(seed: u64, ases: usize) -> Self {
        TopologyGen {
            seed,
            ases: ases.max(2),
            tier1: None,
            mids: None,
            max_providers: 3,
            peer_prob_per_mille: 10,
            monitors: 2,
            protocol: ProtocolConfig::default(),
        }
    }

    /// Overrides the tier-1 clique size (default: `ases/50` clamped to 3–12).
    #[must_use]
    pub fn tier1(mut self, n: usize) -> Self {
        self.tier1 = Some(n.max(1));
        self
    }

    /// Overrides the mid-tier size (default: `ases/10`).
    #[must_use]
    pub fn mids(mut self, n: usize) -> Self {
        self.mids = Some(n);
        self
    }

    /// Caps stub multihoming (default 3 providers).
    #[must_use]
    pub fn max_providers(mut self, n: usize) -> Self {
        self.max_providers = n.max(1);
        self
    }

    /// Sets the per-mille lateral peering probability between mids.
    #[must_use]
    pub fn peer_prob_per_mille(mut self, p: u16) -> Self {
        self.peer_prob_per_mille = p.min(1000);
        self
    }

    /// Sets how many mid-tier routers the collector observes (default 2).
    #[must_use]
    pub fn monitors(mut self, n: usize) -> Self {
        self.monitors = n;
        self
    }

    /// Sets the protocol timing of the built sim.
    #[must_use]
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    fn shape(&self) -> (usize, usize, usize) {
        let n = self.ases;
        let tier1 = self.tier1.unwrap_or((n / 50).clamp(3, 12)).min(n);
        let mids = self.mids.unwrap_or(n / 10).min(n - tier1);
        let stubs = n - tier1 - mids;
        (tier1, mids, stubs)
    }

    /// Generates the graph (no routers yet).
    pub fn generate(&self) -> GeneratedTopology {
        let (tier1, mids, stubs) = self.shape();
        let n = tier1 + mids + stubs;
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0x746f_706f_6765_6e01));

        let id_of = |i: usize| RouterId::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let mut nodes: Vec<GenNode> = Vec::with_capacity(n);
        for i in 0..n {
            let tier = if i < tier1 {
                Tier::Tier1
            } else if i < tier1 + mids {
                Tier::Mid
            } else {
                Tier::Stub
            };
            nodes.push(GenNode {
                id: id_of(i),
                asn: Asn(i as u32 + 1),
                tier,
            });
        }

        let mut degree = vec![0u32; n];
        let mut provider_edges: Vec<(usize, usize)> = Vec::new();
        let mut peer_edges: Vec<(usize, usize)> = Vec::new();

        // Tier-1 clique.
        for i in 0..tier1 {
            for j in (i + 1)..tier1 {
                peer_edges.push((i, j));
                degree[i] += 1;
                degree[j] += 1;
            }
        }

        // Degree-weighted provider pick among indices `0..limit`.
        let pick_provider = |rng: &mut StdRng, degree: &[u32], limit: usize, taken: &[usize]| {
            let total: u64 = degree[..limit].iter().map(|&d| d as u64 + 1).sum();
            for _ in 0..8 {
                let mut roll = rng.gen_range(0..total);
                let mut choice = 0;
                for (i, &d) in degree[..limit].iter().enumerate() {
                    let w = d as u64 + 1;
                    if roll < w {
                        choice = i;
                        break;
                    }
                    roll -= w;
                }
                if !taken.contains(&choice) {
                    return Some(choice);
                }
            }
            // Dense small graphs: fall back to the first untaken index.
            (0..limit).find(|i| !taken.contains(i))
        };

        // Mids: one or two providers among everything above them.
        for i in tier1..tier1 + mids {
            let want = if rng.gen_range(0..1000u32) < 300 {
                2
            } else {
                1
            };
            let mut taken: Vec<usize> = Vec::with_capacity(want);
            for _ in 0..want.min(i) {
                if let Some(p) = pick_provider(&mut rng, &degree, i, &taken) {
                    taken.push(p);
                }
            }
            for p in taken {
                provider_edges.push((p, i));
                degree[p] += 1;
                degree[i] += 1;
            }
        }

        // Mid lateral peering. A pair already on a transit edge keeps it —
        // one session per router pair, and the business relation with it.
        if self.peer_prob_per_mille > 0 {
            let transit_pairs: std::collections::HashSet<(usize, usize)> = provider_edges
                .iter()
                .map(|&(p, c)| (p.min(c), p.max(c)))
                .collect();
            for i in tier1..tier1 + mids {
                for j in (i + 1)..tier1 + mids {
                    if transit_pairs.contains(&(i, j)) {
                        continue;
                    }
                    if rng.gen_range(0..1000u32) < self.peer_prob_per_mille as u32 {
                        peer_edges.push((i, j));
                        degree[i] += 1;
                        degree[j] += 1;
                    }
                }
            }
        }

        // Stubs: preferential attachment to the transit core, skewed
        // toward single-homing.
        let transit = tier1 + mids;
        for i in transit..n {
            let roll = rng.gen_range(0..1000u32);
            let want = if roll < 80 {
                3
            } else if roll < 380 {
                2
            } else {
                1
            }
            .min(self.max_providers)
            .min(transit);
            let mut taken: Vec<usize> = Vec::with_capacity(want);
            for _ in 0..want {
                if let Some(p) = pick_provider(&mut rng, &degree, transit, &taken) {
                    taken.push(p);
                }
            }
            for p in taken {
                provider_edges.push((p, i));
                degree[p] += 1;
                degree[i] += 1;
            }
        }

        GeneratedTopology {
            provider_edges: provider_edges
                .into_iter()
                .map(|(p, c)| (nodes[p].id, nodes[c].id))
                .collect(),
            peer_edges: peer_edges
                .into_iter()
                .map(|(a, b)| (nodes[a].id, nodes[b].id))
                .collect(),
            nodes,
            seed: self.seed,
        }
    }

    /// Generates the graph and builds the simulator: one router per AS,
    /// relationship-tagged eBGP sessions with per-link delays in
    /// 5–25 ms, and the first [`TopologyGen::monitors`] mid-tier routers
    /// feeding the collector.
    pub fn build(&self) -> (Sim, GeneratedTopology) {
        let topo = self.generate();
        let mut delay_rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0x746f_706f_6765_6e02));
        let mut builder = SimBuilder::new(self.seed).protocol(self.protocol);
        for node in &topo.nodes {
            builder = builder.router(node.id, node.asn);
        }
        for &(p, c) in &topo.provider_edges {
            let delay = Timestamp::from_millis(delay_rng.gen_range(5..=25u64));
            builder = builder.provider_customer_with_delay(p, c, delay);
        }
        for &(a, b) in &topo.peer_edges {
            let delay = Timestamp::from_millis(delay_rng.gen_range(5..=25u64));
            builder = builder.peer_link_with_delay(a, b, delay);
        }
        let monitor_ids: Vec<RouterId> = topo
            .nodes
            .iter()
            .filter(|n| n.tier == Tier::Mid)
            .take(self.monitors)
            .map(|n| n.id)
            .collect();
        let fallback: Vec<RouterId> = if monitor_ids.is_empty() {
            topo.nodes
                .iter()
                .take(self.monitors)
                .map(|n| n.id)
                .collect()
        } else {
            monitor_ids
        };
        for id in fallback {
            builder = builder.monitor(id);
        }
        (builder.build(), topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_is_deterministic_and_sized() {
        let g1 = TopologyGen::new(11, 200).generate();
        let g2 = TopologyGen::new(11, 200).generate();
        assert_eq!(g1.nodes.len(), 200);
        assert_eq!(g1.provider_edges, g2.provider_edges);
        assert_eq!(g1.peer_edges, g2.peer_edges);
        // Every non-tier-1 AS has at least one provider.
        for node in &g1.nodes {
            if node.tier != Tier::Tier1 {
                assert!(
                    !g1.providers_of(node.id).is_empty(),
                    "{:?} has no provider",
                    node.id
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = TopologyGen::new(1, 200).generate();
        let g2 = TopologyGen::new(2, 200).generate();
        assert_ne!(g1.provider_edges, g2.provider_edges);
    }

    #[test]
    fn attachment_is_degree_skewed() {
        let g = TopologyGen::new(7, 600).generate();
        let mut transit_degrees: Vec<usize> = g
            .nodes
            .iter()
            .filter(|n| n.tier != Tier::Stub)
            .map(|n| g.degree(n.id))
            .collect();
        transit_degrees.sort_unstable();
        let median = transit_degrees[transit_degrees.len() / 2];
        let max = *transit_degrees.last().unwrap();
        assert!(
            max >= median.saturating_mul(4),
            "no heavy tail: median {median}, max {max}"
        );
    }

    #[test]
    fn sample_stubs_is_deterministic_and_distinct() {
        let g = TopologyGen::new(3, 120).generate();
        let a = g.sample_stubs(8, 42);
        let b = g.sample_stubs(8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "samples are distinct");
        let c = g.sample_stubs(8, 43);
        assert_ne!(a, c, "salt varies the sample");
    }

    #[test]
    fn built_sim_converges_valley_free() {
        let (mut sim, topo) = TopologyGen::new(9, 120).build();
        let origins = topo.sample_stubs(3, 1);
        for (i, &origin) in origins.iter().enumerate() {
            sim.originate(
                origin,
                bgpscope_bgp::Prefix::from_octets(30, i as u8, 0, 0, 16),
                Timestamp::from_millis(i as u64),
            );
        }
        sim.run_to_completion();
        // Every router learned every prefix (valley-free still connects
        // the whole hierarchy through the tier-1 clique).
        for node in &topo.nodes {
            let r = sim.router(node.id).unwrap();
            assert_eq!(
                r.rib.prefix_count(),
                origins.len(),
                "router {:?} missing prefixes",
                node.id
            );
        }
    }
}
