//! The four seeded workloads: what each feeds the program, and why.
//!
//! Event time drives the 15-minute analysis window, so *events per window*
//! is the traffic dimension that decides which layer does the work. The
//! seed changes which prefixes, peers and AS numbers appear; the counts,
//! the spacing and therefore the number and size of windows are fixed, so
//! runs with different seeds do the same amount of work.

use crate::adapter::{self, Event, SimCost, Timestamp};

/// Background events per analysis window.
pub const GRASS_PER_WINDOW: u64 = 350;
/// Events in one session-flap spike.
const SPIKE_EVENTS: usize = 40_000;
/// The churn generator's prefix pool.
const PREFIX_POOL: usize = 20_000;
/// Event time between episodes of the `spike` workload.
const EPISODE_GAP_SECS: u64 = 2 * 3600;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Grass,
    Spike,
    Fanin,
    Live,
}

/// One workload: its inputs and the path they take through the program.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line: what the workload is for (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Archives the events are split into (peers dealt round-robin).
    pub sources: usize,
    pub shards: usize,
    /// Whether the incident recorder is armed.
    pub recorded: bool,
    /// Open-loop feed rate in events per second; `None` = closed loop
    /// through the archive ingest path.
    pub open_loop_rate: Option<f64>,
    /// Background events at full size.
    grass_events: usize,
    /// Session-flap spikes at full size.
    spikes: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::Grass,
        name: "grass",
        why: "350 events per window, one archive, one shard: small windows make stemming and classify do the work, and checkpoint or ring changes should show nothing",
        sources: 1,
        shards: 1,
        recorded: false,
        open_loop_rate: None,
        grass_events: 175_000,
        spikes: 0,
    },
    Workload {
        kind: Kind::Spike,
        name: "spike",
        why: "no background, 40k-event windows from session flaps, a simulated route leak and a MED oscillation: huge windows make the pipeline supervisor envelope do the work",
        sources: 1,
        shards: 1,
        recorded: false,
        open_loop_rate: None,
        grass_events: 0,
        spikes: 3,
    },
    Workload {
        kind: Kind::Fanin,
        name: "fanin",
        why: "background plus a spike split into four balanced archives, two shards, recorder armed: the only workload that exercises the k-way merge, shard routing and recording",
        sources: 4,
        shards: 2,
        recorded: true,
        open_loop_rate: None,
        grass_events: 140_000,
        spikes: 1,
    },
    Workload {
        kind: Kind::Live,
        name: "live",
        why: "background plus a spike fed open loop at 30,000 events/s through the spawned pipeline: the only workload with queueing, where a report later than 1 s counts as failed",
        sources: 1,
        shards: 1,
        recorded: false,
        open_loop_rate: Some(30_000.0),
        grass_events: 63_000,
        spikes: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own seeded randomness (AS numbers, seek
/// targets), independent of the program's generators.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn asn(&mut self) -> u32 {
        100 + (self.next_u64() % 29_900) as u32
    }
}

/// A workload's generated events (pre-augmentation, strictly increasing
/// timestamps) and what `netsim` spent producing them.
#[derive(Debug, Default)]
pub struct Generated {
    pub events: Vec<Event>,
    pub sim: SimCost,
}

impl Workload {
    /// Generates the workload's events from `seed` at `1 / shrink` of full
    /// size (`shrink` = 1 for measured runs, 20 for `--smoke`).
    pub fn generate(&self, seed: u64, shrink: usize) -> Generated {
        let mut rng = Rng(seed ^ 0xB6_5C0F_E000 ^ self.name.len() as u64);
        let spike_events = SPIKE_EVENTS / shrink;
        let mut out = Generated::default();
        match self.kind {
            Kind::Spike => {
                let mut episode = 0;
                let mut next_start = || {
                    episode += 1;
                    Timestamp::from_secs((episode - 1) * EPISODE_GAP_SECS)
                };
                for j in 0..self.spikes {
                    out.events.extend(adapter::flap_spike(
                        j as u8,
                        spike_events,
                        next_start(),
                        || rng.asn(),
                    ));
                }
                let (leak, cost) = adapter::leak_episode(seed, 0.1 / shrink as f64, next_start());
                out.events.extend(leak);
                out.sim = cost;
                let (oscillation, cost) =
                    adapter::oscillation_episode(seed, (3_000 / shrink) as u32, next_start());
                out.events.extend(oscillation);
                out.sim.wall_s += cost.wall_s;
                out.sim.deliveries += cost.deliveries;
            }
            Kind::Grass | Kind::Fanin | Kind::Live => {
                let spacing = adapter::window_micros().div_ceil(GRASS_PER_WINDOW);
                let grass = self.grass_events / shrink;
                out.events = adapter::churn_events(seed, PREFIX_POOL / shrink, grass, || rng.asn());
                for (i, event) in out.events.iter_mut().enumerate() {
                    event.time = Timestamp(i as u64 * spacing);
                }
                for j in 0..self.spikes {
                    // Half a window past a nominal window boundary. The real
                    // boundaries drift later by one spacing whenever the
                    // event due to open a window is a withdrawal that
                    // augmentation filters — by tens of seconds over a run,
                    // depending on the seed — and a spike placed near one
                    // would split in two for some seeds only.
                    let anchor = (j + 1) * grass / (self.spikes + 1);
                    let boundary = anchor as u64 / GRASS_PER_WINDOW * GRASS_PER_WINDOW;
                    let start = Timestamp(boundary * spacing + adapter::window_micros() / 2);
                    out.events
                        .extend(adapter::flap_spike(j as u8, spike_events, start, || {
                            rng.asn()
                        }));
                }
                out.events.sort_by_key(|e| e.time);
            }
        }
        strictly_increasing(&mut out.events);
        out
    }
}

/// Bumps equal or backward timestamps forward by 1 µs each, so a stream
/// has one total order however it is later split and merged.
fn strictly_increasing(events: &mut [Event]) {
    for i in 1..events.len() {
        if events[i].time <= events[i - 1].time {
            events[i].time = Timestamp(events[i - 1].time.as_micros() + 1);
        }
    }
}

/// Splits a stream into `n` per-collector streams, dealing peers
/// round-robin in order of first appearance. (Partitioning by the shard
/// router, as the old `bench_ingest` did, left two of four sources empty.)
pub fn partition(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    let mut peers: Vec<u32> = Vec::new();
    let mut parts = vec![Vec::new(); n];
    for event in events {
        let key = adapter::peer_key(event);
        let slot = match peers.iter().position(|&p| p == key) {
            Some(slot) => slot,
            None => {
                peers.push(key);
                peers.len() - 1
            }
        };
        parts[slot % n].push(event.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for workload in &WORKLOADS {
            let a = workload.generate(7, 20);
            let b = workload.generate(7, 20);
            let c = workload.generate(8, 20);
            assert_eq!(a.events, b.events, "{}", workload.name);
            assert_ne!(a.events, c.events, "{}", workload.name);
            // The simulated episodes of `spike` jitter with the seed; every
            // other count is fixed.
            let (n, other) = (a.events.len() as f64, c.events.len() as f64);
            assert!(
                (n - other).abs() <= 0.05 * n,
                "{}: {n} vs {other}",
                workload.name
            );
            if workload.kind != Kind::Spike {
                assert_eq!(n, other, "{}", workload.name);
            }
            assert!(
                a.events.windows(2).all(|w| w[0].time < w[1].time),
                "{} timestamps strictly increase",
                workload.name
            );
        }
    }

    #[test]
    fn fanin_partition_is_balanced_and_lossless() {
        let fanin = by_name("fanin").unwrap();
        let generated = fanin.generate(3, 20);
        let parts = partition(&generated.events, fanin.sources);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, generated.events.len());
        let mean = total as f64 / parts.len() as f64;
        let min = parts.iter().map(Vec::len).min().unwrap() as f64;
        assert!(min / mean >= 0.5, "source share {}", min / mean);
    }
}
