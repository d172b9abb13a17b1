//! The discrete-event engine.
//!
//! # Determinism contract (the two-RNG design)
//!
//! Two independent random sources, both derived from the builder seed, and
//! neither may perturb the other:
//!
//! - **Delivery jitter** comes from a *per-session* stream: each
//!   `(from, to)` pair lazily seeds its own [`StdRng`] from
//!   `splitmix64(jitter_seed ^ mix(from, to))`. Adding a fault (or any
//!   traffic) on one session cannot shift the jitter draws — and therefore
//!   the delivery timestamps — of any other session.
//! - **Tie-shuffle** of equal-timestamp events uses a *keyed hash*, not a
//!   sequential stream: each queued event gets a tie key
//!   `splitmix64(schedule_seed ^ h(time) ^ h(channel))` where the channel
//!   identifies the actor pair (session, router×prefix, …). Equal-time
//!   events from different channels are ordered pseudorandomly by seed;
//!   equal-time events on the *same* channel fall back to FIFO push order.
//!   Because the key depends only on (seed, time, channel) — never on how
//!   many events were pushed before — editing a fault plan reorders nothing
//!   it doesn't touch.
//!
//! Same seed ⇒ bit-identical collector feeds, IGP logs, and stats. A
//! different `schedule_seed` reorders equal-time ties but preserves
//! per-session FIFO (TCP ordering is enforced by `session_clock` on top).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bgpscope_bgp::{splitmix64, PathAttributes, Prefix, RouterId, Timestamp, UpdateMessage};
use bgpscope_igp::{IgpEvent, IgpEventKind, IgpEventLog};

use crate::config::ProtocolConfig;
use crate::router::{Outbound, Router, SessionState};

/// A scheduled action.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Deliver a BGP message over a session.
    Deliver {
        /// Sender.
        from: RouterId,
        /// Receiver.
        to: RouterId,
        /// The message.
        msg: UpdateMessage,
    },
    /// Fail the link between two routers: the link goes silent and each
    /// Established side notices when its hold timer expires — at once
    /// under the default zero hold time.
    SessionDown(RouterId, RouterId),
    /// Restore the link: Idle sides re-run the connect path and exchange
    /// tables once established — at once under the default zero timers.
    SessionUp(RouterId, RouterId),
    /// Locally originate (`Some`) or withdraw (`None`) a route at a router.
    Originate {
        /// The originating router.
        router: RouterId,
        /// The prefix.
        prefix: Prefix,
        /// New attributes, or `None` to withdraw.
        attrs: Option<PathAttributes>,
    },
    /// Change the IGP cost a router sees toward a nexthop.
    IgpMetricChange {
        /// The router whose view changes.
        router: RouterId,
        /// The nexthop whose cost changes.
        nexthop: RouterId,
        /// The new cost.
        cost: u32,
    },
    /// MRAI timer expiry: flush staged changes on the `from → to` session.
    MraiExpire {
        /// Sender side owning the timer.
        from: RouterId,
        /// The paced session's remote router.
        to: RouterId,
    },
    /// Hold-timer expiry: `router` notices its session to `peer` is dead.
    HoldExpire {
        /// The detecting side.
        router: RouterId,
        /// The remote router.
        peer: RouterId,
        /// Session epoch at scheduling time (stale events no-op).
        epoch: u64,
    },
    /// Connect-retry timer: `router` moves Idle → Connect toward `peer`.
    ConnectRetry {
        /// The retrying side.
        router: RouterId,
        /// The remote router.
        peer: RouterId,
        /// Session epoch at scheduling time (stale events no-op).
        epoch: u64,
    },
    /// Establishment completes: both sides go Established and exchange
    /// full tables (MRAI-paced where configured).
    Establish {
        /// One side.
        a: RouterId,
        /// The other side.
        b: RouterId,
        /// `a`'s session epoch at scheduling time.
        epoch_a: u64,
        /// `b`'s session epoch at scheduling time.
        epoch_b: u64,
    },
}

/// The tie-shuffle channel of an action: equal-time events on different
/// channels get independent pseudorandom tie keys; same-channel events keep
/// FIFO push order (which per-session TCP ordering requires anyway).
fn action_channel(action: &Action) -> u64 {
    fn chan(tag: u64, a: u32, b: u32) -> u64 {
        (tag << 56) ^ ((a as u64) << 24) ^ (b as u64)
    }
    match action {
        Action::Deliver { from, to, .. } => chan(1, from.0, to.0),
        Action::SessionDown(a, b) => chan(2, a.0, b.0),
        Action::SessionUp(a, b) => chan(3, a.0, b.0),
        Action::Originate { router, prefix, .. } => {
            chan(4, router.0, prefix.addr() ^ (prefix.len() as u32))
        }
        Action::IgpMetricChange {
            router, nexthop, ..
        } => chan(5, router.0, nexthop.0),
        Action::MraiExpire { from, to } => chan(6, from.0, to.0),
        Action::HoldExpire { router, peer, .. } => chan(7, router.0, peer.0),
        Action::ConnectRetry { router, peer, .. } => chan(8, router.0, peer.0),
        Action::Establish { a, b, .. } => chan(9, a.0, b.0),
    }
}

#[derive(Debug, Clone)]
struct Queued {
    time: Timestamp,
    tie: u64,
    seq: u64,
    action: Action,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie, self.seq).cmp(&(other.time, other.tie, other.seq))
    }
}

/// Aggregate simulation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// BGP messages delivered over sessions.
    pub messages_delivered: u64,
    /// Prefix-level changes inside those messages.
    pub prefix_changes: u64,
    /// Messages that arrived on a down session (or dead link) and were
    /// dropped.
    pub dropped_on_down_session: u64,
    /// Link/session down events executed.
    pub session_downs: u64,
    /// Session establishments (FSM completions).
    pub session_ups: u64,
    /// MRAI flushes that put at least one UPDATE on the wire.
    pub mrai_flushes: u64,
    /// Per-prefix changes absorbed inside an MRAI window before reaching
    /// the wire (last-writer-wins overwrites and net-no-change cancels).
    pub mrai_coalesced: u64,
    /// Hold-timer expiries (FSM down-detections).
    pub hold_expiries: u64,
    /// Idle → Connect transitions (FSM reconnect attempts).
    pub connect_retries: u64,
    /// Time of the last delivered message — the quiescence point of a run
    /// (trailing timer no-ops don't move it).
    pub last_delivery: Timestamp,
}

/// What a finished run hands back.
#[derive(Debug)]
pub struct SimOutput {
    /// The collector's inbound feed: raw updates with receive timestamps.
    pub collector_feed: Vec<(UpdateMessage, Timestamp)>,
    /// The IGP event log (metric changes recorded during the run).
    pub igp_log: IgpEventLog,
    /// Counters.
    pub stats: SimStats,
}

/// The simulator: routers plus a time-ordered action queue.
///
/// Build with [`crate::SimBuilder`].
#[derive(Debug)]
pub struct Sim {
    pub(crate) routers: HashMap<RouterId, Router>,
    queue: BinaryHeap<Reverse<Queued>>,
    now: Timestamp,
    seq: u64,
    /// Seed for the per-session delivery-jitter streams.
    jitter_seed: u64,
    /// Seed for the equal-time tie-shuffle keys.
    schedule_seed: u64,
    /// Lazily created per-session jitter streams (see module docs).
    jitter_rngs: HashMap<(RouterId, RouterId), StdRng>,
    /// Protocol timing (FSM timers, MRAI interval jitter). Per-session MRAI
    /// intervals are baked into the sessions at build time.
    pub protocol: ProtocolConfig,
    /// Physical link state per normalized router pair: what
    /// `SessionDown`/`SessionUp` toggle; sessions only notice through
    /// their timers.
    link_up: HashMap<(RouterId, RouterId), bool>,
    /// Max extra per-delivery jitter in microseconds.
    pub jitter_max_micros: u64,
    /// Delay from a monitored router to the collector.
    pub collector_delay: Timestamp,
    collector_feed: Vec<(UpdateMessage, Timestamp)>,
    igp_log: IgpEventLog,
    stats: SimStats,
    /// Last scheduled delivery per (from, to) session — BGP runs over TCP,
    /// so deliveries on one session must stay FIFO even under jitter.
    session_clock: HashMap<(RouterId, RouterId), Timestamp>,
    /// Safety cap on deliveries (a runaway oscillation is *supposed* to be
    /// unbounded; the cap bounds the experiment).
    pub max_deliveries: u64,
    /// When true, every delivered message is appended to the delivery log
    /// (off by default: the log is for conformance/determinism tests).
    pub record_deliveries: bool,
    delivery_log: Vec<(RouterId, RouterId, UpdateMessage, Timestamp)>,
}

fn link_key(a: RouterId, b: RouterId) -> (RouterId, RouterId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Sim {
    pub(crate) fn from_parts(routers: HashMap<RouterId, Router>, seed: u64) -> Self {
        let mut link_up = HashMap::new();
        for (id, router) in &routers {
            for peer in router.sessions.keys() {
                link_up.insert(link_key(*id, *peer), true);
            }
        }
        Sim {
            routers,
            queue: BinaryHeap::new(),
            now: Timestamp::ZERO,
            seq: 0,
            jitter_seed: splitmix64(seed ^ 0x6a69_7474_6572_0001), // "jitter"
            schedule_seed: splitmix64(seed ^ 0x7363_6865_6475_0002), // "schedu"
            jitter_rngs: HashMap::new(),
            protocol: ProtocolConfig::default(),
            link_up,
            jitter_max_micros: 2_000,
            collector_delay: Timestamp::from_millis(1),
            collector_feed: Vec::new(),
            igp_log: IgpEventLog::new(),
            stats: SimStats::default(),
            session_clock: HashMap::new(),
            max_deliveries: 50_000_000,
            record_deliveries: false,
            delivery_log: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Read access to a router.
    pub fn router(&self, id: RouterId) -> Option<&Router> {
        self.routers.get(&id)
    }

    /// Mutable access to a router (e.g. to attach a config mid-experiment).
    pub fn router_mut(&mut self, id: RouterId) -> Option<&mut Router> {
        self.routers.get_mut(&id)
    }

    /// Counters so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Replaces the tie-shuffle seed (determinism experiments): equal-time
    /// ties reorder, per-session FIFO and jitter draws stay fixed.
    pub fn reseed_schedule(&mut self, seed: u64) {
        self.schedule_seed = splitmix64(seed ^ 0x7363_6865_6475_0002);
    }

    /// Whether the physical link between `a` and `b` is up.
    pub fn link_is_up(&self, a: RouterId, b: RouterId) -> bool {
        *self.link_up.get(&link_key(a, b)).unwrap_or(&true)
    }

    fn push(&mut self, time: Timestamp, action: Action) {
        self.seq += 1;
        let tie = splitmix64(
            self.schedule_seed ^ splitmix64(time.as_micros()) ^ splitmix64(action_channel(&action)),
        );
        self.queue.push(Reverse(Queued {
            time,
            tie,
            seq: self.seq,
            action,
        }));
    }

    /// Schedules a local route origination with default local attributes.
    pub fn originate(&mut self, router: RouterId, prefix: Prefix, at: Timestamp) {
        let attrs = self
            .routers
            .get(&router)
            .map(|r| r.local_attrs(prefix))
            .unwrap_or_else(|| PathAttributes::new(router, bgpscope_bgp::AsPath::empty()));
        self.push(
            at,
            Action::Originate {
                router,
                prefix,
                attrs: Some(attrs),
            },
        );
    }

    /// Schedules a route origination with explicit attributes (used by
    /// injectors to model routes heard from unmodeled downstream ASes).
    pub fn originate_with(
        &mut self,
        router: RouterId,
        prefix: Prefix,
        attrs: PathAttributes,
        at: Timestamp,
    ) {
        self.push(
            at,
            Action::Originate {
                router,
                prefix,
                attrs: Some(attrs),
            },
        );
    }

    /// Schedules a local withdrawal.
    pub fn withdraw(&mut self, router: RouterId, prefix: Prefix, at: Timestamp) {
        self.push(
            at,
            Action::Originate {
                router,
                prefix,
                attrs: None,
            },
        );
    }

    /// Schedules a link failure / session teardown.
    pub fn session_down(&mut self, a: RouterId, b: RouterId, at: Timestamp) {
        self.push(at, Action::SessionDown(a, b));
    }

    /// Schedules a link restoration / session (re-)establishment.
    pub fn session_up(&mut self, a: RouterId, b: RouterId, at: Timestamp) {
        self.push(at, Action::SessionUp(a, b));
    }

    /// Schedules an IGP metric change at `router` toward `nexthop`.
    pub fn igp_metric_change(
        &mut self,
        router: RouterId,
        nexthop: RouterId,
        cost: u32,
        at: Timestamp,
    ) {
        self.push(
            at,
            Action::IgpMetricChange {
                router,
                nexthop,
                cost,
            },
        );
    }

    /// Per-session delivery jitter draw (see the determinism contract).
    fn draw_jitter(&mut self, from: RouterId, to: RouterId) -> u64 {
        if self.jitter_max_micros == 0 {
            return 0;
        }
        let max = self.jitter_max_micros;
        let seed = self.jitter_seed;
        let rng = self.jitter_rngs.entry((from, to)).or_insert_with(|| {
            StdRng::seed_from_u64(splitmix64(seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64)))
        });
        rng.gen_range(0..=max)
    }

    /// The next MRAI interval for a session: `base` shortened by up to
    /// `jitter_per_mille` (drawn from the session's own jitter stream, so
    /// MRAI jitter is session-local too).
    fn draw_mrai_interval(&mut self, from: RouterId, to: RouterId, base: Timestamp) -> Timestamp {
        let jpm = self.protocol.mrai.jitter_per_mille as u64;
        if jpm == 0 || base == Timestamp::ZERO {
            return base;
        }
        let span = base.as_micros() * jpm / 1000;
        let seed = self.jitter_seed;
        let rng = self.jitter_rngs.entry((from, to)).or_insert_with(|| {
            StdRng::seed_from_u64(splitmix64(seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64)))
        });
        let cut = rng.gen_range(0..=span);
        Timestamp(base.as_micros() - cut)
    }

    fn schedule_outbound(&mut self, from: RouterId, out: Vec<Outbound>) {
        for (dest, msg) in out {
            match dest {
                None => {
                    let t = self.now + self.collector_delay;
                    self.collector_feed.push((msg, t));
                }
                Some(to) => {
                    let delay = self
                        .routers
                        .get(&from)
                        .and_then(|r| r.sessions.get(&to))
                        .map(|s| s.delay)
                        .unwrap_or(Timestamp::from_millis(10));
                    let jitter = self.draw_jitter(from, to);
                    let mut t = self.now + delay + Timestamp::from_micros(jitter);
                    // FIFO per session: never deliver before an earlier
                    // message on the same (from, to) pair (TCP ordering).
                    if let Some(&last) = self.session_clock.get(&(from, to)) {
                        if t <= last {
                            t = Timestamp(last.as_micros() + 1);
                        }
                    }
                    self.session_clock.insert((from, to), t);
                    self.push(t, Action::Deliver { from, to, msg });
                }
            }
        }
    }

    /// Routes a router's output to the wire, then services any sessions it
    /// left with staged MRAI changes (flush now or arm the timer).
    fn dispatch(&mut self, from: RouterId, out: Vec<Outbound>) {
        self.schedule_outbound(from, out);
        self.service_mrai(from);
    }

    /// Drains a router's dirty-session list: flush immediately where the
    /// MRAI window is open, otherwise arm a single `MraiExpire` timer.
    fn service_mrai(&mut self, id: RouterId) {
        let (dirty, coalesced) = match self.routers.get_mut(&id) {
            Some(r) => (r.take_dirty_sessions(), r.take_coalesced()),
            None => return,
        };
        self.stats.mrai_coalesced += coalesced;
        for peer in dirty {
            let Some(s) = self.routers.get(&id).and_then(|r| r.sessions.get(&peer)) else {
                continue;
            };
            if s.pending.is_empty() || s.mrai_timer_armed {
                continue;
            }
            let next_allowed = s.next_allowed;
            if self.now >= next_allowed {
                self.flush_mrai(id, peer);
            } else {
                if let Some(s) = self
                    .routers
                    .get_mut(&id)
                    .and_then(|r| r.sessions.get_mut(&peer))
                {
                    s.mrai_timer_armed = true;
                }
                self.push(next_allowed, Action::MraiExpire { from: id, to: peer });
            }
        }
    }

    /// Flushes a paced session now: batched UPDATEs onto the wire, next
    /// window stamped with a (possibly jittered) fresh interval.
    fn flush_mrai(&mut self, from: RouterId, to: RouterId) {
        let msgs = self
            .routers
            .get_mut(&from)
            .map(|r| r.flush_session(to))
            .unwrap_or_default();
        if msgs.is_empty() {
            return;
        }
        let base = self
            .routers
            .get(&from)
            .and_then(|r| r.sessions.get(&to))
            .map(|s| s.mrai)
            .unwrap_or(Timestamp::ZERO);
        let interval = self.draw_mrai_interval(from, to, base);
        if let Some(s) = self
            .routers
            .get_mut(&from)
            .and_then(|r| r.sessions.get_mut(&to))
        {
            s.next_allowed = self.now + interval;
        }
        self.stats.mrai_flushes += 1;
        let out: Vec<Outbound> = msgs.into_iter().map(|m| (Some(to), m)).collect();
        self.schedule_outbound(from, out);
    }

    /// Link failure: the link goes silent; Established sides notice at
    /// hold-timer expiry (at once under the default zero hold time).
    fn fail_link(&mut self, a: RouterId, b: RouterId) {
        if !self.link_is_up(a, b) {
            return;
        }
        let session_exists = self
            .routers
            .get(&a)
            .is_some_and(|r| r.sessions.contains_key(&b));
        self.link_up.insert(link_key(a, b), false);
        if !session_exists {
            return;
        }
        self.stats.session_downs += 1;
        let hold = self.protocol.fsm.hold_time;
        for (x, y) in [(a, b), (b, a)] {
            if let Some(s) = self.routers.get(&x).and_then(|r| r.sessions.get(&y)) {
                if s.is_established() {
                    let epoch = s.epoch;
                    self.push(
                        self.now + hold,
                        Action::HoldExpire {
                            router: x,
                            peer: y,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    /// Link restoration: kick Idle sides onto the connect path.
    fn restore_link(&mut self, a: RouterId, b: RouterId) {
        if self.link_is_up(a, b) {
            return;
        }
        self.link_up.insert(link_key(a, b), true);
        for (x, y) in [(a, b), (b, a)] {
            if let Some(s) = self.routers.get(&x).and_then(|r| r.sessions.get(&y)) {
                if s.state == SessionState::Idle {
                    let epoch = s.epoch;
                    self.push(
                        self.now,
                        Action::ConnectRetry {
                            router: x,
                            peer: y,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    fn execute(&mut self, action: Action) {
        match action {
            Action::Deliver { from, to, msg } => {
                let session_open = self
                    .routers
                    .get(&to)
                    .and_then(|r| r.sessions.get(&from))
                    .map(|s| s.is_established())
                    .unwrap_or(false);
                if !session_open || !self.link_is_up(from, to) {
                    self.stats.dropped_on_down_session += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.prefix_changes += msg.change_count() as u64;
                self.stats.last_delivery = self.now;
                if self.record_deliveries {
                    self.delivery_log.push((from, to, msg.clone(), self.now));
                }
                let now = self.now;
                let out = self
                    .routers
                    .get_mut(&to)
                    .expect("router exists")
                    .process_update(from, &msg, now);
                self.dispatch(to, out);
                // maximum-prefix fuse: the receiving side tears the session
                // down if the sender exceeds its configured limit.
                let router = self.routers.get(&to).expect("router exists");
                if let Some(limit) = router.max_prefix_limit(from) {
                    if router.routes_from(from) > limit as usize {
                        self.push(self.now, Action::SessionDown(to, from));
                    }
                }
            }
            Action::SessionDown(a, b) => self.fail_link(a, b),
            Action::SessionUp(a, b) => self.restore_link(a, b),
            Action::Originate {
                router,
                prefix,
                attrs,
            } => {
                let now = self.now;
                let out = self
                    .routers
                    .get_mut(&router)
                    .map(|r| r.originate(prefix, attrs, now))
                    .unwrap_or_default();
                self.dispatch(router, out);
            }
            Action::IgpMetricChange {
                router,
                nexthop,
                cost,
            } => {
                self.igp_log.push(IgpEvent {
                    time: self.now,
                    kind: IgpEventKind::MetricChange {
                        from: router,
                        to: nexthop,
                        old: self
                            .routers
                            .get(&router)
                            .and_then(|r| r.rib.config().igp_cost.get(&nexthop))
                            .copied()
                            .unwrap_or(0),
                        new: cost,
                    },
                });
                // Change the cost, then re-evaluate every prefix whose best
                // may depend on it by re-originating nothing: we simulate by
                // touching all prefixes through a no-op update cycle.
                let now = self.now;
                if let Some(r) = self.routers.get_mut(&router) {
                    // Capture old bests, change config, emit diffs.
                    let prefixes: Vec<Prefix> = r.rib.best_routes().map(|(p, _)| p).collect();
                    let old: Vec<(Prefix, Option<bgpscope_bgp::Route>)> = prefixes
                        .iter()
                        .map(|p| (*p, r.rib.best(p).cloned()))
                        .collect();
                    r.set_igp_cost(nexthop, cost);
                    let old_map: std::collections::HashMap<_, _> = old.into_iter().collect();
                    let touched: Vec<Prefix> = old_map.keys().copied().collect();
                    let out = r.emit_changes_public(&touched, &old_map, now);
                    self.dispatch(router, out);
                }
            }
            Action::MraiExpire { from, to } => {
                let Some(s) = self
                    .routers
                    .get_mut(&from)
                    .and_then(|r| r.sessions.get_mut(&to))
                else {
                    return;
                };
                s.mrai_timer_armed = false;
                if s.pending.is_empty() {
                    return;
                }
                let next_allowed = s.next_allowed;
                if self.now >= next_allowed {
                    self.flush_mrai(from, to);
                } else {
                    // Stale timer from a previous session incarnation:
                    // re-arm for the real window edge.
                    s.mrai_timer_armed = true;
                    self.push(next_allowed, Action::MraiExpire { from, to });
                }
            }
            Action::HoldExpire {
                router,
                peer,
                epoch,
            } => {
                let Some(s) = self
                    .routers
                    .get_mut(&router)
                    .and_then(|r| r.sessions.get_mut(&peer))
                else {
                    return;
                };
                if s.epoch != epoch || !s.is_established() {
                    return;
                }
                s.state = SessionState::Idle;
                s.epoch += 1;
                s.adj_rib_out.clear();
                s.pending.clear();
                let new_epoch = s.epoch;
                self.stats.hold_expiries += 1;
                // The withdrawal storm emerges here, at detection time.
                let now = self.now;
                let out = self
                    .routers
                    .get_mut(&router)
                    .map(|r| r.drop_peer_routes(peer, now))
                    .unwrap_or_default();
                self.dispatch(router, out);
                self.push(
                    self.now + self.protocol.fsm.connect_retry,
                    Action::ConnectRetry {
                        router,
                        peer,
                        epoch: new_epoch,
                    },
                );
            }
            Action::ConnectRetry {
                router,
                peer,
                epoch,
            } => {
                let Some(s) = self
                    .routers
                    .get_mut(&router)
                    .and_then(|r| r.sessions.get_mut(&peer))
                else {
                    return;
                };
                if s.epoch != epoch || s.state != SessionState::Idle {
                    return;
                }
                if !self.link_is_up(router, peer) {
                    // Stay Idle; the next SessionUp kicks us (no reschedule,
                    // so a permanently dead link can't livelock the queue).
                    return;
                }
                let s = self
                    .routers
                    .get_mut(&router)
                    .and_then(|r| r.sessions.get_mut(&peer))
                    .expect("session exists");
                s.state = SessionState::Connect;
                s.epoch += 1;
                let my_epoch = s.epoch;
                self.stats.connect_retries += 1;
                let peer_side = self
                    .routers
                    .get(&peer)
                    .and_then(|r| r.sessions.get(&router));
                if let Some(ps) = peer_side {
                    if ps.state == SessionState::Connect {
                        let peer_epoch = ps.epoch;
                        self.push(
                            self.now + self.protocol.fsm.establish_delay,
                            Action::Establish {
                                a: router,
                                b: peer,
                                epoch_a: my_epoch,
                                epoch_b: peer_epoch,
                            },
                        );
                    }
                }
            }
            Action::Establish {
                a,
                b,
                epoch_a,
                epoch_b,
            } => {
                let side_ok = |sim: &Sim, x: RouterId, y: RouterId, epoch: u64| {
                    sim.routers
                        .get(&x)
                        .and_then(|r| r.sessions.get(&y))
                        .is_some_and(|s| s.epoch == epoch && s.state == SessionState::Connect)
                };
                let both_ok = side_ok(self, a, b, epoch_a) && side_ok(self, b, a, epoch_b);
                if !both_ok || !self.link_is_up(a, b) {
                    // A failed establishment parks Connect sides back in
                    // Idle so a later SessionUp can kick them again.
                    if !self.link_is_up(a, b) {
                        for (x, y) in [(a, b), (b, a)] {
                            if let Some(s) = self
                                .routers
                                .get_mut(&x)
                                .and_then(|r| r.sessions.get_mut(&y))
                            {
                                if s.state == SessionState::Connect {
                                    s.state = SessionState::Idle;
                                    s.epoch += 1;
                                }
                            }
                        }
                    }
                    return;
                }
                let now = self.now;
                for (x, y) in [(a, b), (b, a)] {
                    if let Some(s) = self
                        .routers
                        .get_mut(&x)
                        .and_then(|r| r.sessions.get_mut(&y))
                    {
                        s.state = SessionState::Established;
                        s.epoch += 1;
                        s.next_allowed = now;
                    }
                }
                self.stats.session_ups += 1;
                for (x, y) in [(a, b), (b, a)] {
                    let out = self
                        .routers
                        .get_mut(&x)
                        .map(|r| r.full_table_to(y, now))
                        .unwrap_or_default();
                    self.dispatch(x, out);
                }
            }
        }
    }

    /// Runs until the queue drains or the delivery cap is hit.
    pub fn run_to_completion(&mut self) {
        while let Some(Reverse(q)) = self.queue.pop() {
            if self.stats.messages_delivered >= self.max_deliveries {
                break;
            }
            self.now = self.now.max(q.time);
            self.execute(q.action);
        }
    }

    /// Runs only actions scheduled at or before `t` (later ones stay queued).
    pub fn run_until(&mut self, t: Timestamp) {
        while let Some(Reverse(q)) = self.queue.peek().cloned() {
            if q.time > t || self.stats.messages_delivered >= self.max_deliveries {
                break;
            }
            self.queue.pop();
            self.now = self.now.max(q.time);
            self.execute(q.action);
        }
        self.now = self.now.max(t);
    }

    /// Drains and returns the collector feed (sorted by time).
    pub fn take_collector_feed(&mut self) -> Vec<(UpdateMessage, Timestamp)> {
        let mut feed = std::mem::take(&mut self.collector_feed);
        feed.sort_by_key(|&(_, t)| t);
        feed
    }

    /// Drains the per-message delivery log (empty unless
    /// [`Sim::record_deliveries`] was set before the run).
    pub fn take_delivery_log(&mut self) -> Vec<(RouterId, RouterId, UpdateMessage, Timestamp)> {
        std::mem::take(&mut self.delivery_log)
    }

    /// Consumes the sim, returning all outputs.
    pub fn finish(mut self) -> SimOutput {
        let feed = self.take_collector_feed();
        SimOutput {
            collector_feed: feed,
            igp_log: self.igp_log,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsmConfig, MraiConfig, ProtocolConfig};
    use crate::router::SessionKind;
    use crate::topology::SimBuilder;
    use bgpscope_bgp::Asn;

    fn rid(n: u8) -> RouterId {
        RouterId::from_octets(10, 0, 0, n)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A chain AS1 -- AS2 -- AS3: an origination at one end propagates to
    /// the other with AS path accumulation.
    #[test]
    fn propagation_across_chain() {
        let mut sim = SimBuilder::new(1)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .router(rid(3), Asn(3))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .session(rid(2), rid(3), SessionKind::Ebgp)
            .monitor(rid(3))
            .build();
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.run_to_completion();
        let best = sim
            .router(rid(3))
            .unwrap()
            .rib
            .best(&p("10.0.0.0/8"))
            .unwrap()
            .clone();
        assert_eq!(best.attrs.as_path.to_string(), "2 1");
        assert_eq!(best.attrs.next_hop, rid(2));
        let feed = sim.take_collector_feed();
        assert_eq!(feed.len(), 1);
        assert!(feed[0].0.nlri.contains(&p("10.0.0.0/8")));
    }

    /// Session reset: withdrawal storm, then full-table restore.
    #[test]
    fn session_reset_storm_emerges() {
        let mut sim = SimBuilder::new(2)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .monitor(rid(2))
            .build();
        for i in 0..50u8 {
            sim.originate(
                rid(1),
                Prefix::from_octets(20, i, 0, 0, 16),
                Timestamp::ZERO,
            );
        }
        sim.run_to_completion();
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 50);

        sim.session_down(rid(1), rid(2), Timestamp::from_secs(10));
        sim.session_up(rid(1), rid(2), Timestamp::from_secs(70));
        sim.run_to_completion();
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 50);

        let feed = sim.take_collector_feed();
        let withdraws: usize = feed.iter().map(|(m, _)| m.withdrawn.len()).sum();
        let announces: usize = feed.iter().map(|(m, _)| m.nlri.len()).sum();
        assert_eq!(withdraws, 50, "one withdrawal per prefix at reset");
        assert_eq!(announces, 100, "initial + re-announcement");
        assert_eq!(sim.stats().session_downs, 1);
        assert_eq!(sim.stats().session_ups, 1);
    }

    /// Path failover: when the primary path dies the router explores to the
    /// alternate; the collector sees the switch.
    #[test]
    fn failover_to_alternate_path() {
        // r3 (our AS) dual-homed to r1 (AS1, shorter) and r2 (AS2, longer).
        let mut sim = SimBuilder::new(3)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .router(rid(3), Asn(65000))
            .router(rid(4), Asn(9)) // origin AS, behind both
            .session(rid(4), rid(1), SessionKind::Ebgp)
            .session(rid(4), rid(2), SessionKind::Ebgp)
            .session(rid(1), rid(3), SessionKind::Ebgp)
            .session(rid(2), rid(3), SessionKind::Ebgp)
            .monitor(rid(3))
            .build();
        // Make the AS2 path longer via prepending at origination.
        sim.originate(rid(4), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.run_to_completion();
        let best = sim
            .router(rid(3))
            .unwrap()
            .rib
            .best(&p("10.0.0.0/8"))
            .unwrap()
            .clone();
        // Both paths are 2 hops ("1 9" vs "2 9"); tie broken deterministically.
        assert_eq!(best.attrs.as_path.hop_count(), 2);

        // Kill the session the best path uses; the router fails over.
        let best_peer = best.peer.router_id();
        sim.session_down(best_peer, rid(3), Timestamp::from_secs(5));
        sim.run_to_completion();
        let new_best = sim
            .router(rid(3))
            .unwrap()
            .rib
            .best(&p("10.0.0.0/8"))
            .unwrap()
            .clone();
        assert_ne!(new_best.peer.router_id(), best_peer);
    }

    /// Restoring a link that is already up changes nothing: the sender's
    /// adj-RIB-out survives, so a later withdrawal still reaches the peer
    /// instead of leaving it a stale route.
    #[test]
    fn redundant_session_up_keeps_adj_rib_out() {
        let mut sim = SimBuilder::new(5)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.session_up(rid(1), rid(2), Timestamp::from_secs(1));
        sim.withdraw(rid(1), p("10.0.0.0/8"), Timestamp::from_secs(2));
        sim.run_to_completion();
        assert_eq!(sim.stats().session_ups, 0);
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 0);
    }

    /// The maximum-prefix fuse: a leak beyond the limit closes the session,
    /// as in the paper's ISP-A/ISP-B incident.
    #[test]
    fn max_prefix_fuse_trips_on_leak() {
        use bgpscope_policy::parse_config;
        let mut sim = SimBuilder::new(4)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .monitor(rid(2))
            .build();
        sim.router_mut(rid(2)).unwrap().config =
            Some(parse_config("router bgp 2\n neighbor 10.0.0.1 maximum-prefix 10\n").unwrap());
        for i in 0..25u8 {
            sim.originate(
                rid(1),
                Prefix::from_octets(20, i, 0, 0, 16),
                Timestamp::from_secs(i as u64),
            );
        }
        sim.run_to_completion();
        assert_eq!(sim.stats().session_downs, 1);
        // Session dead: receiver dropped everything it had heard.
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 0);
        assert!(!sim.router(rid(2)).unwrap().sessions[&rid(1)].is_established());
    }

    #[test]
    fn max_deliveries_caps_runaway() {
        let mut sim = SimBuilder::new(50)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        sim.max_deliveries = 10;
        // Schedule far more work than the cap allows.
        for i in 0..100u8 {
            sim.originate(
                rid(1),
                Prefix::from_octets(20, i, 0, 0, 16),
                Timestamp::ZERO,
            );
        }
        sim.run_to_completion();
        assert!(sim.stats().messages_delivered <= 10);
    }

    #[test]
    fn collector_delay_offsets_feed_timestamps() {
        let mut sim = SimBuilder::new(51)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .monitor(rid(2))
            .build();
        sim.collector_delay = Timestamp::from_secs(3);
        sim.jitter_max_micros = 0;
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::from_secs(10));
        sim.run_to_completion();
        let feed = sim.take_collector_feed();
        assert_eq!(feed.len(), 1);
        // origination at 10s + 10ms session delay + 3s collector delay.
        assert_eq!(
            feed[0].1,
            Timestamp::from_micros(10_000_000 + 10_000 + 3_000_000)
        );
    }

    #[test]
    fn session_down_is_idempotent() {
        let mut sim = SimBuilder::new(52)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.session_down(rid(1), rid(2), Timestamp::from_secs(10));
        sim.session_down(rid(1), rid(2), Timestamp::from_secs(11));
        sim.session_down(rid(2), rid(1), Timestamp::from_secs(12));
        sim.run_to_completion();
        assert_eq!(sim.stats().session_downs, 1, "repeat downs are no-ops");
        sim.session_up(rid(1), rid(2), Timestamp::from_secs(20));
        sim.session_up(rid(1), rid(2), Timestamp::from_secs(21));
        sim.run_to_completion();
        assert_eq!(sim.stats().session_ups, 1);
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 1);
    }

    #[test]
    fn messages_on_down_session_dropped() {
        let mut sim = SimBuilder::new(53)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        // Originate and tear down at the same instant: the in-flight
        // announce arrives on a dead session and must be dropped.
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::from_secs(1));
        sim.session_down(rid(1), rid(2), Timestamp(1_000_001));
        sim.run_to_completion();
        assert!(sim.stats().dropped_on_down_session >= 1);
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 0);
    }

    #[test]
    fn run_until_respects_time() {
        let mut sim = SimBuilder::new(5)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .build();
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::from_secs(100));
        sim.run_until(Timestamp::from_secs(50));
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 0);
        sim.run_until(Timestamp::from_secs(200));
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 1);
    }

    #[test]
    fn igp_metric_change_recorded_and_can_flip_best() {
        // r3 hears the same path-length route from two IBGP peers with
        // different nexthops; IGP cost decides. Changing the metric flips it.
        let mut sim = SimBuilder::new(6)
            .router(rid(1), Asn(65000))
            .router(rid(2), Asn(65000))
            .router(rid(3), Asn(65000))
            .router(rid(7), Asn(7))
            .router(rid(8), Asn(8))
            .session(rid(1), rid(3), SessionKind::Ibgp)
            .session(rid(2), rid(3), SessionKind::Ibgp)
            .session(rid(7), rid(1), SessionKind::Ebgp)
            .session(rid(8), rid(2), SessionKind::Ebgp)
            .monitor(rid(3))
            // IBGP preserves the EBGP-set NEXT_HOPs (r7 / r8), so those are
            // the addresses whose IGP costs matter at r3.
            .igp_cost(rid(3), rid(7), 10)
            .igp_cost(rid(3), rid(8), 20)
            .build();
        // Same prefix from AS7 via r1 and from AS8 via r2 (equal path length).
        sim.originate(rid(7), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.originate(rid(8), p("10.0.0.0/8"), Timestamp::ZERO);
        sim.run_to_completion();
        let best = sim
            .router(rid(3))
            .unwrap()
            .rib
            .best(&p("10.0.0.0/8"))
            .unwrap()
            .clone();
        assert_eq!(best.attrs.next_hop, rid(7), "cheaper IGP cost wins");

        sim.igp_metric_change(rid(3), rid(7), 100, Timestamp::from_secs(10));
        sim.run_to_completion();
        let best = sim
            .router(rid(3))
            .unwrap()
            .rib
            .best(&p("10.0.0.0/8"))
            .unwrap()
            .clone();
        assert_eq!(best.attrs.next_hop, rid(8), "metric change flips the best");
        let out = sim.finish();
        assert_eq!(out.igp_log.len(), 1);
        // The collector saw the flip as an implicit replacement.
        let flips = out
            .collector_feed
            .iter()
            .filter(|(m, _)| m.attrs.as_ref().is_some_and(|a| a.next_hop == rid(8)))
            .count();
        assert!(flips >= 1);
    }

    /// MRAI pacing on a single session: rapid re-announcements of the same
    /// prefix coalesce and flushes stay at least one interval apart.
    #[test]
    fn mrai_paces_and_coalesces_rapid_changes() {
        let mrai = Timestamp::from_secs(10);
        let mut sim = SimBuilder::new(7)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .protocol(ProtocolConfig::default().with_mrai(MraiConfig::uniform(mrai)))
            .build();
        sim.jitter_max_micros = 0;
        sim.record_deliveries = true;
        let prefix = p("10.0.0.0/8");
        // Five attribute-changing re-originations inside one window.
        for i in 0..5u32 {
            let attrs = PathAttributes::new(rid(1), bgpscope_bgp::AsPath::empty()).with_med(i);
            sim.originate_with(
                rid(1),
                prefix,
                attrs,
                Timestamp::from_millis(100 * i as u64),
            );
        }
        sim.run_to_completion();
        let log = sim.take_delivery_log();
        // First change flushes immediately (window open at t=0); the other
        // four coalesce into a single follow-up flush one interval later.
        assert_eq!(log.len(), 2, "{log:?}");
        assert!(log[1].3.saturating_since(log[0].3) >= mrai);
        // The follow-up carries the last-written state (MED 4).
        assert_eq!(
            log[1].2.attrs.as_ref().unwrap().med,
            Some(bgpscope_bgp::Med(4))
        );
        assert_eq!(sim.stats().mrai_flushes, 2);
        assert!(sim.stats().mrai_coalesced >= 3);
    }

    /// Timed FSM: a link failure is detected at hold-timer expiry (the
    /// withdrawal storm emerges then), and the session re-establishes after
    /// retry + establish delays once the link is back.
    #[test]
    fn timed_fsm_detects_and_reestablishes() {
        let fsm = FsmConfig::timed(
            Timestamp::from_secs(9),
            Timestamp::from_secs(2),
            Timestamp::from_millis(500),
        );
        let mut sim = SimBuilder::new(8)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .monitor(rid(2))
            .protocol(ProtocolConfig::default().with_fsm(fsm))
            .build();
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::ZERO);
        // Link fails at t=20s and recovers at t=40s (after detection at 29s).
        sim.session_down(rid(1), rid(2), Timestamp::from_secs(20));
        sim.session_up(rid(1), rid(2), Timestamp::from_secs(40));
        sim.run_to_completion();

        assert_eq!(sim.stats().session_downs, 1);
        assert_eq!(sim.stats().hold_expiries, 2, "both sides detect");
        assert_eq!(sim.stats().session_ups, 1, "re-established once");
        assert!(sim.router(rid(2)).unwrap().sessions[&rid(1)].is_established());
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 1);

        let feed = sim.take_collector_feed();
        // Withdrawal appears at detection (~29s), not at failure (20s).
        let withdraw_t = feed
            .iter()
            .find(|(m, _)| !m.withdrawn.is_empty())
            .map(|&(_, t)| t)
            .expect("collector saw the withdrawal");
        assert!(withdraw_t >= Timestamp::from_secs(29), "{withdraw_t:?}");
        // Re-announcement only after the link returns (40s) + establish
        // delay (40.5s) + session delay.
        let reannounce_t = feed
            .iter()
            .filter(|(m, _)| !m.nlri.is_empty())
            .map(|&(_, t)| t)
            .max()
            .expect("collector saw the re-announcement");
        assert!(
            reannounce_t >= Timestamp::from_millis(40_500),
            "{reannounce_t:?}"
        );
    }

    /// Under the timed FSM, messages sent into a silently failed link are
    /// lost during the undetected window.
    #[test]
    fn timed_fsm_drops_messages_on_dead_link() {
        let mut sim = SimBuilder::new(9)
            .router(rid(1), Asn(1))
            .router(rid(2), Asn(2))
            .session(rid(1), rid(2), SessionKind::Ebgp)
            .protocol(ProtocolConfig::default().with_fsm(FsmConfig::realistic()))
            .build();
        // Link dies at t=1s; an origination at t=2s is sent (sender still
        // believes the session is up) but never arrives.
        sim.session_down(rid(1), rid(2), Timestamp::from_secs(1));
        sim.originate(rid(1), p("10.0.0.0/8"), Timestamp::from_secs(2));
        sim.run_until(Timestamp::from_secs(5));
        assert!(sim.stats().dropped_on_down_session >= 1);
        assert_eq!(sim.router(rid(2)).unwrap().rib.prefix_count(), 0);
        // Both sides still *believe* the session is up (hold not expired).
        assert!(sim.router(rid(2)).unwrap().sessions[&rid(1)].is_established());
    }
}
