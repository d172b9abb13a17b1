//! Protocol-timing configuration: MRAI pacing and the session FSM.
//!
//! The default [`ProtocolConfig`] is **unpaced, with zero timers**: MRAI
//! intervals of zero (every UPDATE goes out the moment the decision process
//! emits it) and a session FSM whose hold, connect-retry and establishment
//! timers are all zero, so `SessionDown`/`SessionUp` take effect at their
//! scheduled instant. Every scenario keeps the feed it had before the
//! simulator had timers (`tests/pinned_feeds.rs` pins 97 of them); only
//! flap schedules that restore a link already up, or act twice on one
//! router at one instant, differ (DESIGN.md decision 19).
//!
//! [`ProtocolConfig::realistic`] turns both machines on with RFC-flavored
//! defaults: 30 s eBGP / 5 s iBGP MRAI with 25 % interval jitter, a 90 s
//! hold timer for down-detection, and timed reconnect/re-establishment.
//! Under that config path exploration and convergence bursts *emerge* from
//! timer expiry — pending per-prefix changes coalesce (last-writer-wins)
//! inside an MRAI window and leave as batched, rate-limited UPDATEs.

use bgpscope_bgp::Timestamp;

/// Gao-Rexford business relationship of a session, from the local router's
/// point of view: who the *remote* router is to us.
///
/// Drives valley-free export when set: routes learned from a provider or a
/// peer are exported only to customers; customer-learned and locally
/// originated routes go everywhere. Sessions without a relation (`None` in
/// [`crate::router::Session::relation`]) export under the legacy rules
/// only, so hand-built topologies are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerRelation {
    /// The remote router pays us for transit (we are its provider).
    Customer,
    /// We pay the remote router for transit (it is our provider).
    Provider,
    /// Settlement-free lateral peering.
    Peer,
}

/// Minimum Route Advertisement Interval configuration.
///
/// An interval of zero disables pacing on sessions of that kind: every
/// change goes out the instant the decision process emits it,
/// bit-identical to the pre-MRAI engine by construction (and locked by the
/// backward-compat oracle test). The default is zero on both kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MraiConfig {
    /// MRAI for eBGP sessions (RFC 4271 suggests 30 s).
    pub ebgp: Timestamp,
    /// MRAI for iBGP sessions (commonly 5 s).
    pub ibgp: Timestamp,
    /// Interval jitter in per-mille: each expiry draws the next interval
    /// uniformly from `[interval * (1000 - jitter) / 1000, interval]`
    /// (RFC 4271 §9.2.1.1 jitters timers to 75–100 % of the base; that is
    /// `jitter_per_mille: 250`). Zero means fixed intervals.
    pub jitter_per_mille: u16,
    /// Whether withdrawals are rate-limited too. RFC 4271 applies MRAI to
    /// advertisements only (`false`: withdrawals bypass the timer and go
    /// out instantly); `true` coalesces withdrawals into the timer window
    /// like every other change (WRATE mode in the convergence literature).
    pub rate_limit_withdrawals: bool,
}

impl MraiConfig {
    /// RFC-flavored defaults: 30 s eBGP, 5 s iBGP, 25 % jitter,
    /// withdrawals unthrottled.
    pub fn realistic() -> Self {
        MraiConfig {
            ebgp: Timestamp::from_secs(30),
            ibgp: Timestamp::from_secs(5),
            jitter_per_mille: 250,
            rate_limit_withdrawals: false,
        }
    }

    /// Fixed (jitter-free) uniform interval on every session kind —
    /// convenient for conformance tests.
    pub fn uniform(interval: Timestamp) -> Self {
        MraiConfig {
            ebgp: interval,
            ibgp: interval,
            jitter_per_mille: 0,
            rate_limit_withdrawals: false,
        }
    }

    /// Sets [`MraiConfig::rate_limit_withdrawals`].
    #[must_use]
    pub fn with_rate_limited_withdrawals(mut self, on: bool) -> Self {
        self.rate_limit_withdrawals = on;
        self
    }

    /// Sets [`MraiConfig::jitter_per_mille`] (clamped to 1000).
    #[must_use]
    pub fn with_jitter_per_mille(mut self, jitter: u16) -> Self {
        self.jitter_per_mille = jitter.min(1000);
        self
    }
}

impl Default for MraiConfig {
    /// Pacing off: zero intervals, no jitter.
    fn default() -> Self {
        MraiConfig::uniform(Timestamp::ZERO)
    }
}

/// Session finite-state-machine timing. The default is all timers zero:
/// a failure is detected, and a restored link re-established, at the
/// instant it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsmConfig {
    /// How long a silent failure goes unnoticed: a side of a failed link
    /// keeps its session Established (and keeps sending into the void)
    /// until the hold timer expires, then drops the peer's routes — the
    /// realistic down-detection delay (RFC 4271 suggests 90 s).
    pub hold_time: Timestamp,
    /// Idle → Connect delay after a detected failure (ConnectRetryTimer).
    pub connect_retry: Timestamp,
    /// Connect → Established delay once both sides are willing and the
    /// link is up (TCP + OPEN/KEEPALIVE exchange).
    pub establish_delay: Timestamp,
}

impl FsmConfig {
    /// Timed FSM with RFC-flavored defaults: 90 s hold, 30 s connect
    /// retry, 500 ms establishment.
    pub fn realistic() -> Self {
        FsmConfig {
            hold_time: Timestamp::from_secs(90),
            connect_retry: Timestamp::from_secs(30),
            establish_delay: Timestamp::from_millis(500),
        }
    }

    /// Timed FSM with explicit timers.
    pub fn timed(
        hold_time: Timestamp,
        connect_retry: Timestamp,
        establish_delay: Timestamp,
    ) -> Self {
        FsmConfig {
            hold_time,
            connect_retry,
            establish_delay,
        }
    }
}

/// The bundle [`crate::SimBuilder::protocol`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolConfig {
    /// Advertisement pacing.
    pub mrai: MraiConfig,
    /// Session FSM timing.
    pub fsm: FsmConfig,
}

impl ProtocolConfig {
    /// Both machines on with RFC-flavored defaults.
    pub fn realistic() -> Self {
        ProtocolConfig {
            mrai: MraiConfig::realistic(),
            fsm: FsmConfig::realistic(),
        }
    }

    /// Replaces the MRAI part.
    #[must_use]
    pub fn with_mrai(mut self, mrai: MraiConfig) -> Self {
        self.mrai = mrai;
        self
    }

    /// Replaces the FSM part.
    #[must_use]
    pub fn with_fsm(mut self, fsm: FsmConfig) -> Self {
        self.fsm = fsm;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unpaced_with_zero_timers() {
        let p = ProtocolConfig::default();
        assert_eq!(p.mrai, MraiConfig::uniform(Timestamp::ZERO));
        assert_eq!(p.mrai.jitter_per_mille, 0);
        assert!(!p.mrai.rate_limit_withdrawals);
        assert_eq!(
            p.fsm,
            FsmConfig::timed(Timestamp::ZERO, Timestamp::ZERO, Timestamp::ZERO)
        );
    }

    #[test]
    fn realistic_turns_both_machines_on() {
        let p = ProtocolConfig::realistic();
        assert_eq!(p.mrai.ebgp, Timestamp::from_secs(30));
        assert_eq!(p.mrai.ibgp, Timestamp::from_secs(5));
        assert_eq!(p.mrai.jitter_per_mille, 250);
        assert!(!p.mrai.rate_limit_withdrawals);
        assert_eq!(p.fsm, FsmConfig::realistic());
        assert_eq!(p.fsm.hold_time, Timestamp::from_secs(90));
    }

    #[test]
    fn builders_compose() {
        let p = ProtocolConfig::default()
            .with_mrai(
                MraiConfig::uniform(Timestamp::from_secs(3)).with_rate_limited_withdrawals(true),
            )
            .with_fsm(FsmConfig::timed(
                Timestamp::from_secs(9),
                Timestamp::from_secs(2),
                Timestamp::from_millis(100),
            ));
        assert_eq!(p.mrai.ebgp, Timestamp::from_secs(3));
        assert_eq!(p.mrai.ibgp, Timestamp::from_secs(3));
        assert!(p.mrai.rate_limit_withdrawals);
        assert_eq!(p.fsm.hold_time, Timestamp::from_secs(9));
        assert_eq!(p.fsm.connect_retry, Timestamp::from_secs(2));
    }
}
