//! What a detector shard and an ingest source share: one [`Health`], moved
//! only by [`Health::on`], and one [`RestartPolicy`], whose
//! [`RestartPolicy::after`] is the only backoff; both are pure functions.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

use bgpscope_bgp::splitmix64;
use serde::Serialize;

/// Health of one supervised unit, an ingest source or a detector shard.
/// Serializes as its lower-case name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Health {
    /// No fault observed yet.
    #[default]
    Healthy,
    /// A fault is being retried (a source's read, a shard's restart), or a
    /// source's stall timeout elapsed once.
    Degraded,
    /// Given up on (the budget is spent, or a source stalled twice); final.
    Quarantined,
    /// Was degraded, then made progress again; the next fault degrades it
    /// again, as it does `Healthy`.
    Recovered,
}

/// What a supervisor observed about the unit it supervises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// A fault it retries: a failed read, a poison-record re-read, a first
    /// stall timeout, a detector panic within the budget.
    Fault,
    /// The unit delivered again: a source's batch, a shard's checkpoint.
    Progress,
    /// No retry is left.
    GiveUp,
}

impl Health {
    /// The state after `signal`: the one transition of the machine.
    pub fn on(self, signal: Signal) -> Health {
        match (self, signal) {
            (Health::Quarantined, _) | (_, Signal::GiveUp) => Health::Quarantined,
            (_, Signal::Fault) => Health::Degraded,
            (Health::Degraded, Signal::Progress) => Health::Recovered,
            (health, Signal::Progress) => health,
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Quarantined => "quarantined",
            Health::Recovered => "recovered",
        })
    }
}

impl Serialize for Health {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string().into())
    }
}

/// A [`Health`] one thread signals and any thread reads, lock-free.
#[derive(Debug, Default)]
pub(crate) struct HealthCell(AtomicU8);

impl HealthCell {
    pub(crate) fn get(&self) -> Health {
        match self.0.load(Ordering::Acquire) {
            0 => Health::Healthy,
            1 => Health::Degraded,
            2 => Health::Quarantined,
            _ => Health::Recovered,
        }
    }

    /// Moves the cell along `signal`. Only one thread may signal a cell:
    /// the read and the write are two steps.
    pub(crate) fn on(&self, signal: Signal) {
        self.0.store(self.get().on(signal) as u8, Ordering::Release);
    }
}

/// How a supervisor retries one unit: a budget of faults and the backoff
/// before each retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Faults retried before the unit is given up on.
    pub budget: u32,
    /// Backoff before the first retry; it doubles per fault, capped at 64×.
    pub backoff: Duration,
}

impl RestartPolicy {
    /// The backoff before retrying after fault number `faults` (counting
    /// from 1), or `None` once `faults > budget`: `backoff·2^(faults−1)`,
    /// capped at 64×, times a jitter in `[0.5, 1.5)` drawn from a fixed
    /// seed, `salt` and `faults`, so units with distinct salts retry out of
    /// step, and every run alike.
    pub fn after(&self, faults: u64, salt: u64) -> Option<Duration> {
        const JITTER_SEED: u64 = 0xB6E0_5EED;
        if faults > u64::from(self.budget) {
            return None;
        }
        let doublings = faults.saturating_sub(1).min(6) as i32;
        let draw = splitmix64(JITTER_SEED ^ ((salt << 32) | faults)) >> 11;
        let jitter = 0.5 + draw as f64 / (1u64 << 53) as f64;
        Some(self.backoff.mul_f64(2f64.powi(doublings) * jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_moves_along_every_signal_from_every_state() {
        use Health::*;
        use Signal::*;
        let table = [
            (Healthy, Fault, Degraded),
            (Healthy, Progress, Healthy),
            (Healthy, GiveUp, Quarantined),
            (Degraded, Fault, Degraded),
            (Degraded, Progress, Recovered),
            (Degraded, GiveUp, Quarantined),
            (Recovered, Fault, Degraded),
            (Recovered, Progress, Recovered),
            (Recovered, GiveUp, Quarantined),
            (Quarantined, Fault, Quarantined),
            (Quarantined, Progress, Quarantined),
            (Quarantined, GiveUp, Quarantined),
        ];
        for (health, signal, next) in table {
            assert_eq!(health.on(signal), next, "{health} on {signal:?}");
            let cell = HealthCell::default();
            cell.0.store(health as u8, Ordering::Release);
            assert_eq!(cell.get(), health);
            cell.on(signal);
            assert_eq!(cell.get(), next, "cell: {health} on {signal:?}");
        }
        assert_eq!(HealthCell::default().get(), Healthy);
        assert_eq!(serde_json::to_string(&Recovered).unwrap(), "\"recovered\"");
    }

    #[test]
    fn restart_backoff_doubles_to_a_64x_cap_with_bounded_jitter_until_the_budget_is_spent() {
        let base = Duration::from_millis(10);
        let policy = RestartPolicy {
            budget: 9,
            backoff: base,
        };
        for salt in [0, 1, 7] {
            for faults in 1..=10u64 {
                let Some(backoff) = policy.after(faults, salt) else {
                    assert_eq!(faults, 10, "None before the budget is spent");
                    continue;
                };
                assert!(faults <= 9, "a retry past the budget");
                let step = base * 2u32.pow((faults - 1).min(6) as u32);
                let jitter = backoff.as_secs_f64() / step.as_secs_f64();
                assert!((0.5..1.5).contains(&jitter), "fault {faults}: {jitter}");
                assert_eq!(policy.after(faults, salt), Some(backoff), "reproducible");
            }
        }
        assert!(policy.after(10, 0).is_none());
        assert!(policy.after(u64::MAX, 0).is_none());
        // The cap: fault 9 backs off no longer than 1.5 × 64 × base.
        assert!(policy.after(9, 0).unwrap() < base * 96);
        // Distinct salts draw distinct jitters.
        assert_ne!(policy.after(3, 0), policy.after(3, 1));
        let spent = RestartPolicy {
            budget: 0,
            ..policy
        };
        assert!(spent.after(1, 0).is_none());
    }
}
