//! Closed-loop overload control for the realtime pipeline.
//!
//! The Degrade overload policy alone is a *binary* flip: a full queue pins
//! the detector at [`FidelityLevel::Floor`] until the queue drains. A
//! collector that ran for months inside a Tier-1 ISP sees every shade in
//! between — a queue that is merely elevated deserves mildly coarser
//! Stemming, not the floor.
//!
//! [`Controller`] is that loop: a PID-style law mapping sampled queue depth
//! (proportional), its trend (derivative), and a calm-streak accumulator
//! (the integral term, used for recovery hysteresis) to a discrete
//! [`FidelityLevel`]. It steers fidelity only: the checkpoint cadence is the
//! operator's [`crate::SupervisorConfig::checkpoint_interval`] in every
//! mode, because that interval is the loss bound and a checkpoint costs the
//! events since the last one at any cadence. It is deliberately a pure
//! state machine — no clocks, no channels, no atomics — so the controller
//! test harness (`crates/anomaly/tests/control_sim.rs`) can drive it with
//! scripted depth traces, single-threaded and seed-free, and pin its
//! convergence and stability properties as unit facts.
//!
//! [`stemming_at_level`] maps a level to a concrete Stemming configuration
//! by interpolating between the full-fidelity [`StemmingConfig`] and the
//! degraded floor; [`CoalesceBuffer`] implements the merge-on-shed half of
//! adaptive mode (see [`crate::SpawnConfig::adaptive`]).

use bgpscope_stemming::StemmingConfig;
use serde::{Deserialize, Serialize};

use crate::pipeline::WeightedEvent;

/// How much Stemming fidelity an analysis pass runs at. `Full` is the
/// configured [`StemmingConfig`] untouched; [`FidelityLevel::Floor`] is
/// the degraded floor (see [`stemming_at_level`]), where the Degrade
/// overload policy pins the detector under queue pressure; the levels
/// between interpolate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FidelityLevel {
    /// The configured Stemming settings, unmodified.
    Full,
    /// Mildly coarsened.
    High,
    /// Halfway to the floor.
    Medium,
    /// Mostly coarsened.
    Low,
    /// The degraded floor — what the Degrade overload policy runs under
    /// queue pressure.
    Floor,
}

impl FidelityLevel {
    /// Number of coarsening steps between [`FidelityLevel::Full`] (0) and
    /// [`FidelityLevel::Floor`].
    pub const STEPS: u8 = 4;

    /// This level as a coarsening index: 0 = full, [`FidelityLevel::STEPS`]
    /// = floor.
    pub fn index(self) -> u8 {
        match self {
            FidelityLevel::Full => 0,
            FidelityLevel::High => 1,
            FidelityLevel::Medium => 2,
            FidelityLevel::Low => 3,
            FidelityLevel::Floor => 4,
        }
    }

    /// The level for a coarsening index (clamped to the floor).
    pub fn from_index(index: u8) -> FidelityLevel {
        match index {
            0 => FidelityLevel::Full,
            1 => FidelityLevel::High,
            2 => FidelityLevel::Medium,
            3 => FidelityLevel::Low,
            _ => FidelityLevel::Floor,
        }
    }
}

impl std::fmt::Display for FidelityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FidelityLevel::Full => "full",
            FidelityLevel::High => "high",
            FidelityLevel::Medium => "medium",
            FidelityLevel::Low => "low",
            FidelityLevel::Floor => "floor",
        })
    }
}

/// Tunables for the [`Controller`] law. All arithmetic is integer and
/// saturating: the same input trace always produces the same output trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Queue depth the controller steers toward: at or below it the
    /// pipeline runs at full fidelity; each doubling above it costs one
    /// fidelity level. `0` = derive from the ingest-queue capacity at spawn
    /// (half the capacity, minimum 1).
    pub target_depth: u64,
    /// Consecutive calm samples required per recovery step (the hysteresis
    /// that prevents oscillation): fidelity descends one level only after
    /// this many samples in a row where even *twice* the projected depth
    /// would not justify the current level.
    pub recovery_patience: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            target_depth: 0,
            recovery_patience: 3,
        }
    }
}

impl ControllerConfig {
    /// Sets the target queue depth (`0` = derive from queue capacity).
    pub fn with_target_depth(mut self, depth: u64) -> Self {
        self.target_depth = depth;
        self
    }

    /// Resolves `target_depth == 0` against the ingest-queue capacity
    /// (`0` = unbounded) the way [`crate::RealtimeDetector::spawn`] does.
    pub fn resolved_against_capacity(mut self, capacity: usize) -> Self {
        if self.target_depth == 0 {
            self.target_depth = if capacity == 0 {
                4_096
            } else {
                (capacity as u64 / 2).max(1)
            };
        }
        self
    }
}

/// How many samples ahead the depth trend is projected (the law's
/// derivative term): a rising queue is acted on before it arrives.
const TREND_HORIZON: i128 = 4;

/// The fidelity level a steady depth `projected` deserves: 0 at or below
/// the target, then one level per doubling, capped at the floor.
fn desired_level(projected: u64, target: u64) -> u8 {
    let mut level = 0u8;
    let mut bound = target.max(1);
    while level < FidelityLevel::STEPS && projected > bound {
        level += 1;
        bound = bound.saturating_mul(2);
    }
    level
}

/// The PID-style overload controller: a deterministic, side-effect-free
/// state machine over depth samples.
///
/// # The law
///
/// Per sample, with `d` the observed depth and `t` the target:
///
/// 1. **Derivative**: `projected = d + (d - d_prev) * 4` (the trend four
///    samples ahead, saturating at 0) — a rising queue is treated as if it
///    had already risen.
/// 2. **Proportional**: the *desired* level is `0` when `projected <= t`,
///    and one level per doubling above `t` (so `2t`, `4t`, `8t` are the
///    ascent thresholds), capped at the floor.
/// 3. **Slew limit**: the level moves at most one step per sample, in
///    either direction — an analysis pass never jumps from full fidelity to
///    the floor on one sample.
/// 4. **Hysteresis** (Schmitt trigger): ascent happens the moment the
///    desired level exceeds the current one, but descent requires the calm
///    condition `desired(2 * projected) < current` to hold for
///    `recovery_patience` consecutive samples. The factor-of-two gap
///    between the ascent and descent thresholds means a steady depth can
///    never satisfy both, so the controller cannot oscillate around a
///    threshold.
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    level: FidelityLevel,
    last_depth: Option<u64>,
    calm_streak: u32,
}

impl Controller {
    /// A controller at full fidelity. `config.target_depth` must already be
    /// resolved (nonzero) — use
    /// [`ControllerConfig::resolved_against_capacity`] when deriving it
    /// from a queue bound.
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            config,
            level: FidelityLevel::Full,
            last_depth: None,
            calm_streak: 0,
        }
    }

    /// The current fidelity level.
    pub fn level(&self) -> FidelityLevel {
        self.level
    }

    /// The configuration the controller runs.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Feeds one observed ingest-queue depth (events waiting for the
    /// detector) through the law (see the type docs) and returns the
    /// fidelity the next analysis pass should run at.
    pub fn sample(&mut self, depth: u64) -> FidelityLevel {
        let target = self.config.target_depth.max(1);
        let prev = self.last_depth.replace(depth).unwrap_or(depth);
        let trend = depth as i128 - prev as i128;
        let projected = (depth as i128 + trend * TREND_HORIZON).max(0) as u64;

        let current = self.level.index();
        let next = if desired_level(projected, target) > current {
            self.calm_streak = 0;
            current + 1
        } else if current > 0 && desired_level(projected.saturating_mul(2), target) < current {
            self.calm_streak += 1;
            if self.calm_streak >= self.config.recovery_patience.max(1) {
                self.calm_streak = 0;
                current - 1
            } else {
                current
            }
        } else {
            self.calm_streak = 0;
            current
        };
        self.level = FidelityLevel::from_index(next);
        self.level
    }
}

/// The floor's `min_support` is the configured one times this: weaker
/// correlations are noise the detector cannot afford to chase under
/// overload.
const DEGRADE_MIN_SUPPORT_MULTIPLIER: u64 = 4;
/// The floor's per-window component budget.
const DEGRADE_MAX_COMPONENTS: usize = 4;
/// The floor's sub-sequence length cap (an unlimited `max_subseq_len` is
/// lowered to it; a tighter one is kept).
const DEGRADE_MAX_SUBSEQ_LEN: usize = 6;

/// The Stemming configuration for a fidelity level: an integer
/// interpolation between the full-fidelity `stemming` and the degraded
/// floor, which makes each analysis pass cheap enough for the queue to
/// drain at the cost of finding only the strongest correlations.
///
/// - [`FidelityLevel::Full`] returns `stemming` unchanged — including an
///   unlimited (`0`) `max_subseq_len`.
/// - [`FidelityLevel::Floor`] returns *exactly* the configuration the
///   binary Degrade policy uses: `min_support` multiplied by 4,
///   `max_components` capped at 4, `max_subseq_len` lowered to 6.
/// - Levels between lerp each knob: `min_support` rises toward the floor,
///   `max_components` falls toward it (never below 1), `max_subseq_len`
///   falls toward it. When the full configuration's `max_subseq_len` is
///   unlimited (`0`), intermediate levels bound it at twice the floor and
///   tighten from there — "mildly coarsened" must already be bounded, or
///   the first coarsening step would do nothing to the enumeration cost.
///
/// Each analysis pass — degraded or not — builds one sub-sequence counter
/// per window and *subtracts* per extracted component (see
/// [`bgpscope_stemming::Stemming::decompose_weighted`]), so the component
/// cap bounds cheap decremental rounds, not full recounts of the window.
pub fn stemming_at_level(stemming: &StemmingConfig, level: FidelityLevel) -> StemmingConfig {
    let mut s = stemming.clone();
    let k = u64::from(level.index());
    if k == 0 {
        return s;
    }
    let steps = u64::from(FidelityLevel::STEPS);

    let support_floor = s.min_support.saturating_mul(DEGRADE_MIN_SUPPORT_MULTIPLIER);
    s.min_support += (support_floor - s.min_support).saturating_mul(k) / steps;

    let comp_floor = s.max_components.clamp(1, DEGRADE_MAX_COMPONENTS);
    s.max_components -= (s.max_components - comp_floor) * k as usize / steps as usize;

    let (len_top, len_floor) = match s.max_subseq_len {
        0 => (DEGRADE_MAX_SUBSEQ_LEN * 2, DEGRADE_MAX_SUBSEQ_LEN),
        len => (len, len.min(DEGRADE_MAX_SUBSEQ_LEN)),
    };
    s.max_subseq_len = len_top - (len_top - len_floor) * k as usize / steps as usize;
    s
}

/// What [`CoalesceBuffer::fold`] did with a stolen event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fold {
    /// Merged into an existing representative (its weight was added; the
    /// representative keeps the earliest timestamp). Counted as
    /// `coalesced_events`.
    Merged,
    /// Held as a new representative — the event is not lost, it re-enters
    /// the queue when the buffer flushes.
    Held,
    /// The buffer is full and nothing matched: the event is handed back to
    /// be shed, exactly as non-adaptive DropOldest would have.
    Shed(WeightedEvent),
}

/// The merge-on-shed buffer: coalesces events stolen by the DropOldest
/// policy into weighted representatives instead of discarding them.
///
/// Two events merge when they agree on everything but time and weight —
/// kind, peer, prefix, and path attributes — which by construction means
/// they encode to the *same* Stemming sequence, so a representative
/// carrying their summed weight contributes exactly the sub-sequence counts
/// the individuals would have (the conservativeness property pinned by the
/// proptest in `control_sim.rs`). The representative keeps the earliest
/// merged timestamp.
///
/// Bounded by a representative count; deterministic (linear scan, FIFO
/// flush order); pure — the pipeline handle owns one and moves
/// representatives between it and the ingest queue.
#[derive(Debug, Clone, Default)]
pub struct CoalesceBuffer {
    capacity: usize,
    slots: Vec<WeightedEvent>,
}

impl CoalesceBuffer {
    /// A buffer holding at most `capacity` representatives.
    pub fn new(capacity: usize) -> Self {
        CoalesceBuffer {
            capacity,
            slots: Vec::new(),
        }
    }

    /// Folds a stolen event into the buffer (see [`Fold`]).
    pub fn fold(&mut self, event: WeightedEvent) -> Fold {
        if let Some(slot) = self.slots.iter_mut().find(|s| {
            let (a, b) = (&s.event, &event.event);
            a.kind == b.kind && a.peer == b.peer && a.prefix == b.prefix && a.attrs == b.attrs
        }) {
            slot.weight = slot.weight.saturating_add(event.weight);
            if event.event.time < slot.event.time {
                slot.event.time = event.event.time;
            }
            return Fold::Merged;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(event);
            return Fold::Held;
        }
        Fold::Shed(event)
    }

    /// Returns a representative taken with [`CoalesceBuffer::pop`] to the
    /// front of the flush order (the queue had no room for it after all).
    pub fn unpop(&mut self, rep: WeightedEvent) {
        self.slots.insert(0, rep);
    }

    /// Removes and returns the oldest-held representative, if any.
    pub fn pop(&mut self) -> Option<WeightedEvent> {
        if self.slots.is_empty() {
            None
        } else {
            Some(self.slots.remove(0))
        }
    }

    /// Representatives currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no representatives are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::{Event, PathAttributes, PeerId, Prefix, RouterId, Timestamp};

    fn config(target: u64) -> ControllerConfig {
        ControllerConfig::default().with_target_depth(target)
    }

    fn event(t_secs: u64, octet: u8) -> WeightedEvent {
        WeightedEvent::unit(Event::withdraw(
            Timestamp::from_secs(t_secs),
            PeerId::from_octets(1, 1, 1, 1),
            Prefix::from_octets(10, octet, 0, 0, 16),
            PathAttributes::new(
                RouterId::from_octets(2, 2, 2, 2),
                "11423 209 701".parse().unwrap(),
            ),
        ))
    }

    #[test]
    fn desired_level_is_geometric_in_depth() {
        assert_eq!(desired_level(0, 8), 0);
        assert_eq!(desired_level(8, 8), 0);
        assert_eq!(desired_level(9, 8), 1);
        assert_eq!(desired_level(16, 8), 1);
        assert_eq!(desired_level(17, 8), 2);
        assert_eq!(desired_level(64, 8), 3);
        assert_eq!(desired_level(65, 8), 4);
        assert_eq!(desired_level(u64::MAX, 8), 4);
    }

    #[test]
    fn quiet_controller_stays_full() {
        let mut ctl = Controller::new(config(16));
        for _ in 0..100 {
            assert_eq!(ctl.sample(0), FidelityLevel::Full);
        }
    }

    #[test]
    fn stemming_floor_matches_binary_degrade() {
        let stemming = StemmingConfig::default();
        let floor = stemming_at_level(&stemming, FidelityLevel::Floor);
        assert_eq!(
            floor.min_support,
            stemming.min_support * DEGRADE_MIN_SUPPORT_MULTIPLIER
        );
        assert_eq!(
            floor.max_components,
            stemming.max_components.min(DEGRADE_MAX_COMPONENTS)
        );
        assert_eq!(floor.max_subseq_len, DEGRADE_MAX_SUBSEQ_LEN);
    }

    #[test]
    fn stemming_full_is_untouched() {
        let stemming = StemmingConfig::default();
        let full = stemming_at_level(&stemming, FidelityLevel::Full);
        assert_eq!(full.min_support, stemming.min_support);
        assert_eq!(full.max_components, stemming.max_components);
        assert_eq!(full.max_subseq_len, stemming.max_subseq_len);
    }

    #[test]
    fn coalesce_merges_same_key_and_keeps_earliest_time() {
        let mut buf = CoalesceBuffer::new(4);
        assert_eq!(buf.fold(event(10, 1)), Fold::Held);
        assert_eq!(buf.fold(event(5, 1)), Fold::Merged);
        assert_eq!(buf.fold(event(20, 1)), Fold::Merged);
        assert_eq!(buf.len(), 1);
        let rep = buf.pop().unwrap();
        assert_eq!(rep.weight, 3);
        assert_eq!(rep.event.time, Timestamp::from_secs(5));
        assert!(buf.is_empty());
    }

    #[test]
    fn coalesce_sheds_when_full_and_unmatched() {
        let mut buf = CoalesceBuffer::new(2);
        assert_eq!(buf.fold(event(0, 1)), Fold::Held);
        assert_eq!(buf.fold(event(0, 2)), Fold::Held);
        match buf.fold(event(0, 3)) {
            Fold::Shed(back) => assert_eq!(back.event.prefix, event(0, 3).event.prefix),
            other => panic!("expected Shed, got {other:?}"),
        }
        // A matching event still merges even when the buffer is full.
        assert_eq!(buf.fold(event(0, 2)), Fold::Merged);
    }

    #[test]
    fn zero_capacity_buffer_always_sheds() {
        let mut buf = CoalesceBuffer::new(0);
        assert!(matches!(buf.fold(event(0, 1)), Fold::Shed(_)));
    }
}
