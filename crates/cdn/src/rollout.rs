//! Per-edge ORIGIN rollout state for the serving engine's live A/B.
//!
//! The paper's §5.3 deployment flipped ORIGIN support on for a fixed
//! treatment group before measurement started. A production rollout is
//! messier: support ramps across the edge fleet *while traffic is
//! being served*, and the interesting series is per-arm behaviour as
//! the ramp progresses (DESIGN.md §20). [`Rollout`] models that ramp
//! as a deterministic pure function of `(edge, time)` so every worker
//! shard — and every rerun — sees the identical assignment without
//! any shared mutable state.

use origin_netsim::hash::splitmix64;
use origin_netsim::{SimDuration, SimTime};

/// A linear ramp of ORIGIN-frame advertisement across the edge fleet.
///
/// Each edge hashes to a stable "eagerness" score in `[0, 1)`; an edge
/// advertises ORIGIN at time `t` iff its score falls below the current
/// rollout share `share(t) = target · min(1, t / ramp)`. Because the
/// share is non-decreasing, edges join the treatment arm and never
/// leave it — matching how real fleet config pushes behave and keeping
/// per-arm series monotone in membership.
#[derive(Debug, Clone, Copy)]
pub struct Rollout {
    /// Final fraction of edges advertising ORIGIN, in `[0, 1]`.
    target: f64,
    /// Sim time over which the share ramps from 0 to `target`; a zero
    /// ramp means the full target is live from `t = 0`.
    ramp: SimDuration,
    /// Seed decorrelating edge assignment from every other stream.
    seed: u64,
}

impl Rollout {
    /// Create a rollout reaching `target` share over `ramp`. Panics
    /// when `target` is outside `[0, 1]`.
    pub fn new(target: f64, ramp: SimDuration, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&target),
            "rollout target must be in [0, 1]"
        );
        Rollout { target, ramp, seed }
    }

    /// The rollout share at `t`: the fraction of the fleet advertising
    /// ORIGIN.
    pub fn share(&self, t: SimTime) -> f64 {
        if self.target == 0.0 {
            return 0.0;
        }
        let ramp_us = self.ramp.as_micros();
        if ramp_us == 0 {
            return self.target;
        }
        let progress = (t.as_micros() as f64 / ramp_us as f64).min(1.0);
        self.target * progress
    }

    /// The final rollout share once the ramp completes.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Whether edge `edge` advertises ORIGIN at time `t`.
    ///
    /// Pure in `(edge, t)`: no state, so any shard, thread, or rerun
    /// computes the identical assignment. Monotone in `t`: once an
    /// edge's score clears the share it stays in the treatment arm.
    pub fn origin_enabled(&self, edge: u32, t: SimTime) -> bool {
        if self.target == 0.0 {
            return false;
        }
        let score = splitmix64(self.seed ^ u64::from(edge)) as f64 / (u64::MAX as f64 + 1.0);
        score < self.share(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_ramps_linearly_to_target() {
        let r = Rollout::new(0.5, SimDuration::from_secs(100), 1);
        assert_eq!(r.share(SimTime::ZERO), 0.0);
        let mid = r.share(SimTime::from_secs(50));
        assert!((mid - 0.25).abs() < 1e-12);
        assert_eq!(r.share(SimTime::from_secs(100)), 0.5);
        assert_eq!(r.share(SimTime::from_secs(5_000)), 0.5, "clamps at target");
    }

    #[test]
    fn zero_ramp_is_live_immediately() {
        let r = Rollout::new(0.3, SimDuration::ZERO, 1);
        assert_eq!(r.share(SimTime::ZERO), 0.3);
    }

    #[test]
    fn membership_is_monotone_per_edge() {
        let r = Rollout::new(1.0, SimDuration::from_secs(1_000), 0x0517);
        for edge in 0..200u32 {
            let mut joined = false;
            for s in 0..=20u64 {
                let on = r.origin_enabled(edge, SimTime::from_secs(s * 50));
                assert!(on || !joined, "edge {edge} left the treatment arm");
                joined |= on;
            }
            assert!(joined, "full rollout must eventually cover edge {edge}");
        }
    }

    #[test]
    fn final_coverage_tracks_target() {
        let r = Rollout::new(0.4, SimDuration::from_secs(10), 0xFEED);
        let t = SimTime::from_secs(10);
        let on = (0..10_000u32).filter(|&e| r.origin_enabled(e, t)).count();
        // Binomial(10k, 0.4): σ ≈ 49, allow ±5σ.
        assert!((3_750..4_250).contains(&on), "coverage {on}");
    }

    #[test]
    fn disabled_rollout_never_advertises() {
        let r = Rollout::new(0.0, SimDuration::ZERO, 9);
        assert!(!r.origin_enabled(0, SimTime::from_secs(1_000_000)));
        assert_eq!(r.share(SimTime::from_secs(1_000_000)), 0.0);
    }
}
