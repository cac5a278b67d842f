//! The §6.7 non-compliant middlebox incident.
//!
//! During the ORIGIN deployment, an antivirus vendor's network agent
//! tore down TLS connections carrying the unknown ORIGIN frame type
//! instead of ignoring it as RFC 7540 §4.1 requires. The failure was
//! observed as elevated failed-connection rates on experiment sites,
//! diagnosed collaboratively, disclosure was limited, testing paused,
//! and the vendor shipped a fix months later.
//!
//! This module reproduces the mechanics: a population of clients,
//! some behind a non-compliant middlebox, connecting to edges that
//! may or may not send ORIGIN frames.

use crate::sample::{SampleGroup, Treatment};
use origin_netsim::fault::{Middlebox, MiddleboxVerdict};
use origin_netsim::SimRng;

/// The ORIGIN frame's wire type code (RFC 8336).
const ORIGIN_FRAME_TYPE: u8 = 0x0c;

/// Parameters of the incident scenario.
#[derive(Debug, Clone)]
pub struct MiddleboxIncident {
    /// Fraction of clients whose traffic crosses the buggy agent.
    pub affected_client_share: f64,
    /// Whether the vendor's fix has shipped (§6.7: September 2022).
    pub vendor_fixed: bool,
}

impl Default for MiddleboxIncident {
    fn default() -> Self {
        MiddleboxIncident {
            affected_client_share: 0.03,
            vendor_fixed: false,
        }
    }
}

/// Connection-level outcome counts for one simulated population.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentReport {
    /// Connections attempted.
    pub attempts: u64,
    /// Connections torn down by the middlebox.
    pub torn_down: u64,
    /// Connections that completed.
    pub completed: u64,
}

impl IncidentReport {
    /// Failed-connection rate.
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.torn_down as f64 / self.attempts as f64
        }
    }
}

impl MiddleboxIncident {
    /// Simulate `connections` client connections to the sample group
    /// with ORIGIN frames `enabled` server-side. Returns per-arm
    /// reports `(experiment, control)`.
    ///
    /// Note: both arms send *an* ORIGIN frame when the deployment is
    /// live (the control frame carries the decoy), so the §6.7 bug
    /// hits both arms equally — exactly how the incident surfaced as
    /// a deployment-wide signal rather than a treatment effect.
    pub fn simulate(
        &self,
        group: &SampleGroup,
        connections: u64,
        origin_enabled: bool,
        rng: &mut SimRng,
    ) -> (IncidentReport, IncidentReport) {
        let mut exp = IncidentReport::default();
        let mut ctl = IncidentReport::default();
        for _ in 0..connections {
            let site = &group.sites[rng.index(group.sites.len())];
            let report = match site.treatment {
                Treatment::Experiment => &mut exp,
                Treatment::Control => &mut ctl,
            };
            report.attempts += 1;
            let behind_buggy = !self.vendor_fixed && rng.chance(self.affected_client_share);
            // Frames crossing the path during connection setup: the
            // server's SETTINGS (0x04) always; ORIGIN (0x0c) when the
            // deployment is live.
            let middlebox = if behind_buggy {
                Middlebox::NonCompliant
            } else {
                Middlebox::Compliant
            };
            let frames: &[u8] = if origin_enabled {
                &[0x04, ORIGIN_FRAME_TYPE]
            } else {
                &[0x04]
            };
            if frames
                .iter()
                .any(|&ft| middlebox.inspect(ft) == MiddleboxVerdict::TearDown)
            {
                report.torn_down += 1;
            } else {
                report.completed += 1;
            }
        }
        (exp, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(0x1bc1);
        SampleGroup::build(500, &mut rng)
    }

    #[test]
    fn no_origin_no_failures() {
        let g = group();
        let mut rng = SimRng::seed_from_u64(1);
        let inc = MiddleboxIncident::default();
        let (exp, ctl) = inc.simulate(&g, 20_000, false, &mut rng);
        assert_eq!(exp.torn_down, 0);
        assert_eq!(ctl.torn_down, 0);
        assert_eq!(exp.completed, exp.attempts);
    }

    #[test]
    fn origin_deployment_surfaces_the_bug_in_both_arms() {
        let g = group();
        let mut rng = SimRng::seed_from_u64(2);
        let inc = MiddleboxIncident {
            affected_client_share: 0.03,
            vendor_fixed: false,
        };
        let (exp, ctl) = inc.simulate(&g, 40_000, true, &mut rng);
        // Failure rate ≈ affected share, in both arms.
        assert!(
            (0.02..=0.045).contains(&exp.failure_rate()),
            "{}",
            exp.failure_rate()
        );
        assert!(
            (0.02..=0.045).contains(&ctl.failure_rate()),
            "{}",
            ctl.failure_rate()
        );
    }

    #[test]
    fn vendor_fix_clears_failures() {
        let g = group();
        let mut rng = SimRng::seed_from_u64(3);
        let inc = MiddleboxIncident {
            affected_client_share: 0.03,
            vendor_fixed: true,
        };
        let (exp, ctl) = inc.simulate(&g, 20_000, true, &mut rng);
        assert_eq!(exp.torn_down + ctl.torn_down, 0);
    }

    #[test]
    fn failure_rate_scales_with_prevalence() {
        let g = group();
        let mut rng = SimRng::seed_from_u64(4);
        let low = MiddleboxIncident {
            affected_client_share: 0.01,
            vendor_fixed: false,
        };
        let high = MiddleboxIncident {
            affected_client_share: 0.20,
            vendor_fixed: false,
        };
        let (e1, c1) = low.simulate(&g, 30_000, true, &mut rng);
        let (e2, c2) = high.simulate(&g, 30_000, true, &mut rng);
        let total_low = (e1.torn_down + c1.torn_down) as f64 / (e1.attempts + c1.attempts) as f64;
        let total_high = (e2.torn_down + c2.torn_down) as f64 / (e2.attempts + c2.attempts) as f64;
        assert!(total_high > total_low * 5.0);
    }
}
