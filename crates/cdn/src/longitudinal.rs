//! Figure 8: longitudinal view of new TLS connections to the
//! coalesced subresource.
//!
//! The paper plots daily new-TLS-connection rates to the third party
//! for control and experiment groups across January–February 2022:
//! the two-week ORIGIN deployment window shows the experiment arm at
//! roughly half the control's rate, with both arms equal before and
//! after.

use crate::env::DeploymentMode;
use crate::passive::PassivePipeline;
use crate::sample::{SampleGroup, Treatment};
use origin_core::stats::TimeSeries;
use origin_netsim::SimRng;

/// A longitudinal run: day-bucketed connection rates per arm.
pub struct LongitudinalRun {
    /// Days in the full observation window.
    pub days: u32,
    /// First day of the deployment (inclusive).
    pub deploy_start_day: u32,
    /// Day the deployment ends (exclusive).
    pub deploy_end_day: u32,
    /// Visits simulated per day.
    pub visits_per_day: u64,
}

/// The two series of Figure 8.
pub struct LongitudinalSeries {
    /// Experiment arm: new TLS connections per day bucket.
    pub experiment: TimeSeries,
    /// Control arm.
    pub control: TimeSeries,
}

impl LongitudinalRun {
    /// The paper's window: ~8 weeks observed, two-week deployment in
    /// the middle.
    pub fn paper_window() -> Self {
        LongitudinalRun {
            days: 56,
            deploy_start_day: 21,
            deploy_end_day: 35,
            visits_per_day: 4_000,
        }
    }

    /// Simulate the window. Deployment mode applies only inside the
    /// deployment days; before/after is the baseline.
    pub fn run(&self, group: &SampleGroup, mode: DeploymentMode, seed: u64) -> LongitudinalSeries {
        let day = 86_400.0;
        let horizon = self.days as f64 * day;
        let mut experiment = TimeSeries::new(horizon, day);
        let mut control = TimeSeries::new(horizon, day);
        let mut rng = SimRng::seed_from_u64(seed);
        let active_pipeline = PassivePipeline::new(mode);
        let baseline_pipeline = PassivePipeline::new(DeploymentMode::Baseline);
        for d in 0..self.days {
            let in_window = (self.deploy_start_day..self.deploy_end_day).contains(&d);
            let pipeline = if in_window {
                &active_pipeline
            } else {
                &baseline_pipeline
            };
            for _ in 0..self.visits_per_day {
                let site = &group.sites[rng.index(group.sites.len())];
                let t = d as f64 * day + rng.unit() * day;
                let coalesces =
                    pipeline.visit_coalesces(site.treatment, site.third_party_fetch, &mut rng);
                if !coalesces {
                    // One new TLS connection to the third party.
                    match site.treatment {
                        Treatment::Experiment => experiment.record(t),
                        Treatment::Control => control.record(t),
                    }
                }
            }
        }
        LongitudinalSeries {
            experiment,
            control,
        }
    }
}

impl LongitudinalSeries {
    /// Mean daily rates inside a day range: `(experiment, control)`.
    pub fn mean_rates(&self, start_day: u32, end_day: u32) -> (f64, f64) {
        let e = self
            .experiment
            .mean_rate(start_day as usize, end_day as usize);
        let c = self.control.mean_rate(start_day as usize, end_day as usize);
        (e * 86_400.0, c * 86_400.0)
    }

    /// Relative reduction of experiment vs control over a window.
    pub fn reduction(&self, start_day: u32, end_day: u32) -> f64 {
        let (e, c) = self.mean_rates(start_day, end_day);
        if c == 0.0 {
            0.0
        } else {
            1.0 - e / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(0x1046);
        SampleGroup::build(1_500, &mut rng)
    }

    #[test]
    fn reduction_only_inside_deployment_window() {
        let g = group();
        let run = LongitudinalRun {
            days: 30,
            deploy_start_day: 10,
            deploy_end_day: 20,
            visits_per_day: 2_000,
        };
        let s = run.run(&g, DeploymentMode::OriginFrames, 7);
        let before = s.reduction(0, 10);
        let during = s.reduction(10, 20);
        let after = s.reduction(20, 30);
        assert!(before.abs() < 0.1, "before {before}");
        assert!((0.35..=0.65).contains(&during), "during {during}");
        assert!(after.abs() < 0.1, "after {after}");
    }

    #[test]
    fn experiment_halves_during_window() {
        let g = group();
        let run = LongitudinalRun {
            days: 12,
            deploy_start_day: 2,
            deploy_end_day: 10,
            visits_per_day: 2_000,
        };
        let s = run.run(&g, DeploymentMode::OriginFrames, 9);
        let (e, c) = s.mean_rates(2, 10);
        assert!(e < c * 0.7, "exp {e} ctl {c}");
        assert!(e > 0.0);
    }

    #[test]
    fn series_cover_every_day() {
        let g = group();
        let run = LongitudinalRun {
            days: 5,
            deploy_start_day: 1,
            deploy_end_day: 3,
            visits_per_day: 500,
        };
        let s = run.run(&g, DeploymentMode::IpAligned, 11);
        assert_eq!(s.experiment.len(), 5);
        assert_eq!(s.control.len(), 5);
        assert!(s.control.total() > 0);
    }
}
