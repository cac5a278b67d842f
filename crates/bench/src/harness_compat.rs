//! The positional crawl entry point the frozen benchmark harness under
//! `benchmark/` calls, re-exported at the crate root under its old
//! path. Workspace code names the fields of a [`CrawlSpec`] instead.

use crate::{CrawlResults, CrawlSpec, ObsConfig};
use origin_netsim::FaultProfile;
use origin_telemetry::trace::Sampler;

/// [`CrawlSpec::run`] behind a positional signature.
#[allow(clippy::too_many_arguments)]
pub fn run_crawl_observed(
    sites: u32,
    seed: u64,
    threads: usize,
    sampler: Option<&Sampler>,
    faults: Option<&FaultProfile>,
    legacy_share: f64,
    h3_share: f64,
    obs: Option<&ObsConfig>,
) -> CrawlResults {
    CrawlSpec {
        sites,
        seed,
        threads,
        sampler: sampler.copied(),
        faults: faults.copied(),
        legacy_share,
        h3_share,
        obs: obs.cloned(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_telemetry::trace::to_chrome_json;

    /// With every argument non-default, the adapter and the struct it
    /// forwards to export the same registry, trace and timeline bytes.
    #[test]
    fn positional_adapter_cannot_drift_from_crawl_spec() {
        let s = CrawlSpec {
            threads: 2,
            sampler: Some(Sampler::new(4)),
            faults: Some(FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap()),
            legacy_share: 0.25,
            h3_share: 0.5,
            obs: Some(ObsConfig::default()),
            ..CrawlSpec::new(300, 0x0516)
        };
        let exports = |r: &CrawlResults| {
            let timeline = r.timeline.as_ref().expect("observed crawl");
            [
                r.metrics.to_json(),
                to_chrome_json(&r.trace),
                timeline.to_json(),
            ]
        };
        let positional = run_crawl_observed(
            s.sites,
            s.seed,
            s.threads,
            s.sampler.as_ref(),
            s.faults.as_ref(),
            s.legacy_share,
            s.h3_share,
            s.obs.as_ref(),
        );
        let [metrics, trace, timeline] = exports(&positional);
        assert!(metrics.contains("\"fault.") && metrics.contains("\"h1."));
        assert!(trace.contains("\"traceEvents\"") && !timeline.is_empty());
        assert_eq!([metrics, trace, timeline], exports(&s.run()));
    }
}
