//! The `serve-*` workloads: the open-loop serving engine over
//! pre-compiled site plans.

use crate::harness::Checked;
use crate::spans::SpanLog;
use crate::stats::{derive_seed, fnv1a64};
use origin_netsim::SimDuration;
use origin_serve::engine::ServeReport;
use origin_serve::plan::compile_dataset;
use origin_serve::{ServeConfig, SitePlan};
use origin_webgen::{Dataset, DatasetConfig};
use std::collections::BTreeMap;

/// The BENCH_6 configuration: `ServeConfig::default()` over `visits`
/// visits and `sites` ranks of the reference dataset. The pool is
/// reuse-heavy.
///
/// The benchmark seed drives the traffic (arrivals, sessions, site
/// choices, rollout); the synthetic web stays the repository's
/// reference one (`DatasetConfig::default().seed`, what `repro serve`
/// and BENCH_6 use). Zipf(1.1) popularity sends ~40% of all visits to
/// the ten top-ranked sites, so a seed-drawn dataset makes the work
/// itself a lottery over those few pages: connections opened per
/// million visits ranged 9.0M–12.7M over six dataset seeds, against
/// 9.32M–9.34M over six traffic seeds on the reference dataset.
pub fn steady(seed: u64, visits: u64, sites: u32) -> ServeConfig {
    ServeConfig {
        dataset: DatasetConfig {
            sites,
            ..Default::default()
        },
        seed: derive_seed(seed, 0x5E17E),
        visits,
        threads: 1,
        ..Default::default()
    }
}

/// The same traffic against a starved pool under a live rollout: LRU
/// and per-edge eviction, idle sweeps and window folding instead of
/// reuse, and the ORIGIN arm (the ramp's first 600 simulated seconds
/// and every provider-free site keep the control arm busy too;
/// `serve-steady` is all control).
///
/// The rollout targets every edge. A 0.5 target turns the run into a
/// draw of which few heavy edges end up advertising ORIGIN:
/// connections opened per million visits ranged 7.7M–12.9M over six
/// traffic seeds at 0.5, against 6.91M–6.94M at 1.0.
pub fn churn(seed: u64, visits: u64, sites: u32) -> ServeConfig {
    ServeConfig {
        rollout: 1.0,
        rollout_ramp: SimDuration::from_secs(600),
        retain_windows: Some(64),
        pool_budget: 8,
        edge_cap: 2,
        idle_timeout: SimDuration::from_secs(5),
        ..steady(seed, visits, sites)
    }
}

/// The set-up sequence handed to the timed region: generate the
/// dataset, compile one plan per successful site.
pub fn compile(cfg: &ServeConfig, log: &mut SpanLog) -> Vec<SitePlan> {
    let dataset = log.wrap("webgen.generate", 0, || Dataset::generate(cfg.dataset));
    log.wrap("serve.compile", 0, || compile_dataset(&dataset))
}

/// Check one run's invariants and reduce it to its digest.
pub fn verify(cfg: &ServeConfig, report: &ServeReport) -> Result<Checked, String> {
    if report.visits != cfg.visits {
        return Err(format!("served {} of {} visits", report.visits, cfg.visits));
    }
    let arms = report.metrics.counter("serve.arm_control_visits")
        + report.metrics.counter("serve.arm_origin_visits");
    if arms != report.visits {
        return Err(format!("arm visits {arms} != visits {}", report.visits));
    }
    let text = format!("{}{}", report.metrics.to_json(), report.summary());
    Ok(Checked {
        digest: fnv1a64(text.as_bytes()),
        paper_abs_err_pct: None,
    })
}

/// Per-layer metrics of one traced pass: `log` holds the set-up spans
/// and one `serve.run` span around `run_serve_on`.
pub fn layer_metrics(
    cfg: &ServeConfig,
    plans: &[SitePlan],
    report: &ServeReport,
    log: &SpanLog,
) -> BTreeMap<&'static str, f64> {
    let totals = log.totals();
    let run_ns = totals["serve.run"].total_ns as f64;
    let c = |name: &str| report.metrics.counter(name) as f64;
    let visits = cfg.visits as f64;
    BTreeMap::from([
        (
            "serve.compile_us_per_site",
            totals["serve.compile"].total_ns as f64 / 1e3 / plans.len() as f64,
        ),
        ("serve.run_ns_per_visit", run_ns / visits),
        ("serve.ns_per_request", run_ns / c("serve.requests")),
        (
            "serve.pool_reuse_ratio",
            c("serve.pool_reused") / (c("serve.pool_reused") + c("serve.connections_opened")),
        ),
        (
            "serve.evictions_per_visit",
            (c("serve.pool_lru_evicted") + c("serve.pool_edge_evicted")) / visits,
        ),
        (
            "serve.conns_opened_per_visit",
            c("serve.connections_opened") / visits,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_serve::engine::run_serve_on;

    #[test]
    fn both_configurations_pass_their_invariants_and_differ_in_churn() {
        let mut log = SpanLog::on();
        let steady_cfg = steady(7, 20_000, 400);
        let plans = compile(&steady_cfg, &mut log);
        let steady_report = log.wrap("serve.run", 0, || run_serve_on(&steady_cfg, &plans));
        let churn_cfg = churn(7, 20_000, 400);
        let churn_report = run_serve_on(&churn_cfg, &plans);
        let a = verify(&steady_cfg, &steady_report).unwrap();
        let b = verify(&churn_cfg, &churn_report).unwrap();
        assert_ne!(a.digest, b.digest);
        let m = layer_metrics(&steady_cfg, &plans, &steady_report, &log);
        let evictions = |r: &ServeReport| r.metrics.counter("serve.pool_lru_evicted");
        assert!(evictions(&churn_report) > evictions(&steady_report));
        assert!(m["serve.pool_reuse_ratio"] > 0.0 && m["serve.run_ns_per_visit"] > 0.0);
        // Two shards reproduce the one-shard digest.
        let two = ServeConfig {
            threads: 2,
            ..steady_cfg.clone()
        };
        assert_eq!(verify(&two, &run_serve_on(&two, &plans)).unwrap(), a);
    }
}
