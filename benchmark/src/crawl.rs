//! The `crawl-*` workloads: §3 crawl + §4 model + cert plan through
//! `origin_bench::run_crawl_observed`, and the traced replay of the
//! same per-site call sequence.

use crate::harness::Checked;
use crate::spans::SpanLog;
use crate::stats::fnv1a64;
use origin_bench::{CrawlResults, ObsConfig, SeriesSamples, DEPLOYMENT_CDN_ASN};
use origin_browser::{BrowserKind, FaultSession, PageLoader, UniverseEnv, VisitArena};
use origin_core::certplan::{plan_site, EffectiveChanges, PlanSummary};
use origin_core::characterize::Characterization;
use origin_core::model::predict_counts3;
use origin_metrics::Registry;
use origin_netsim::{FaultProfile, SimRng};
use origin_obs::window::{DEFAULT_SPACING, DEFAULT_WINDOW};
use origin_obs::{FlightRecorder, Timeline, VisitObs, VisitSinks};
use origin_trace::{Sampler, Tracer};
use origin_webgen::{Dataset, DatasetConfig, PageScratch, PROVIDERS};
use std::collections::BTreeMap;
use std::time::Instant;

/// One crawl configuration: the arguments of `run_crawl_observed`
/// minus the seed.
#[derive(Debug, Clone)]
pub struct CrawlSpec {
    /// Tranco ranks to generate.
    pub sites: u32,
    /// Share of legacy HTTP/1.1 sites.
    pub legacy_share: f64,
    /// Share of non-legacy sites deploying HTTP/3.
    pub h3_share: f64,
    /// Fault profile, if any.
    pub faults: Option<FaultProfile>,
    /// Feed the timeline and the flight recorder.
    pub observed: bool,
    /// Trace the visits this sampler keeps.
    pub sampler: Option<Sampler>,
}

impl CrawlSpec {
    /// A pure-h2 universe of `sites` ranks, no faults, no telemetry.
    pub fn pure(sites: u32) -> Self {
        CrawlSpec {
            sites,
            legacy_share: 0.0,
            h3_share: 0.0,
            faults: None,
            observed: false,
            sampler: None,
        }
    }

    /// The `crawl-mixed` universe: h1 and h3 machines, fault recovery
    /// and all four telemetry sinks on the same loader.
    pub fn mixed(sites: u32) -> Self {
        CrawlSpec {
            sites,
            legacy_share: 0.25,
            h3_share: 0.5,
            faults: Some(
                FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1")
                    .expect("the reference fault spec parses"),
            ),
            observed: true,
            sampler: Some(Sampler::new(4)),
        }
    }

    fn is_mixed(&self) -> bool {
        self.legacy_share > 0.0 || self.h3_share > 0.0
    }

    fn dataset_config(&self, seed: u64) -> DatasetConfig {
        DatasetConfig {
            sites: self.sites,
            seed,
            legacy_share: self.legacy_share,
            h3_share: self.h3_share,
            ..Default::default()
        }
    }

    /// The set-up sequence: what `run_crawl_observed` does before its
    /// first visit.
    pub fn generate(&self, seed: u64) -> Dataset {
        Dataset::generate(self.dataset_config(seed))
    }

    /// The timed region: the whole call, dataset generation included,
    /// because that is what a `repro` user pays.
    pub fn run(&self, seed: u64, threads: usize) -> CrawlResults {
        let obs = self.observed.then(ObsConfig::default);
        origin_bench::run_crawl_observed(
            self.sites,
            seed,
            threads,
            self.sampler.as_ref(),
            self.faults.as_ref(),
            self.legacy_share,
            self.h3_share,
            obs.as_ref(),
        )
    }

    /// Check one run's invariants and reduce it to its digest.
    pub fn verify(&self, r: &CrawlResults, with_paper: bool) -> Result<Checked, String> {
        let pages = r.metrics.counter("crawl.pages");
        let successful = r.dataset.successful_sites().count() as u64;
        if pages != successful || pages != r.measured.plt.len() as u64 {
            return Err(format!(
                "crawl.pages {pages} != successful sites {successful} or PLT samples {}",
                r.measured.plt.len()
            ));
        }
        if self.h3_share > 0.0 {
            let c = |name| r.metrics.counter(name);
            if c("h3.connections") != c("h3.handshakes_1rtt") + c("h3.handshakes_0rtt") {
                return Err("h3.connections != 1-RTT + 0-RTT handshakes".into());
            }
        }
        if self.observed {
            let timeline = r
                .timeline
                .as_ref()
                .ok_or("observed crawl returned no timeline")?;
            if timeline.total_visits() != pages {
                return Err(format!(
                    "timeline visits {} != crawl.pages {pages}",
                    timeline.total_visits()
                ));
            }
            let recovery = timeline.totals().fault_recovery_rate();
            if recovery != 1.0 {
                return Err(format!("fault_recovery_rate {recovery} != 1"));
            }
        }
        Ok(Checked {
            digest: digest(&r.metrics, &r.measured, &r.model_ip, &r.model_origin),
            paper_abs_err_pct: with_paper.then(|| paper_abs_err_pct(r)),
        })
    }
}

/// FNV-1a over the registry JSON and the measured/ideal medians.
fn digest(
    m: &Registry,
    measured: &SeriesSamples,
    ip: &SeriesSamples,
    origin: &SeriesSamples,
) -> u64 {
    let text = format!(
        "{}{:?}{:?}{:?}",
        m.to_json(),
        measured.medians(),
        ip.medians(),
        origin.medians()
    );
    fnv1a64(text.as_bytes())
}

/// Mean of |ours − paper| / |paper| × 100 over `(ours, paper)` pairs.
pub fn mean_abs_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs
        .iter()
        .map(|&(ours, paper)| (ours - paper).abs() / paper.abs())
        .sum();
    sum / pairs.len() as f64 * 100.0
}

/// Distance from the paper's §3/§4 headline values (EXPERIMENTS.md
/// rows T1, F3, T8, F9 top).
fn paper_abs_err_pct(r: &CrawlResults) -> f64 {
    let (m_dns, m_tls, m_plt) = r.measured.medians();
    let (i_dns, i_tls, i_plt) = r.model_ip.medians();
    let (o_dns, o_tls, o_plt) = r.model_origin.medians();
    let unchanged = r.metrics.counter("certplan.unchanged_sites") as f64
        / r.metrics.counter("certplan.sites") as f64
        * 100.0;
    let plt_change = |ideal: f64| (ideal - m_plt) / m_plt * 100.0;
    mean_abs_err_pct(&[
        (m_dns, 14.0),
        (m_tls, 16.0),
        (i_dns, 13.0),
        (i_tls, 13.0),
        (o_dns, 5.0),
        (o_tls, 5.0),
        (unchanged, 62.41),
        (plt_change(i_plt), -10.0),
        (plt_change(o_plt), -27.0),
    ])
}

/// What one traced replay produced.
pub struct Replay {
    /// Wall time of the whole replay, s.
    pub wall_s: f64,
    /// Digest over the same inputs as [`CrawlSpec::verify`]'s.
    pub digest: u64,
    /// Pages crawled.
    pub pages: u64,
    /// The registry: compared with `run_crawl_observed`'s, and the
    /// source of the per-layer counts and ratios.
    pub metrics: Registry,
}

/// Replay the `crawl_site` call sequence documented in
/// `crates/bench/src/lib.rs` on one thread, a span per call into a
/// layer: `page_for_with`, `load_observed`, `predict_counts3`,
/// `Characterization::add`, `plan_site`, under one `site` span per
/// rank and one `crawl` span for the run. One accumulator stands in
/// for the four rank-ordered chunks the real run merges, so the
/// registry must come out identical.
pub fn replay(spec: &CrawlSpec, seed: u64, log: &mut SpanLog) -> Replay {
    let t0 = Instant::now();
    log.enter("crawl", 0);
    let config = spec.dataset_config(seed);
    let dataset = log.wrap("webgen.generate", 0, || Dataset::generate(config));
    let sites: Vec<_> = dataset.successful_sites().cloned().collect();

    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    if spec.faults.is_some_and(|p| p.middlebox > 0.0) {
        env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
    }
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();

    let mut characterization = Characterization::new(spec.sites, config.tranco_total);
    let mut measured = SeriesSamples::default();
    let mut model_ip = SeriesSamples::default();
    let mut model_origin = SeriesSamples::default();
    let mut plan = PlanSummary::default();
    let mut effective = EffectiveChanges::new();
    let mut metrics = Registry::new();
    let mut trace = Tracer::new();
    let mut obs = spec.observed.then(|| {
        (
            Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING),
            FlightRecorder::new(origin_obs::flight::DEFAULT_CAPACITY),
            VisitObs::default(),
        )
    });

    for site in &sites {
        let id = u64::from(site.rank);
        log.enter("site", id);
        log.enter("webgen.page_for_with", id);
        let page = dataset.page_for_with(site, &mut scratch);
        log.exit();

        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let mut fault_session = spec
            .faults
            .map(|p| FaultSession::new(p, site.page_seed ^ 0xFA017CE5));
        if let Some((_, flight, visit)) = obs.as_mut() {
            flight.begin_visit(site.rank);
            flight.record(0, "visit.begin", id, site.root_host.as_str());
            visit.clear();
        }
        let traced = spec.sampler.is_some_and(|s| s.keep(site.rank));
        if traced {
            trace.begin_visit(
                id,
                &format!("site-{} {}", site.rank, site.root_host.as_str()),
            );
        }
        let sinks = match obs.as_mut() {
            Some((_, flight, visit)) => VisitSinks {
                flight: Some(flight),
                visit: Some(visit),
            },
            None => VisitSinks::default(),
        };
        log.enter("browser.load_observed", id);
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            fault_session.as_mut(),
            Some(&mut metrics),
            traced.then_some(&mut trace),
            &mut arena,
            sinks,
        );
        log.exit();
        let resolver_stats = env.take_resolver_stats();
        resolver_stats.record_into(&mut metrics);

        log.enter("core.characterize_add", id);
        characterization.add(&page, &load);
        log.exit();
        measured.dns.push(load.dns_queries() as f64);
        measured.tls.push(load.tls_connections() as f64);
        measured.plt.push(load.plt());

        log.enter("core.predict_counts3", id);
        let [ip, origin, _cdn] = predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN);
        log.exit();
        for (series, p) in [(&mut model_ip, &ip), (&mut model_origin, &origin)] {
            series.dns.push(p.dns_queries as f64);
            series.tls.push(p.tls_connections as f64);
            series.plt.push(p.plt_ms);
        }

        if let Some((timeline, flight, v)) = obs.as_mut() {
            resolver_stats.record_obs(v);
            v.model_ip_tls = ip.tls_connections;
            v.model_origin_tls = origin.tls_connections;
            v.plt_ideal_ip_us = origin_web::har::ms_to_us(ip.plt_ms);
            v.plt_ideal_origin_us = origin_web::har::ms_to_us(origin.plt_ms);
            flight.record(v.plt_us, "visit.end", v.plt_us, site.root_host.as_str());
            timeline.record_visit(v);
        }

        let cert = dataset.universe.cert_for(&site.root_host);
        let universe = &dataset.universe;
        let root_reg = site.root_host.registrable_str();
        let root_asn = universe.asn_of_host(&site.root_host);
        log.enter("core.plan_site", id);
        let site_plan = plan_site(&page, cert, |_, b| {
            root_reg == b.registrable_str()
                || (root_asn != 0 && root_asn == universe.asn_of_host(b))
        });
        log.exit();
        plan.add(&site_plan);
        let provider = site.provider.map_or("Self-hosted", |i| PROVIDERS[i].org);
        effective.add(provider, &site_plan);

        scratch.recycle(page);
        arena.recycle(load);
        log.exit();
    }

    characterization.record_into(&mut metrics);
    plan.record_into(&mut metrics);
    if let Some((timeline, flight, _)) = &obs {
        metrics.add("obs.flight_events", flight.events_recorded());
        metrics.add("obs.visits", timeline.total_visits());
        metrics.add("obs.windows", timeline.num_windows() as u64);
    }
    log.exit();
    Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        digest: digest(&metrics, &measured, &model_ip, &model_origin),
        pages: sites.len() as u64,
        metrics,
    }
}

/// Per-layer metrics of one replay, read off its spans and counters.
/// `run_wall_s` is the untraced `run_crawl_observed` wall time over the
/// same input: what it spent outside the replayed calls (chunking,
/// shard merge, sample pushes) is `bench.crawl_other_us_per_site`.
pub fn layer_metrics(
    spec: &CrawlSpec,
    replay: &Replay,
    log: &SpanLog,
    run_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let totals = log.totals();
    let pages = replay.pages as f64;
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let c = |name: &str| replay.metrics.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let calls_us: f64 = [
        "webgen.generate",
        "webgen.page_for_with",
        "browser.load_observed",
        "core.characterize_add",
        "core.predict_counts3",
        "core.plan_site",
    ]
    .iter()
    .map(|n| total_us(n))
    .sum();

    let mut m = BTreeMap::from([
        (
            "webgen.generate_us_per_site",
            total_us("webgen.generate") / f64::from(spec.sites),
        ),
        (
            "webgen.page_us_per_site",
            total_us("webgen.page_for_with") / pages,
        ),
        (
            "browser.load_us_per_site",
            total_us("browser.load_observed") / pages,
        ),
        (
            "core.model_us_per_site",
            total_us("core.predict_counts3") / pages,
        ),
        (
            "core.certplan_us_per_site",
            total_us("core.plan_site") / pages,
        ),
        (
            "core.characterize_us_per_site",
            total_us("core.characterize_add") / pages,
        ),
        (
            "bench.crawl_other_us_per_site",
            (run_wall_s * 1e6 - calls_us) / pages,
        ),
        ("browser.requests_per_site", c("browser.requests") / pages),
        (
            "browser.conns_opened_per_site",
            c("browser.connections_opened") / pages,
        ),
        (
            "browser.coalesce_ratio",
            ratio(c("browser.coalesced_requests"), c("browser.requests")),
        ),
        (
            "browser.pool_reuse_ratio",
            ratio(
                c("browser.pool_reuse"),
                c("browser.pool_reuse") + c("browser.connections_opened"),
            ),
        ),
        ("dns.lookups_per_site", c("dns.lookups") / pages),
        (
            "dns.cache_hit_ratio",
            ratio(c("dns.cache_hits"), c("dns.lookups")),
        ),
    ]);
    if spec.is_mixed() {
        m.insert("h1.requests_per_site", c("h1.requests") / pages);
        m.insert(
            "h3.zero_rtt_share",
            ratio(c("h3.handshakes_0rtt"), c("h3.connections")),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_err_is_the_mean_relative_distance() {
        assert_eq!(mean_abs_err_pct(&[(14.0, 14.0)]), 0.0);
        // |13−14|/14 and |−5−(−10)|/10 → (1/14 + 1/2) / 2.
        let e = mean_abs_err_pct(&[(13.0, 14.0), (-5.0, -10.0)]);
        assert!((e - (1.0 / 14.0 + 0.5) / 2.0 * 100.0).abs() < 1e-12);
    }

    /// The replay must stay a faithful copy of `crawl_site`: same
    /// registry bytes and digest as `run_crawl_observed`, on the pure
    /// and on the mixed universe.
    #[test]
    fn replay_reproduces_the_registry_of_run_crawl_observed() {
        for spec in [CrawlSpec::pure(120), CrawlSpec::mixed(160)] {
            let run = spec.run(0xBEEF, 1);
            let checked = spec.verify(&run, true).unwrap();
            let mut log = SpanLog::on();
            let rep = replay(&spec, 0xBEEF, &mut log);
            assert_eq!(rep.metrics.to_json(), run.metrics.to_json());
            assert_eq!(rep.digest, checked.digest);
            let totals = log.totals();
            assert_eq!(totals["site"].count, rep.pages);
            assert_eq!(totals["browser.load_observed"].count, rep.pages);
            let m = layer_metrics(&spec, &rep, &log, rep.wall_s);
            assert!(m["browser.load_us_per_site"] > 0.0);
            assert_eq!(m.contains_key("h1.requests_per_site"), spec.is_mixed());
        }
    }
}
