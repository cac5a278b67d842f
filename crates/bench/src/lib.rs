//! Shared experiment harness for the `repro` binary and the Criterion
//! benches.
//!
//! [`CrawlSpec::run`] performs the full §3 crawl + §4 model over a
//! synthetic dataset and returns every series the paper's tables and
//! figures need; the deployment experiments (§5) are run separately
//! through `origin-cdn`. A [`CrawlSpec`] is a plain struct: start from
//! [`CrawlSpec::new`] and name the fields that differ, e.g.
//! `CrawlSpec { legacy_share: 0.25, ..CrawlSpec::new(6000, 0x0516) }`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod harness_compat;
#[doc(hidden)]
pub use harness_compat::*;

use origin_browser::{
    fault_counter_names, h3_counter_names, BrowserKind, FaultSession, PageLoader, UniverseEnv,
    VisitArena, REDUNDANCY_KINDS,
};
use origin_core::certplan::{plan_site, EffectiveChanges, PlanSummary};
use origin_core::characterize::Characterization;
use origin_core::model::predict_counts3;
use origin_core::stats;
use origin_netsim::{json, FaultProfile, SimDuration, SimRng};
use origin_telemetry::metrics::{PhaseStat, Registry};
use origin_telemetry::obs::window::{DEFAULT_SPACING, DEFAULT_WINDOW};
use origin_telemetry::obs::{with_panic_dump, FlightRecorder, Timeline, VisitObs, VisitSinks};
use origin_telemetry::trace::{Sampler, Tracer};
use origin_webgen::{Dataset, DatasetConfig, SiteConfig, PROVIDERS};

/// The AS used for the "deployment-CDN only" model line in Figure 9.
pub const DEPLOYMENT_CDN_ASN: u32 = 13335;

/// Per-policy sample vectors for CDFs.
#[derive(Debug, Clone, Default)]
pub struct SeriesSamples {
    /// DNS queries per page.
    pub dns: Vec<f64>,
    /// New TLS connections per page.
    pub tls: Vec<f64>,
    /// Page load times (ms).
    pub plt: Vec<f64>,
}

impl SeriesSamples {
    /// Append one page's sample.
    pub fn push(&mut self, dns: u64, tls: u64, plt: f64) {
        self.dns.push(dns as f64);
        self.tls.push(tls as f64);
        self.plt.push(plt);
    }

    /// Append another shard's samples. Merging rank-ordered shards in
    /// rank order reproduces the sequential sample order exactly.
    pub fn merge(&mut self, other: SeriesSamples) {
        self.dns.extend(other.dns);
        self.tls.extend(other.tls);
        self.plt.extend(other.plt);
    }

    /// Median of a component.
    pub fn medians(&self) -> (f64, f64, f64) {
        (
            stats::median(&self.dns).unwrap_or(0.0),
            stats::median(&self.tls).unwrap_or(0.0),
            stats::median(&self.plt).unwrap_or(0.0),
        )
    }
}

/// Everything the §3/§4 tables and figures are drawn from.
pub struct CrawlResults {
    /// The generated dataset (zones, certs, AS attribution).
    pub dataset: Dataset,
    /// Streaming characterization (Tables 1–7, Figure 1).
    pub characterization: Characterization,
    /// Measured (Chrome-policy) series.
    pub measured: SeriesSamples,
    /// Ideal IP-coalescing model series (Figure 3 blue, Figure 9 top).
    pub model_ip: SeriesSamples,
    /// Ideal ORIGIN-coalescing model series (Figure 3 green).
    pub model_origin: SeriesSamples,
    /// Deployment-CDN-only model PLTs (Figure 9 dotted).
    pub model_cdn_plt: Vec<f64>,
    /// Certificate plan aggregation (Figures 4–5, Table 8).
    pub plan: PlanSummary,
    /// Per-provider most-effective changes (Table 9).
    pub effective: EffectiveChanges,
    /// Work counters and simulated phase totals for the whole crawl
    /// (`crawl.*`, `browser.*`, `dns.*`, `certplan.*`, `sim.*`).
    /// Deterministic across thread counts.
    pub metrics: Registry,
    /// Span trace of the sampled visits (empty unless the crawl ran
    /// with a [`Sampler`]). Merged along the same rank-ordered shard
    /// spine as everything else, so the buffer — and its exported
    /// JSON — is byte-identical for any thread count.
    pub trace: Tracer,
    /// Streaming timeline aggregate (present when the crawl ran with
    /// an [`ObsConfig`]). Window-keyed merge is order-free, so the
    /// timeline — and its exported JSON — is byte-identical for any
    /// thread count.
    pub timeline: Option<Timeline>,
    /// Merged flight recorder (present when the crawl ran with an
    /// [`ObsConfig`]): carries the crawl-wide event count and, if any
    /// visit reached the fault-abort threshold, the lowest-ranked
    /// trigger's captured events.
    pub flight: Option<FlightRecorder>,
}

/// Streaming-observability configuration for an observed crawl.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Tumbling-window width; `None` uses
    /// [`origin_telemetry::obs::window::DEFAULT_WINDOW`].
    pub window: Option<SimDuration>,
    /// Fault-abort threshold: a visit whose injected-fault event count
    /// reaches this is captured by the flight recorder (the lowest
    /// such rank wins across shards). `None` disables capture.
    pub fault_abort: Option<u64>,
    /// Write the current visit's flight events here if a crawl worker
    /// panics (best-effort crash forensics).
    pub panic_dump: Option<std::path::PathBuf>,
}

/// Per-shard streaming-observability accumulators, plus the reused
/// per-visit observation scratch.
struct ObsAccum {
    timeline: Timeline,
    flight: FlightRecorder,
    visit: VisitObs,
    fault_abort: Option<u64>,
}

impl ObsAccum {
    fn new(config: &ObsConfig) -> Self {
        ObsAccum {
            timeline: Timeline::new(config.window.unwrap_or(DEFAULT_WINDOW), DEFAULT_SPACING),
            flight: FlightRecorder::default(),
            visit: VisitObs::default(),
            fault_abort: config.fault_abort,
        }
    }

    fn merge(&mut self, other: ObsAccum) {
        self.timeline.merge(other.timeline);
        self.flight.merge(other.flight);
    }
}

/// One shard's worth of crawl output: every accumulator a worker fills
/// while walking its contiguous rank range. Merging shards in rank
/// order reconstructs exactly what a sequential pass would produce.
struct ShardAccum {
    characterization: Characterization,
    measured: SeriesSamples,
    model_ip: SeriesSamples,
    model_origin: SeriesSamples,
    model_cdn_plt: Vec<f64>,
    plan: PlanSummary,
    effective: EffectiveChanges,
    metrics: Registry,
    trace: Tracer,
    obs: Option<ObsAccum>,
}

impl ShardAccum {
    fn new(sites: u32, tranco_total: u32, obs: Option<&ObsConfig>) -> Self {
        ShardAccum {
            characterization: Characterization::new(sites, tranco_total),
            measured: SeriesSamples::default(),
            model_ip: SeriesSamples::default(),
            model_origin: SeriesSamples::default(),
            model_cdn_plt: Vec::new(),
            plan: PlanSummary::default(),
            effective: EffectiveChanges::new(),
            metrics: Registry::new(),
            trace: Tracer::new(),
            obs: obs.map(ObsAccum::new),
        }
    }

    /// The shard's flight recorder; observed crawls only.
    fn flight(&self) -> &FlightRecorder {
        &self.obs.as_ref().expect("an observed crawl").flight
    }

    fn merge(&mut self, other: ShardAccum) {
        self.characterization.merge(other.characterization);
        self.measured.merge(other.measured);
        self.model_ip.merge(other.model_ip);
        self.model_origin.merge(other.model_origin);
        self.model_cdn_plt.extend(other.model_cdn_plt);
        self.plan.merge(other.plan);
        self.effective.merge(other.effective);
        self.metrics.merge(&other.metrics);
        self.trace.merge(other.trace);
        if let (Some(mine), Some(theirs)) = (self.obs.as_mut(), other.obs) {
            mine.merge(theirs);
        }
    }
}

/// One crawl worker's state: the loader, the session environment and
/// the recycled buffers every visit of the worker's chunks goes through.
///
/// Between visits a worker keeps capacity, never keys (DESIGN.md §10):
/// `scratch`, `arena` (connection pool, protocol state, timing buffers)
/// and the env's resolver and host facts are emptied per site, so a
/// worker is as large and resets as fast after a million sites as
/// after its largest one. A fresh env and arena per site produce
/// byte-identical output, just slower.
struct Worker<'d> {
    dataset: &'d Dataset,
    spec: &'d CrawlSpec,
    loader: PageLoader,
    env: UniverseEnv<'d>,
    scratch: origin_webgen::PageScratch,
    arena: VisitArena,
}

impl<'d> Worker<'d> {
    fn new(dataset: &'d Dataset, spec: &'d CrawlSpec) -> Self {
        let mut env = UniverseEnv::new(dataset);
        // A nonzero `middlebox` rate models the mid-deployment world
        // the incident actually hit: provider-hosted servers advertise
        // ORIGIN (which the Chromium-policy crawl ignores for
        // coalescing, so clean-path decisions are unchanged), and a
        // fraction of fresh connections cross the hostile middlebox.
        if spec.faults.is_some_and(|p| p.middlebox > 0.0) {
            env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
        }
        Worker {
            dataset,
            spec,
            loader: PageLoader::new(BrowserKind::Chromium),
            env,
            scratch: origin_webgen::PageScratch::new(),
            arena: VisitArena::new(),
        }
    }

    /// The measured visit of `site` (§3): a fresh browser session —
    /// flushed DNS, an RNG seeded purely from the site's own
    /// `page_seed` — so no state crosses site boundaries, which is what
    /// makes sharding over threads exact rather than approximate.
    /// `trace` is `Some` for a traced visit. The one place the session
    /// salt, the trace label and the call order live: the crawl,
    /// [`trace_site`] and the stage ledger all visit through here.
    fn visit(
        &mut self,
        site: &SiteConfig,
        page: &origin_web::Page,
        metrics: Option<&mut Registry>,
        mut trace: Option<&mut Tracer>,
        sinks: VisitSinks<'_>,
    ) -> origin_web::PageLoad {
        self.env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        // Fault injection, like tracing, is a per-site affair: the
        // session draws from its own RNG, seeded purely from the site,
        // so sharding stays exact under any profile (and an all-zero
        // profile draws nothing at all).
        let faults = self.spec.faults;
        let mut fault_session = faults.map(|p| FaultSession::new(p, site.page_seed ^ 0xFA017CE5));
        // Tracing observes the simulation without touching its RNG, so
        // a traced load returns the same PageLoad as an untraced one.
        if let Some(trace) = trace.as_deref_mut() {
            trace.begin_visit(
                site.rank as u64,
                &format!("site-{} {}", site.rank, site.root_host.as_str()),
            );
        }
        self.loader.load_observed(
            page,
            &mut self.env,
            &mut rng,
            fault_session.as_mut(),
            metrics,
            trace,
            &mut self.arena,
            sinks,
        )
    }

    /// Crawl + model one site into `acc`, calling `lap(stage)` as each
    /// stage of [`STAGES`] ends — a no-op closure in the crawl, an
    /// `Instant` lap in the stage ledger.
    ///
    /// The call sequence below is the one `benchmark/src/crawl.rs`
    /// replays span by span; keep the two in step.
    fn crawl_site(&mut self, site: &SiteConfig, acc: &mut ShardAccum, lap: &mut impl FnMut(usize)) {
        let dataset = self.dataset;
        let page = dataset.page_for_with(site, &mut self.scratch);
        lap(1);

        // Streaming observability rides in the shard accumulator: give
        // the flight recorder its visit context and reset the
        // per-visit observation scratch before the load fills both.
        let sinks = match acc.obs.as_mut() {
            Some(o) => {
                o.flight.begin_visit(site.rank);
                o.flight
                    .record(0, "visit.begin", site.rank as u64, site.root_host.as_str());
                o.visit.clear();
                VisitSinks {
                    flight: Some(&mut o.flight),
                    visit: Some(&mut o.visit),
                }
            }
            None => VisitSinks::default(),
        };
        // The sample set is a pure function of each site's rank.
        let traced = self.spec.sampler.is_some_and(|s| s.keep(site.rank));
        let load = self.visit(
            site,
            &page,
            Some(&mut acc.metrics),
            traced.then_some(&mut acc.trace),
            sinks,
        );
        let resolver_stats = self.env.take_resolver_stats();
        resolver_stats.record_into(&mut acc.metrics);
        lap(2);
        let totals = acc.characterization.add(&page, &load);
        acc.measured
            .push(totals.dns_queries, totals.tls_connections, totals.plt_ms);
        lap(3);

        // §4.2: model predictions via timeline reconstruction (counts
        // only — the reconstructed timelines themselves are not kept).
        // One fused walk produces all three groupings.
        let [ip, origin, cdn] = predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN);
        acc.model_ip
            .push(ip.dns_queries, ip.tls_connections, ip.plt_ms);
        acc.model_origin
            .push(origin.dns_queries, origin.tls_connections, origin.plt_ms);
        acc.model_cdn_plt.push(cdn.plt_ms);
        lap(4);

        // Complete the visit's observation with the pieces the loader
        // can't see — resolver stats and model predictions — then fold
        // it into the timeline and arm the fault-abort trigger.
        if let Some(o) = acc.obs.as_mut() {
            let v = &mut o.visit;
            resolver_stats.record_obs(v);
            v.model_ip_tls = ip.tls_connections;
            v.model_origin_tls = origin.tls_connections;
            v.plt_ideal_ip_us = origin_web::har::ms_to_us(ip.plt_ms);
            v.plt_ideal_origin_us = origin_web::har::ms_to_us(origin.plt_ms);
            o.flight
                .record(v.plt_us, "visit.end", v.plt_us, site.root_host.as_str());
            o.timeline.record_visit(v);
            if o.fault_abort
                .is_some_and(|threshold| v.fault_events >= threshold)
            {
                o.flight.capture_trigger();
            }
        }

        // §4.3: certificate plan. `plan_site` always passes the root
        // host as the closure's first argument, so its registrable
        // suffix and ASN hoist out of the per-resource loop. ASes come
        // from the env's host facts of this visit, one probe each: the
        // load has already met every host of the page.
        let cert = dataset.universe.cert_for(&site.root_host);
        let env = &self.env;
        let root_reg = site.root_host.registrable_str();
        let root_asn = env.asn_of_host(&site.root_host);
        let site_plan = plan_site(&page, cert, |a, b| {
            debug_assert_eq!(a, &site.root_host);
            if root_reg == b.registrable_str() {
                return true;
            }
            root_asn != 0 && root_asn == env.asn_of_host(b)
        });
        acc.plan.add(&site_plan);
        let provider_label = site
            .provider
            .map(|i| PROVIDERS[i].org)
            .unwrap_or("Self-hosted");
        acc.effective.add(provider_label, &site_plan);

        // Hand the visit's buffers back for the worker's next site.
        self.scratch.recycle(page);
        self.arena.recycle(load);
        lap(5);
    }
}

/// The stages of one crawled site, in the order `crawl_site` laps them
/// (`generate` is the dataset build, charged per generated rank).
/// `load` includes the resolver-stat fold, `characterize` the
/// measured-series pushes, `model` the two ideal series', and
/// `certplan` the plan and Table 9 aggregation.
pub const STAGES: [&str; 6] = [
    "generate",
    "page",
    "load",
    "characterize",
    "model",
    "certplan",
];

/// One crawl, fully specified. A plain owned struct: build it with
/// [`CrawlSpec::new`] and struct-update syntax, then [`CrawlSpec::run`].
///
/// Whatever the other fields say, the merged output is byte-identical
/// at any `threads`; and every optional subsystem left at its default
/// (`None` / share `0.0`) is byte-invisible — no state allocated, no
/// RNG draw, no `fault.*` / `h1.*` / `h3.*` / `obs.*` key materialized.
#[derive(Debug, Clone)]
pub struct CrawlSpec {
    /// Tranco ranks to generate.
    pub sites: u32,
    /// Dataset seed.
    pub seed: u64,
    /// Worker threads (wall clock only).
    pub threads: usize,
    /// Trace the visits whose rank this sampler keeps into per-shard
    /// [`Tracer`] buffers merged along the rank-ordered chunk spine.
    pub sampler: Option<Sampler>,
    /// Run every visit under a per-site [`FaultSession`] of this
    /// profile — 421s on coalesced requests, §6.7 middlebox teardowns,
    /// packet drops — paying the client-side recovery costs.
    pub faults: Option<FaultProfile>,
    /// Fraction of sites regenerated as legacy HTTP/1.1 deployments
    /// (see `origin_webgen::DatasetConfig::legacy_share`). Legacy
    /// visits drive the sans-IO `origin-h1` machine and feed the
    /// `h1.*` counters a [`RedundancyReport`] is built from.
    pub legacy_share: f64,
    /// Fraction of non-legacy sites deploying HTTP/3 (see
    /// `origin_webgen::DatasetConfig::h3_share`). H3 visits feed the
    /// `h3.*` counters an [`H3Report`] is built from.
    pub h3_share: f64,
    /// Feed a tumbling-window [`Timeline`] and a bounded per-worker
    /// [`FlightRecorder`] (see [`CrawlResults::timeline`]).
    pub obs: Option<ObsConfig>,
}

impl CrawlSpec {
    /// The clean pure-h2 crawl of `sites` ranks on all available
    /// cores: no tracing, no faults, no observation.
    pub fn new(sites: u32, seed: u64) -> Self {
        CrawlSpec {
            sites,
            seed,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sampler: None,
            faults: None,
            legacy_share: 0.0,
            h3_share: 0.0,
            obs: None,
        }
    }

    /// The universe this spec crawls.
    fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            sites: self.sites,
            seed: self.seed,
            legacy_share: self.legacy_share,
            h3_share: self.h3_share,
            ..Default::default()
        }
    }

    /// Run the crawl + model.
    ///
    /// [`origin_netsim::fold_chunks`] cuts the site list into contiguous
    /// rank-ordered chunks; workers crawl each site of a claimed chunk
    /// into a per-chunk `ShardAccum`, and the chunks are merged back in
    /// rank order. Because each site's RNG is seeded only from its own
    /// `page_seed` and each page load runs in its own session
    /// environment, the merged output is byte-identical to a
    /// sequential crawl — the thread count changes wall-clock time and
    /// nothing else. The timeline's window-keyed merge is commutative
    /// and associative, so that holds for the observed output too.
    pub fn run(&self) -> CrawlResults {
        let sites = self.sites;
        let obs = self.obs.as_ref();
        let config = self.dataset_config();
        let dataset = Dataset::generate(config);
        let site_cfgs: Vec<&SiteConfig> = dataset.successful_sites().collect();

        // Rank-ordered merge: chunk 0, 1, 2, … — the deterministic spine.
        // (The timeline and flight merges are order-free anyway; riding the
        // same spine costs nothing and keeps one mental model.)
        let mut total = ShardAccum::new(sites, config.tranco_total, obs);
        origin_netsim::fold_chunks(
            &site_cfgs,
            self.threads,
            || Worker::new(&dataset, self),
            |worker, chunk| {
                let mut acc = ShardAccum::new(sites, config.tranco_total, obs);
                let mut run = |acc: &mut ShardAccum| {
                    for &site in chunk {
                        worker.crawl_site(site, acc, &mut |_| {});
                    }
                };
                match obs.and_then(|o| o.panic_dump.as_deref()) {
                    // Crash forensics: if a visit panics, dump the
                    // events of the visit that died before propagating.
                    Some(path) => with_panic_dump(&mut acc, path, ShardAccum::flight, run),
                    None => run(&mut acc),
                }
                acc
            },
            |acc| total.merge(acc),
        );

        // Crawl-wide totals recorded once, after the rank-ordered merge.
        total.characterization.record_into(&mut total.metrics);
        total.plan.record_into(&mut total.metrics);
        // Observability counters exist only on observed runs, so an
        // unobserved export stays byte-identical to the pre-obs schema —
        // the same absent-subsystem rule `fault.*`/`h1.*` follow.
        if let Some(o) = &total.obs {
            total
                .metrics
                .add("obs.flight_events", o.flight.events_recorded());
            total.metrics.add("obs.visits", o.timeline.total_visits());
            total
                .metrics
                .add("obs.windows", o.timeline.num_windows() as u64);
        }

        let (timeline, flight) = total.obs.map(|o| (o.timeline, o.flight)).unzip();
        CrawlResults {
            dataset,
            characterization: total.characterization,
            measured: total.measured,
            model_ip: total.model_ip,
            model_origin: total.model_origin,
            model_cdn_plt: total.model_cdn_plt,
            plan: total.plan,
            effective: total.effective,
            metrics: total.metrics,
            trace: total.trace,
            timeline,
            flight,
        }
    }
}

/// One single-thread pass over `spec`'s universe through the crawl's
/// own worker, for the stage ledger of `benches/crawl.rs`: `lap(i)` is
/// called as stage `i` of [`STAGES`] ends — once for `generate`, then
/// per site — and `lap(STAGES.len())` after the worker set-up that
/// belongs to no stage. Returns the number of sites crawled.
pub fn crawl_stages(spec: &CrawlSpec, mut lap: impl FnMut(usize)) -> u64 {
    let config = spec.dataset_config();
    let dataset = Dataset::generate(config);
    lap(0);
    let mut worker = Worker::new(&dataset, spec);
    let mut acc = ShardAccum::new(spec.sites, config.tranco_total, spec.obs.as_ref());
    lap(STAGES.len());
    for site in dataset.successful_sites() {
        worker.crawl_site(site, &mut acc, &mut lap);
    }
    std::hint::black_box(&acc.measured);
    acc.characterization.pages
}

/// `names` in export (alphabetical) order, each with its value in
/// `metrics` — zeros included, so a report's schema is stable even
/// when a crawl never exercises part of a counter family.
fn counter_rows<const N: usize>(
    mut names: [&'static str; N],
    metrics: &Registry,
) -> Vec<(&'static str, u64)> {
    names.sort_unstable();
    names.map(|name| (name, metrics.counter(name))).into()
}

/// What `push` appends, as a report member's rendered value.
fn rendered(push: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    push(&mut out);
    out
}

fn u(n: u64) -> String {
    rendered(|out| json::push_u64(out, n))
}

/// A derived float at a fixed number of decimals: the bytes stay
/// identical across thread counts (the inputs already are) and free
/// of last-bit noise.
fn fixed(x: f64, decimals: usize) -> String {
    rendered(|out| json::push_fixed(out, x, decimals))
}

/// `open`, then `"key": value` members with `sep` between them, then
/// `close` — every layout of the comparison reports.
fn object(open: &str, members: &[(&str, String)], sep: &str, close: &str) -> String {
    let mut out = String::from(open);
    json::push_joined(&mut out, members, sep, |out, (key, value)| {
        json::push_str(out, key);
        out.push_str(": ");
        out.push_str(value);
    });
    out.push_str(close);
    out
}

/// A tuple on one line.
fn inline(members: &[(&str, String)]) -> String {
    object("{", members, ", ", "}")
}

/// A section of a report, one member per line.
fn section(members: &[(&str, String)]) -> String {
    object("{\n    ", members, ",\n    ", "\n  }")
}

fn counter_section(counters: &[(&'static str, u64)]) -> String {
    section(&Vec::from_iter(
        counters.iter().map(|&(name, v)| (name, u(v))),
    ))
}

/// A whole report, one member per line.
fn report(members: &[(&str, String)]) -> String {
    object("{\n  ", members, ",\n  ", "\n}\n")
}

/// Clean-vs-faulted comparison of two crawls over the same dataset:
/// what the profile cost in page load time and in coalescing.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The injected profile, in `FaultProfile::parse` form.
    pub profile: String,
    /// Pages crawled (identical in both runs by construction).
    pub pages: u64,
    /// `fault.*` counter values from the faulted run, by name (zeros
    /// included — stable schema).
    pub counters: Vec<(&'static str, u64)>,
    /// Retransmit backoff intervals served and their total sim time.
    pub backoff: PhaseStat,
    /// (median PLT ms, coalescing rate, connections opened): clean.
    pub clean: (f64, f64, u64),
    /// Same triple for the faulted run.
    pub faulted: (f64, f64, u64),
}

impl ResilienceReport {
    /// Compare a faulted crawl against the clean crawl of the same
    /// dataset. `clean` and `faulted` must come from the same
    /// `(sites, seed)` — the report is meaningless otherwise.
    pub fn build(clean: &CrawlResults, faulted: &CrawlResults, profile: &FaultProfile) -> Self {
        assert_eq!(
            clean.characterization.pages, faulted.characterization.pages,
            "resilience report requires both crawls to cover the same sites"
        );
        fn triple(r: &CrawlResults) -> (f64, f64, u64) {
            let requests = r.metrics.counter("browser.requests");
            let coalesced = r.metrics.counter("browser.coalesced_requests");
            let rate = if requests > 0 {
                coalesced as f64 / requests as f64
            } else {
                0.0
            };
            let (_, _, plt) = r.measured.medians();
            (plt, rate, r.metrics.counter("browser.connections_opened"))
        }
        ResilienceReport {
            profile: profile.spec(),
            pages: clean.characterization.pages,
            counters: counter_rows(fault_counter_names(), &faulted.metrics),
            backoff: faulted.metrics.phase("fault.backoff").unwrap_or_default(),
            clean: triple(clean),
            faulted: triple(faulted),
        }
    }

    /// Median PLT inflation of the faulted run, in percent.
    pub fn plt_inflation_pct(&self) -> f64 {
        stats::percent_change(self.clean.0, self.faulted.0)
    }

    /// Relative loss of coalescing (percent of the clean rate).
    pub fn coalescing_degradation_pct(&self) -> f64 {
        if self.clean.1 > 0.0 {
            (self.clean.1 - self.faulted.1) / self.clean.1 * 100.0
        } else {
            0.0
        }
    }

    /// Serialise to JSON (no wall-clock values).
    pub fn to_json(&self) -> String {
        let run = |(plt, rate, conns): (f64, f64, u64)| {
            inline(&[
                ("median_plt_ms", fixed(plt, 3)),
                ("coalescing_rate", fixed(rate, 6)),
                ("connections_opened", u(conns)),
            ])
        };
        let backoff = [
            ("count", u(self.backoff.count)),
            ("total_us", u(self.backoff.total.as_micros())),
        ];
        let extra = self.faulted.2 as i64 - self.clean.2 as i64;
        let impact = [
            ("plt_inflation_pct", fixed(self.plt_inflation_pct(), 3)),
            (
                "coalescing_degradation_pct",
                fixed(self.coalescing_degradation_pct(), 3),
            ),
            ("extra_connections", rendered(|o| json::push_i64(o, extra))),
        ];
        report(&[
            ("profile", rendered(|o| json::push_str(o, &self.profile))),
            ("pages", u(self.pages)),
            ("fault_counters", counter_section(&self.counters)),
            ("fault_backoff", inline(&backoff)),
            ("clean", run(self.clean)),
            ("faulted", run(self.faulted)),
            ("impact", inline(&impact)),
        ])
    }
}

/// The redundant-connections analysis (Sander et al.): for every
/// HTTP/1.1 connection a mixed-protocol crawl opened, how many would
/// the h2 coalescing rules of each policy have merged onto a
/// connection already in the pool?
///
/// Built from a single mixed-universe [`CrawlSpec::run`] result — the loader probes
/// the pool with the protocol gates removed (`redundant_if_h2`) at the
/// moment each legacy connection is opened, so the counts are exact,
/// per-policy, and deterministic. In a pure-h2 universe
/// (`legacy_share == 0`) every field except `pages` is zero.
#[derive(Debug, Clone)]
pub struct RedundancyReport {
    /// The `--legacy-share` the crawl ran with.
    pub legacy_share: f64,
    /// Pages crawled.
    pub pages: u64,
    /// Pages served by legacy HTTP/1.1 sites.
    pub legacy_pages: u64,
    /// Requests that ran over the HTTP/1.1 machine.
    pub h1_requests: u64,
    /// HTTP/1.1 connections opened (the redundancy denominators).
    pub h1_connections: u64,
    /// Requests that reused a kept-alive HTTP/1.1 connection.
    pub keepalive_reuse: u64,
    /// Close-delimited responses (connection consumed by framing).
    pub close_delimited: u64,
    /// Per-policy redundant-connection counts, in
    /// [`REDUNDANCY_KINDS`] order (zeros included — stable schema).
    pub redundant: Vec<(&'static str, u64)>,
}

impl RedundancyReport {
    /// Read the `h1.*` counters of a mixed crawl into report form.
    pub fn build(crawl: &CrawlResults, legacy_share: f64) -> Self {
        RedundancyReport {
            legacy_share,
            pages: crawl.characterization.pages,
            legacy_pages: crawl.metrics.counter("h1.pages"),
            h1_requests: crawl.metrics.counter("h1.requests"),
            h1_connections: crawl.metrics.counter("h1.connections_opened"),
            keepalive_reuse: crawl.metrics.counter("h1.keepalive_reuse"),
            close_delimited: crawl.metrics.counter("h1.close_delimited"),
            redundant: REDUNDANCY_KINDS
                .iter()
                .map(|&(_, name)| {
                    (
                        name.trim_start_matches("h1.redundant."),
                        crawl.metrics.counter(name),
                    )
                })
                .collect(),
        }
    }

    /// Fraction of opened h1 connections a policy would have merged.
    pub fn redundant_share(&self, policy: &str) -> f64 {
        let count = self
            .redundant
            .iter()
            .find(|&&(name, _)| name == policy)
            .map_or(0, |&(_, v)| v);
        if self.h1_connections > 0 {
            count as f64 / self.h1_connections as f64
        } else {
            0.0
        }
    }

    /// Serialise to JSON (no wall-clock values).
    pub fn to_json(&self) -> String {
        let h1 = [
            ("requests", self.h1_requests),
            ("connections_opened", self.h1_connections),
            ("keepalive_reuse", self.keepalive_reuse),
            ("close_delimited", self.close_delimited),
        ];
        let redundant = Vec::from_iter(self.redundant.iter().map(|&(name, v)| {
            let share = fixed(self.redundant_share(name), 6);
            (name, inline(&[("count", u(v)), ("share", share)]))
        }));
        report(&[
            ("legacy_share", fixed(self.legacy_share, 4)),
            ("pages", u(self.pages)),
            ("legacy_pages", u(self.legacy_pages)),
            ("h1", counter_section(&h1)),
            ("redundant_connections", section(&redundant)),
        ])
    }
}

/// H2-vs-h3 comparison of two crawls over the same site list: what
/// deploying QUIC on an `h3_share` fraction of origins changed in
/// page load time, connection setup, and resumption behaviour.
///
/// Built from a baseline crawl (h3 share 0) and an h3 crawl over the
/// same `(sites, seed)` and otherwise equal [`CrawlSpec`] — the §4 best-case
/// question re-asked under h3 semantics: 0-RTT resumption and shared
/// address validation make the *setup* cheaper, but coalescing is
/// still gated on certificate coverage, and RFC 8336 ORIGIN frames
/// never apply to QUIC connections.
#[derive(Debug, Clone)]
pub struct H3Report {
    /// The `--h3-share` the h3 crawl ran with.
    pub h3_share: f64,
    /// Pages crawled (identical in both runs by construction).
    pub pages: u64,
    /// Pages served by h3-deploying sites.
    pub h3_pages: u64,
    /// `h3.*` counter values from the h3 run, by name (zeros included
    /// — stable schema).
    pub counters: Vec<(&'static str, u64)>,
    /// (median DNS queries, median new TLS connections, median PLT
    /// ms, connections opened): the h3-share-0 baseline.
    pub baseline: (f64, f64, f64, u64),
    /// Same tuple for the h3 run.
    pub h3_run: (f64, f64, f64, u64),
}

impl H3Report {
    /// Compare an h3 crawl against the baseline crawl of the same
    /// dataset. Both must come from the same `(sites, seed)` — the
    /// report is meaningless otherwise.
    pub fn build(baseline: &CrawlResults, h3: &CrawlResults, h3_share: f64) -> Self {
        assert_eq!(
            baseline.characterization.pages, h3.characterization.pages,
            "h3 report requires both crawls to cover the same sites"
        );
        fn tuple(r: &CrawlResults) -> (f64, f64, f64, u64) {
            let (dns, tls, plt) = r.measured.medians();
            (
                dns,
                tls,
                plt,
                r.metrics.counter("browser.connections_opened"),
            )
        }
        H3Report {
            h3_share,
            pages: baseline.characterization.pages,
            h3_pages: h3.metrics.counter("h3.pages"),
            counters: counter_rows(h3_counter_names(), &h3.metrics),
            baseline: tuple(baseline),
            h3_run: tuple(h3),
        }
    }

    /// Value of one `h3.*` counter from the h3 run.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Median-PLT change of the h3 run relative to the baseline, in
    /// percent (negative = h3 made pages faster).
    pub fn plt_delta_pct(&self) -> f64 {
        stats::percent_change(self.baseline.2, self.h3_run.2)
    }

    /// Fraction of QUIC connections that resumed with 0-RTT.
    pub fn zero_rtt_share(&self) -> f64 {
        let conns = self.counter("h3.connections");
        if conns > 0 {
            self.counter("h3.handshakes_0rtt") as f64 / conns as f64
        } else {
            0.0
        }
    }

    /// Serialise to JSON (no wall-clock values).
    pub fn to_json(&self) -> String {
        let run = |(dns, tls, plt, conns): (f64, f64, f64, u64)| {
            inline(&[
                ("median_dns", fixed(dns, 3)),
                ("median_tls", fixed(tls, 3)),
                ("median_plt_ms", fixed(plt, 3)),
                ("connections_opened", u(conns)),
            ])
        };
        let extra = self.h3_run.3 as i64 - self.baseline.3 as i64;
        let impact = [
            ("plt_delta_pct", fixed(self.plt_delta_pct(), 3)),
            (
                "tls_median_delta",
                fixed(self.h3_run.1 - self.baseline.1, 3),
            ),
            ("zero_rtt_share", fixed(self.zero_rtt_share(), 6)),
            ("extra_connections", rendered(|o| json::push_i64(o, extra))),
        ];
        report(&[
            ("h3_share", fixed(self.h3_share, 4)),
            ("pages", u(self.pages)),
            ("h3_pages", u(self.h3_pages)),
            ("h3_counters", counter_section(&self.counters)),
            ("baseline", run(self.baseline)),
            ("h3", run(self.h3_run)),
            ("impact", inline(&impact)),
        ])
    }
}

/// Trace one ranked site's visit in full: regenerate the dataset,
/// find the site, and run exactly the load `crawl_site` would —
/// same environment, same RNG seed — with a [`Tracer`] attached.
/// Returns `None` when no successful site has that rank.
///
/// Because tracing never draws from the load's RNG, the returned
/// [`origin_web::PageLoad`] is identical to what the full crawl
/// measures for this rank, and the trace buffer is identical to the
/// slice a sampled whole-run trace would hold for it.
pub fn trace_site(sites: u32, seed: u64, rank: u32) -> Option<(origin_web::PageLoad, Tracer)> {
    let spec = CrawlSpec::new(sites, seed);
    let dataset = Dataset::generate(spec.dataset_config());
    let site = dataset.successful_sites().find(|s| s.rank == rank)?;
    let mut worker = Worker::new(&dataset, &spec);
    let page = dataset.page_for(site);
    let mut trace = Tracer::new();
    let load = worker.visit(site, &page, None, Some(&mut trace), VisitSinks::default());
    Some((load, trace))
}

/// Map an ASN to its Table 2 organization name (tail ASes get a
/// generated label).
pub fn asn_label(asn: u32) -> String {
    for p in PROVIDERS.iter() {
        if p.asn == asn {
            return p.org.to_string();
        }
    }
    if asn >= 70_000 {
        format!("Self-hosted AS {asn}")
    } else if asn >= 60_000 {
        format!("Tail provider AS {asn}")
    } else {
        format!("AS {asn}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec` on two workers: enough to cross a shard boundary.
    fn two(spec: CrawlSpec) -> CrawlResults {
        CrawlSpec { threads: 2, ..spec }.run()
    }

    /// `spec` on one worker and on four.
    fn one_and_four(spec: CrawlSpec) -> [CrawlResults; 2] {
        [1, 4].map(|threads| {
            CrawlSpec {
                threads,
                ..spec.clone()
            }
            .run()
        })
    }

    #[test]
    fn small_crawl_produces_all_series() {
        let r = CrawlSpec::new(150, 0xBEEF).run();
        assert!(r.characterization.pages > 50);
        assert_eq!(r.measured.dns.len(), r.characterization.pages as usize);
        assert_eq!(r.model_ip.plt.len(), r.measured.plt.len());
        assert_eq!(r.model_origin.tls.len(), r.measured.tls.len());
        assert_eq!(r.model_cdn_plt.len(), r.measured.plt.len());
        assert_eq!(r.plan.total_sites, r.characterization.pages);
        // Orderings that define the paper's story.
        let (m_dns, m_tls, m_plt) = r.measured.medians();
        let (i_dns, i_tls, i_plt) = r.model_ip.medians();
        let (o_dns, o_tls, o_plt) = r.model_origin.medians();
        assert!(o_dns <= i_dns && i_dns <= m_dns);
        assert!(o_tls <= i_tls && i_tls <= m_tls);
        assert!(o_plt <= i_plt && i_plt <= m_plt);
    }

    #[test]
    fn fast_predictions_match_full_reconstruction() {
        // predict_counts3 (the fused walk the crawl runs) must agree
        // with predict's materialised reconstruction on real measured
        // loads for every grouping the crawl uses.
        use origin_core::model::{predict, CoalescingGrouping};
        let dataset = Dataset::generate(DatasetConfig {
            sites: 60,
            seed: 0xFEED,
            ..Default::default()
        });
        let loader = PageLoader::new(BrowserKind::Chromium);
        let mut env = UniverseEnv::new(&dataset);
        for site in dataset.successful_sites().take(30) {
            let page = dataset.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = loader.load(&page, &mut env, &mut rng);
            let full = [
                CoalescingGrouping::ByIp,
                CoalescingGrouping::ByAs,
                CoalescingGrouping::BySingleAs(DEPLOYMENT_CDN_ASN),
            ]
            .map(|grouping| predict(&page, &load, grouping).0);
            let fused = predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN);
            assert_eq!(fused, full, "rank {}", site.rank);
        }
    }

    #[test]
    fn env_reuse_is_output_invisible() {
        // One env reused across visits (per-site flush of DNS and host
        // facts, stat deltas) must produce exactly the loads and
        // resolver stats a fresh env per site produces.
        let dataset = Dataset::generate(DatasetConfig {
            sites: 40,
            seed: 0xD00D,
            ..Default::default()
        });
        let loader = PageLoader::new(BrowserKind::Chromium);
        let mut shared = UniverseEnv::new(&dataset);
        for site in dataset.successful_sites().take(20) {
            let page = dataset.page_for(site);
            let mut fresh = UniverseEnv::new(&dataset);
            fresh.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let want = loader.load(&page, &mut fresh, &mut rng);
            let want_stats = fresh.resolver_stats();

            shared.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let got = loader.load(&page, &mut shared, &mut rng);
            let got_stats = shared.take_resolver_stats();
            assert_eq!(want, got, "rank {}", site.rank);
            assert_eq!(want_stats, got_stats, "rank {}", site.rank);
        }
    }

    #[test]
    fn faulted_crawl_fires_and_reports() {
        let clean = two(CrawlSpec::new(150, 0xBEEF));
        let profile = FaultProfile::parse("drop=0.02,h421=0.02,middlebox=0.2").unwrap();
        let faulted = two(CrawlSpec {
            faults: Some(profile),
            ..CrawlSpec::new(150, 0xBEEF)
        });
        // The profile actually bites: recoveries happened and they cost
        // page load time and coalescing.
        assert!(faulted.metrics.counter("fault.retries") > 0);
        assert!(faulted.metrics.counter("fault.pool_evictions") > 0);
        assert!(faulted.metrics.counter("fault.middlebox_teardowns") > 0);
        let report = ResilienceReport::build(&clean, &faulted, &profile);
        assert!(report.plt_inflation_pct() > 0.0);
        assert!(report.coalescing_degradation_pct() > 0.0);
        assert!(
            report.faulted.2 > report.clean.2,
            "evictions open extra connections"
        );
        // The JSON is valid enough for jq and carries the full schema.
        let json = report.to_json();
        for name in fault_counter_names() {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert!(json.contains("\"plt_inflation_pct\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn zero_profile_crawl_matches_clean_crawl() {
        let clean = two(CrawlSpec::new(120, 0xBEEF));
        let zero = two(CrawlSpec {
            faults: Some(FaultProfile::none()),
            ..CrawlSpec::new(120, 0xBEEF)
        });
        assert_eq!(clean.measured.plt, zero.measured.plt);
        assert_eq!(clean.metrics.to_json(), zero.metrics.to_json());
        let report = ResilienceReport::build(&clean, &zero, &FaultProfile::none());
        assert_eq!(report.plt_inflation_pct(), 0.0);
        assert_eq!(report.coalescing_degradation_pct(), 0.0);
        assert!(report.counters.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn redundancy_grows_with_the_legacy_share() {
        // More legacy sites → more h1 connections → strictly more
        // connections the h2 rules would have merged, per policy.
        let quarter = two(CrawlSpec {
            legacy_share: 0.25,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        let half = two(CrawlSpec {
            legacy_share: 0.5,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        let r25 = RedundancyReport::build(&quarter, 0.25);
        let r50 = RedundancyReport::build(&half, 0.5);
        assert!(r25.legacy_pages > 0);
        assert!(r50.legacy_pages > r25.legacy_pages);
        assert!(r25.h1_connections > 0);
        assert!(r50.h1_connections > r25.h1_connections);
        for (&(name, v25), &(_, v50)) in r25.redundant.iter().zip(&r50.redundant) {
            assert!(v25 > 0, "policy {name} never fired at 25%");
            assert!(v50 > v25, "policy {name} not monotone: {v25} → {v50}");
        }
        // The ideal ORIGIN policy merges a superset of what any
        // evidence-bound policy merges.
        let ideal = r25.redundant.last().unwrap().1;
        assert!(r25.redundant.iter().all(|&(_, v)| v <= ideal));
        // Sanity on the report bytes: jq-parsable shape, full schema.
        let json = r25.to_json();
        for (name, _) in &r25.redundant {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn mixed_crawl_is_thread_invariant() {
        // The mixed universe keeps the crawl's core guarantee: the
        // thread count changes wall-clock time and nothing else —
        // metrics and the redundancy report are byte-identical.
        let [one, four] = one_and_four(CrawlSpec {
            legacy_share: 0.25,
            ..CrawlSpec::new(120, 0x0516)
        });
        assert_eq!(one.measured.plt, four.measured.plt);
        assert_eq!(one.metrics.to_json(), four.metrics.to_json());
        assert_eq!(
            RedundancyReport::build(&one, 0.25).to_json(),
            RedundancyReport::build(&four, 0.25).to_json()
        );
    }

    #[test]
    fn h3_crawl_fires_and_reports() {
        let baseline = two(CrawlSpec::new(150, 0xBEEF));
        let h3 = two(CrawlSpec {
            h3_share: 0.6,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        // The QUIC path actually runs: Alt-Svc scopes are learned,
        // connections upgrade, and resumption fires.
        assert!(h3.metrics.counter("h3.pages") > 0);
        assert!(h3.metrics.counter("h3.altsvc_learned") > 0);
        assert!(h3.metrics.counter("h3.connections") > 0);
        assert!(h3.metrics.counter("h3.requests") > 0);
        // Bookkeeping balances: every connection ran exactly one
        // handshake, and 0-RTT attempts only spend banked tickets.
        assert_eq!(
            h3.metrics.counter("h3.connections"),
            h3.metrics.counter("h3.handshakes_1rtt") + h3.metrics.counter("h3.handshakes_0rtt"),
        );
        assert!(
            h3.metrics.counter("h3.handshakes_0rtt") + h3.metrics.counter("h3.zero_rtt_rejected")
                <= h3.metrics.counter("h3.tickets_issued")
        );
        assert!(
            h3.metrics.counter("h3.zero_rtt_rejected") <= h3.metrics.counter("h3.handshakes_1rtt")
        );
        assert!(h3.metrics.counter("h3.cids_issued") >= h3.metrics.counter("h3.connections"));
        let report = H3Report::build(&baseline, &h3, 0.6);
        assert_eq!(report.h3_pages, h3.metrics.counter("h3.pages"));
        assert!(report.zero_rtt_share() > 0.0);
        // The JSON is valid enough for jq and carries the full schema.
        let json = report.to_json();
        for name in h3_counter_names() {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert!(json.contains("\"plt_delta_pct\""));
        assert!(json.contains("\"zero_rtt_share\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn h3_crawl_is_thread_invariant() {
        // The h3 universe keeps the crawl's core guarantee: the
        // thread count changes wall-clock time and nothing else —
        // metrics and the h3 report are byte-identical.
        let [base_one, base_four] = one_and_four(CrawlSpec::new(120, 0x0516));
        let [one, four] = one_and_four(CrawlSpec {
            h3_share: 0.5,
            ..CrawlSpec::new(120, 0x0516)
        });
        assert_eq!(one.measured.plt, four.measured.plt);
        assert_eq!(one.metrics.to_json(), four.metrics.to_json());
        assert_eq!(
            H3Report::build(&base_one, &one, 0.5).to_json(),
            H3Report::build(&base_four, &four, 0.5).to_json()
        );
    }

    #[test]
    fn h3_crawl_survives_fault_profiles() {
        // PR 5's fault classes over an h3 universe: 421 replays and
        // middlebox teardowns interact with Alt-Svc learning (a torn
        // connection advertises nothing), but every page still lands
        // and the zero-rate profile is invisible.
        let profile = FaultProfile::parse("drop=0.02,h421=0.02,middlebox=0.2").unwrap();
        let clean = two(CrawlSpec {
            h3_share: 0.6,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        let faulted = two(CrawlSpec {
            faults: Some(profile),
            h3_share: 0.6,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        assert_eq!(
            clean.characterization.pages, faulted.characterization.pages,
            "every page recovers: the crawl never loses a site to a fault"
        );
        assert!(faulted.metrics.counter("fault.retries") > 0);
        assert!(faulted.metrics.counter("fault.middlebox_teardowns") > 0);
        // Teardowns suppress Alt-Svc on the connection that died.
        assert!(faulted.metrics.counter("h3.altsvc_suppressed") > 0);
        // The QUIC path still works under fire.
        assert!(faulted.metrics.counter("h3.connections") > 0);
        assert_eq!(
            faulted.metrics.counter("h3.connections"),
            faulted.metrics.counter("h3.handshakes_1rtt")
                + faulted.metrics.counter("h3.handshakes_0rtt"),
        );
        // A zero-rate profile is byte-invisible on the h3 universe,
        // exactly as it is on the pure one.
        let zero = two(CrawlSpec {
            faults: Some(FaultProfile::none()),
            h3_share: 0.6,
            ..CrawlSpec::new(150, 0xBEEF)
        });
        assert_eq!(clean.measured.plt, zero.measured.plt);
        assert_eq!(clean.metrics.to_json(), zero.metrics.to_json());
    }

    #[test]
    fn labels_resolve() {
        assert_eq!(asn_label(13335), "Cloudflare");
        assert_eq!(asn_label(15169), "Google");
        assert!(asn_label(60_005).contains("Tail"));
        assert!(asn_label(70_123).contains("Self-hosted"));
    }
}
