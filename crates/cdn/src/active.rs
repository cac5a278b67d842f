//! Client-side active measurement (Figures 7a / 7b).
//!
//! The paper repeated its §3 crawl methodology against the sample
//! set: scripted Firefox page loads (v91 for the IP experiment, v96
//! for ORIGIN — the only browser with client-side ORIGIN support),
//! counting new TLS connections to the third-party domain. Zero new
//! connections means the request coalesced.

use crate::edge::EdgeServer;
use crate::env::{CdnEnv, DeploymentMode};
use crate::sample::{SampleGroup, SampleSite, Treatment, THIRD_PARTY_HOST};
use origin_browser::{BrowserKind, PageLoader, VisitArena};
use origin_dns::name::name;
use origin_dns::DnsName;
use origin_metrics::Registry;
use origin_netsim::SimRng;
use origin_obs::VisitSinks;
use origin_stats::{Cdf, Histogram};

/// Outcome of one arm of the active measurement.
#[derive(Debug, Clone)]
pub struct ActiveResult {
    /// Distribution of new connections to the third party per visit.
    pub new_connections: Histogram,
    /// Page load times across the arm's visits (Figure 9 bottom).
    pub plt_ms: Vec<f64>,
    /// Work counters for the arm (`cdn.active.*`, `browser.*`,
    /// `sim.*`); every field merges commutatively.
    pub metrics: Registry,
}

impl ActiveResult {
    fn empty() -> Self {
        ActiveResult {
            new_connections: Histogram::new(),
            plt_ms: Vec::new(),
            metrics: Registry::new(),
        }
    }

    /// Fold another shard's arm results into this one. PLTs
    /// concatenate in call order, so merging visit-ordered shards in
    /// order reproduces the sequential series; the histogram and
    /// metrics registry are commutative counters.
    pub fn merge(&mut self, other: ActiveResult) {
        self.new_connections.merge(&other.new_connections);
        self.plt_ms.extend(other.plt_ms);
        self.metrics.merge(&other.metrics);
    }

    /// Visit `site` once with a fresh browser session and fold the
    /// load into this arm's results.
    fn visit(
        &mut self,
        loader: &PageLoader,
        env: &mut CdnEnv<'_>,
        arena: &mut VisitArena,
        site: &SampleSite,
        seed: u64,
        third_party: &DnsName,
    ) {
        let page = site.page();
        let mut rng = SimRng::seed_from_u64(seed ^ site.page_seed);
        let load = loader.load_observed(
            &page,
            env,
            &mut rng,
            None,
            Some(&mut self.metrics),
            None,
            arena,
            VisitSinks::default(),
        );
        self.new_connections
            .add(load.new_connections_to(third_party));
        self.plt_ms.push(load.plt());
        self.metrics.inc("cdn.active.visits");
        let coalesced_bytes: u64 = load
            .requests
            .iter()
            .filter(|r| r.coalesced)
            .map(|r| page.resources[r.resource_index].size)
            .sum();
        self.metrics
            .add("cdn.active.coalesced_bytes", coalesced_bytes);
        arena.recycle(load);
    }

    /// Fraction of visits with exactly `n` new connections.
    pub fn fraction_with(&self, n: u64) -> f64 {
        self.new_connections.fraction(n)
    }

    /// CDF over new-connection counts (the Figure 7 series).
    pub fn cdf(&self) -> Cdf {
        let samples: Vec<u64> = self
            .new_connections
            .bins()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        Cdf::from_u64(&samples)
    }

    /// Largest observed new-connection count.
    pub fn max_connections(&self) -> u64 {
        self.new_connections
            .bins()
            .map(|(v, _)| v)
            .max()
            .unwrap_or(0)
    }

    /// Median PLT for the arm.
    pub fn median_plt(&self) -> f64 {
        origin_stats::median(&self.plt_ms).unwrap_or(0.0)
    }
}

/// The active-measurement harness.
pub struct ActiveMeasurement {
    /// Deployment under test.
    pub mode: DeploymentMode,
    /// Browser model (Firefox v91 for §5.2, Firefox+ORIGIN v96 for
    /// §5.3).
    pub browser: BrowserKind,
}

impl ActiveMeasurement {
    /// The §5.2 configuration.
    pub fn ip_experiment() -> Self {
        ActiveMeasurement {
            mode: DeploymentMode::IpAligned,
            browser: BrowserKind::Firefox,
        }
    }

    /// The §5.3 configuration.
    pub fn origin_experiment() -> Self {
        ActiveMeasurement {
            mode: DeploymentMode::OriginFrames,
            browser: BrowserKind::FirefoxOrigin,
        }
    }

    /// Visit every site in one arm once with a fresh browser session
    /// and count new connections to the third party.
    pub fn run(&self, group: &SampleGroup, treatment: Treatment, seed: u64) -> ActiveResult {
        let mut env = CdnEnv::new(group, self.mode);
        let loader = PageLoader::new(self.browser);
        let mut arena = VisitArena::new();
        let mut result = ActiveResult::empty();
        let third_party = name(THIRD_PARTY_HOST);
        for site in group.arm(treatment) {
            result.visit(&loader, &mut env, &mut arena, site, seed, &third_party);
        }
        result
    }

    /// Run both arms.
    pub fn run_both(&self, group: &SampleGroup, seed: u64) -> (ActiveResult, ActiveResult) {
        (
            self.run(group, Treatment::Experiment, seed),
            self.run(group, Treatment::Control, seed),
        )
    }

    /// Like [`ActiveMeasurement::run`] but sharded over `threads`
    /// worker threads. Each visit runs in a fresh browser session with
    /// an RNG seeded only from `seed ^ site.page_seed`, so sites are
    /// independent; workers claim contiguous visit-ordered chunks and
    /// the chunks merge back in order — the result is byte-identical
    /// to the sequential run for any thread count.
    pub fn run_threads(
        &self,
        group: &SampleGroup,
        treatment: Treatment,
        seed: u64,
        threads: usize,
    ) -> ActiveResult {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let threads = threads.max(1);
        let sites: Vec<_> = group.arm(treatment).collect();
        let n_chunks = (threads * 4).min(sites.len()).max(1);
        let chunk_size = sites.len().div_ceil(n_chunks);
        let next_chunk = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ActiveResult>>> =
            (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let third_party = name(THIRD_PARTY_HOST);

        std::thread::scope(|scope| {
            for _ in 0..threads.min(n_chunks) {
                scope.spawn(|| {
                    let mut env = CdnEnv::new(group, self.mode);
                    let loader = PageLoader::new(self.browser);
                    let mut arena = VisitArena::new();
                    loop {
                        let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if chunk >= n_chunks {
                            break;
                        }
                        // Ceil-sized chunks can overrun the tail:
                        // clamp, leaving trailing chunks empty
                        // (merge identity).
                        let start = (chunk * chunk_size).min(sites.len());
                        let end = (start + chunk_size).min(sites.len());
                        let mut result = ActiveResult::empty();
                        for site in &sites[start..end] {
                            result.visit(&loader, &mut env, &mut arena, site, seed, &third_party);
                        }
                        *slots[chunk]
                            .lock()
                            .expect("active-measurement shard slot poisoned by a worker panic") =
                            Some(result);
                    }
                });
            }
        });

        let mut total = ActiveResult::empty();
        for slot in slots {
            let r = slot
                .into_inner()
                .expect("active-measurement shard slot poisoned by a worker panic")
                .expect("every chunk completed");
            total.merge(r);
        }
        total
    }

    /// Run both arms sharded over `threads` worker threads; see
    /// [`ActiveMeasurement::run_threads`].
    pub fn run_both_threads(
        &self,
        group: &SampleGroup,
        seed: u64,
        threads: usize,
    ) -> (ActiveResult, ActiveResult) {
        (
            self.run_threads(group, Treatment::Experiment, seed, threads),
            self.run_threads(group, Treatment::Control, seed, threads),
        )
    }

    /// Wire-level spot check: for `n` sites per arm, run a real
    /// `origin-h2` exchange against an [`EdgeServer`] and verify the
    /// client's resulting origin state matches what the analytic
    /// environment advertises — the consistency the paper relied on
    /// when it "could test and confirm that ORIGIN is either ignored
    /// or handled correctly" before deploying globally (§5.3).
    ///
    /// Returns the number of sites whose wire behaviour matched.
    pub fn wire_spot_check(&self, group: &SampleGroup, n: usize) -> usize {
        self.wire_spot_check_metrics(group, n, None)
    }

    /// Like [`ActiveMeasurement::wire_spot_check`] but also folds the
    /// client- and edge-side h2 frame work into `metrics` — the only
    /// place real ORIGIN frames cross a wire in the pipeline, and thus
    /// the source of the registry's `h2.*` counters.
    pub fn wire_spot_check_metrics(
        &self,
        group: &SampleGroup,
        n: usize,
        metrics: Option<&mut Registry>,
    ) -> usize {
        self.wire_spot_check_inner(group, n, metrics, None)
    }

    /// Like [`ActiveMeasurement::wire_spot_check_metrics`] but also
    /// traces the client side of every exchange: one logical process
    /// per checked site (in the reserved `pid` band above real Tranco
    /// ranks), with `h2.frame` / `h2.origin.accept` instants from
    /// [`origin_h2::Connection::recv_traced`] stamped by wire round.
    /// The loop is sequential and rank-ordered, so the trace is
    /// independent of `--threads`.
    pub fn wire_spot_check_traced(
        &self,
        group: &SampleGroup,
        n: usize,
        metrics: Option<&mut Registry>,
        tracer: &mut origin_trace::Tracer,
    ) -> usize {
        self.wire_spot_check_inner(group, n, metrics, Some(tracer))
    }

    /// Logical-process base for wire-check trace events; site ranks
    /// stay far below this.
    pub const WIRE_PID_BASE: u64 = 1 << 22;

    /// Like [`ActiveMeasurement::wire_spot_check_metrics`] but also
    /// appends one `h2.wire` flight event per checked connection side
    /// to `flight`, attributed to the check's reserved visit band.
    /// The loop is sequential and rank-ordered, so the recorder's
    /// contents are independent of `--threads`.
    pub fn wire_spot_check_observed(
        &self,
        group: &SampleGroup,
        n: usize,
        metrics: Option<&mut Registry>,
        flight: &mut origin_obs::FlightRecorder,
    ) -> usize {
        self.wire_spot_check_full(group, n, metrics, None, Some(flight))
    }

    fn wire_spot_check_inner(
        &self,
        group: &SampleGroup,
        n: usize,
        metrics: Option<&mut Registry>,
        tracer: Option<&mut origin_trace::Tracer>,
    ) -> usize {
        self.wire_spot_check_full(group, n, metrics, tracer, None)
    }

    fn wire_spot_check_full(
        &self,
        group: &SampleGroup,
        n: usize,
        mut metrics: Option<&mut Registry>,
        mut tracer: Option<&mut origin_trace::Tracer>,
        mut flight: Option<&mut origin_obs::FlightRecorder>,
    ) -> usize {
        use origin_h2::{Connection, Settings};
        let origin_mode = self.mode == DeploymentMode::OriginFrames;
        let mut matched = 0;
        for (site_no, site) in group.sites.iter().take(n).enumerate() {
            let mut edge = EdgeServer::for_site(site, origin_mode);
            let mut client = Connection::client(site.host.as_str(), Settings::default());
            if let Some(t) = tracer.as_deref_mut() {
                t.begin_visit(
                    Self::WIRE_PID_BASE + site_no as u64,
                    &format!("wire {}", site.host.as_str()),
                );
            }
            let mut round = 0u64;
            loop {
                let c = client.take_outgoing();
                let e = edge.take_outgoing();
                if c.is_empty() && e.is_empty() {
                    break;
                }
                if !c.is_empty() {
                    edge.handle(&c).expect("edge recv");
                }
                if !e.is_empty() {
                    match tracer.as_deref_mut() {
                        Some(t) => {
                            // No simulated clock on this path: stamp
                            // events with the exchange round, which is
                            // equally deterministic.
                            t.set_now_us(round);
                            client.recv_traced(&e, t).expect("client recv")
                        }
                        None => client.recv(&e).expect("client recv"),
                    };
                }
                round += 1;
            }
            let wire_allows = client.origin_allows(THIRD_PARTY_HOST);
            let expected = origin_mode && site.treatment == Treatment::Experiment;
            // The browser model additionally checks the certificate.
            let cert_covers = site.cert.covers(&name(THIRD_PARTY_HOST));
            if wire_allows == expected && cert_covers == (site.treatment == Treatment::Experiment) {
                matched += 1;
            }
            if let Some(metrics) = metrics.as_deref_mut() {
                client.record_metrics(metrics);
                edge.conn.record_metrics(metrics);
                metrics.inc("cdn.wire_checks");
            }
            if let Some(rec) = flight.as_deref_mut() {
                rec.begin_visit((Self::WIRE_PID_BASE + site_no as u64) as u32);
                // Stamp with the final exchange round, matching the
                // traced variant's clock.
                client.record_flight(round, rec);
                edge.conn.record_flight(round, rec);
            }
        }
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(0xAC71);
        SampleGroup::build(1_200, &mut rng)
    }

    #[test]
    fn ip_experiment_coalesces_experiment_arm() {
        let g = group();
        let (exp, ctl) = ActiveMeasurement::ip_experiment().run_both(&g, 42);
        // Figure 7a shapes: experiment ≈70% zero; control ≈9% zero
        // with ≈83% exactly one.
        let exp_zero = exp.fraction_with(0);
        let ctl_zero = ctl.fraction_with(0);
        let ctl_one = ctl.fraction_with(1);
        assert!(exp_zero > 0.55, "experiment zero-conn fraction {exp_zero}");
        assert!(ctl_zero < 0.2, "control zero-conn fraction {ctl_zero}");
        assert!(ctl_one > 0.6, "control one-conn fraction {ctl_one}");
        assert!(exp_zero > ctl_zero + 0.4);
    }

    #[test]
    fn origin_experiment_coalesces_without_ip_alignment() {
        let g = group();
        let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both(&g, 43);
        let exp_zero = exp.fraction_with(0);
        let ctl_zero = ctl.fraction_with(0);
        assert!(exp_zero > 0.5, "experiment zero-conn fraction {exp_zero}");
        assert!(ctl_zero < 0.2, "control zero-conn fraction {ctl_zero}");
        // None of the visits should need more than a handful of
        // connections (paper: ≤4).
        assert!(exp.max_connections() <= 4, "max {}", exp.max_connections());
    }

    #[test]
    fn baseline_shows_no_treatment_effect() {
        let g = group();
        let m = ActiveMeasurement {
            mode: DeploymentMode::Baseline,
            browser: BrowserKind::Firefox,
        };
        let (exp, ctl) = m.run_both(&g, 44);
        // Without alignment or ORIGIN frames both arms open real
        // connections to the third party.
        assert!(exp.fraction_with(0) < 0.15);
        assert!(ctl.fraction_with(0) < 0.15);
    }

    #[test]
    fn plt_no_worse_with_origin() {
        // §6.1: "our preliminary evidence suggests 'no worse' is
        // appropriate" — experiment PLT within a few percent of
        // control.
        let g = group();
        let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both(&g, 45);
        let (e, c) = (exp.median_plt(), ctl.median_plt());
        assert!(e <= c * 1.03, "experiment {e} vs control {c}");
    }

    #[test]
    fn wire_spot_check_agrees_with_model() {
        let g = group();
        let m = ActiveMeasurement::origin_experiment();
        assert_eq!(m.wire_spot_check(&g, 60), 60);
        // Pre-deployment: no ORIGIN frames on the wire either.
        let m = ActiveMeasurement {
            mode: DeploymentMode::Baseline,
            browser: BrowserKind::Firefox,
        };
        assert_eq!(m.wire_spot_check(&g, 60), 60);
    }

    #[test]
    fn cdf_is_complete() {
        let g = group();
        let (exp, _) = ActiveMeasurement::origin_experiment().run_both(&g, 46);
        let cdf = exp.cdf();
        assert_eq!(cdf.len() as u64, exp.new_connections.total());
        assert_eq!(cdf.eval(exp.max_connections() as f64), 1.0);
    }
}
