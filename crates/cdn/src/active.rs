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
use origin_core::stats::{self, Cdf, Histogram};
use origin_dns::name::name;
use origin_dns::DnsName;
use origin_netsim::SimRng;
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::VisitSinks;
use origin_web::Page;

/// Outcome of one arm of the active measurement.
#[derive(Debug, Clone, Default)]
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
    /// load into this arm's results. Returns the bytes its coalesced
    /// requests carried, which the chunk publishes with its visits.
    fn visit(&mut self, w: &mut Worker<'_>, site: &SampleSite, seed: u64, tp: &DnsName) -> u64 {
        site.page_into(&mut w.page, tp);
        let mut rng = SimRng::seed_from_u64(seed ^ site.page_seed);
        let load = w.loader.load_observed(
            &w.page,
            &mut w.env,
            &mut rng,
            None,
            Some(&mut self.metrics),
            None,
            &mut w.arena,
            VisitSinks::default(),
        );
        self.new_connections.add(load.new_connections_to(tp));
        self.plt_ms.push(load.plt());
        let coalesced_bytes = load
            .requests
            .iter()
            .filter(|r| r.coalesced)
            .map(|r| w.page.resources[r.resource_index].size)
            .sum();
        w.arena.recycle(load);
        coalesced_bytes
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
        stats::median(&self.plt_ms).unwrap_or(0.0)
    }
}

/// What one measurement worker owns: its view of the shared sample
/// world, and the buffers every visit writes over. Between visits they
/// keep capacity, never contents.
struct Worker<'a> {
    env: CdnEnv<'a>,
    loader: PageLoader,
    arena: VisitArena,
    page: Page,
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
    /// and count new connections to the third party, on `threads`
    /// workers. Each visit's RNG is seeded only from `seed ^
    /// site.page_seed` and [`origin_netsim::fold_chunks`] merges the
    /// visit-ordered chunks back in order, so the result is
    /// byte-identical for any thread count.
    pub fn run_threads(
        &self,
        group: &SampleGroup,
        treatment: Treatment,
        seed: u64,
        threads: usize,
    ) -> ActiveResult {
        let sites: Vec<_> = group.arm(treatment).collect();
        let third_party = name(THIRD_PARTY_HOST);
        let mut total = ActiveResult::default();
        origin_netsim::fold_chunks(
            &sites,
            threads,
            || Worker {
                env: CdnEnv::new(group, self.mode),
                loader: PageLoader::new(self.browser),
                arena: VisitArena::new(),
                page: Page::new(1, third_party.clone(), 0),
            },
            |worker, chunk| {
                let mut result = ActiveResult::default();
                let coalesced_bytes: u64 = chunk
                    .iter()
                    .map(|site| result.visit(worker, site, seed, &third_party))
                    .sum();
                result.metrics.add("cdn.active.visits", chunk.len() as u64);
                result
                    .metrics
                    .add("cdn.active.coalesced_bytes", coalesced_bytes);
                result
            },
            |result| total.merge(result),
        );
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
        let arm = |treatment| self.run_threads(group, treatment, seed, threads);
        (arm(Treatment::Experiment), arm(Treatment::Control))
    }

    /// Logical-process base for wire-check trace events; site ranks
    /// stay far below this.
    pub const WIRE_PID_BASE: u64 = 1 << 22;

    /// Wire-level spot check: for the first `n` sites, run a real
    /// `origin-h2` exchange against an [`EdgeServer`] and verify the
    /// client's resulting origin state matches what the analytic
    /// environment advertises — the consistency the paper relied on
    /// when it "could test and confirm that ORIGIN is either ignored
    /// or handled correctly" before deploying globally (§5.3).
    ///
    /// Returns the number of sites whose wire behaviour matched.
    /// `metrics` receives the client- and edge-side h2 frame work — the
    /// only place real ORIGIN frames cross a wire in the pipeline, and
    /// thus the source of the registry's `h2.*` counters. `tracer`
    /// receives the client side of every exchange: one logical process
    /// per checked site (the `pid` band above real Tranco ranks) with
    /// the [`origin_h2::Connection::recv_traced`] instants stamped by
    /// wire round. The loop is sequential and rank-ordered, so both
    /// are independent of `--threads`.
    pub fn wire_spot_check(
        &self,
        group: &SampleGroup,
        n: usize,
        mut metrics: Option<&mut Registry>,
        mut tracer: Option<&mut origin_telemetry::trace::Tracer>,
    ) -> usize {
        use origin_h2::{Connection, Settings};
        let origin_mode = self.mode == DeploymentMode::OriginFrames;
        let third_party = name(THIRD_PARTY_HOST);
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
            let cert_covers = site.cert.covers(&third_party);
            if wire_allows == expected && cert_covers == (site.treatment == Treatment::Experiment) {
                matched += 1;
            }
            if let Some(metrics) = metrics.as_deref_mut() {
                client.record_metrics(metrics);
                edge.conn.record_metrics(metrics);
                metrics.add("cdn.wire_checks", 1);
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
        let (exp, ctl) = ActiveMeasurement::ip_experiment().run_both_threads(&g, 42, 1);
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
        let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both_threads(&g, 43, 1);
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
        let (exp, ctl) = m.run_both_threads(&g, 44, 1);
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
        let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both_threads(&g, 45, 1);
        let (e, c) = (exp.median_plt(), ctl.median_plt());
        assert!(e <= c * 1.03, "experiment {e} vs control {c}");
    }

    #[test]
    fn spot_check_on_the_wire_agrees_with_model() {
        let g = group();
        let m = ActiveMeasurement::origin_experiment();
        assert_eq!(m.wire_spot_check(&g, 60, None, None), 60);
        // Pre-deployment: no ORIGIN frames on the wire either.
        let m = ActiveMeasurement {
            mode: DeploymentMode::Baseline,
            browser: BrowserKind::Firefox,
        };
        assert_eq!(m.wire_spot_check(&g, 60, None, None), 60);
    }

    #[test]
    fn cdf_is_complete() {
        let g = group();
        let (exp, _) = ActiveMeasurement::origin_experiment().run_both_threads(&g, 46, 1);
        let cdf = exp.cdf();
        assert_eq!(cdf.len() as u64, exp.new_connections.total());
        assert_eq!(cdf.eval(exp.max_connections() as f64), 1.0);
    }
}
