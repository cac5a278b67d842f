//! Server-side passive measurement (§5.2 / §5.3).
//!
//! The paper's pipeline sampled 1% of HTTP requests at the edge and
//! logged, per request: a connection identifier, the Referer
//! truncated to its domain, the treatment label, the arrival order
//! within the connection, and a flag bit set when the HTTP `Host`
//! differed from the TLS SNI — the signal that a request was
//! *coalesced* onto a connection opened for another hostname.
//!
//! This module reproduces the pipeline as a concurrent system: edge
//! worker threads process visits and push sampled log records over a
//! channel to a collector, exactly the shape of a production logging
//! path.

use crate::env::DeploymentMode;
use crate::sample::{SampleGroup, Treatment, THIRD_PARTY_HOST};
use origin_netsim::SimRng;
use origin_web::FetchMode;
use std::sync::mpsc;
use std::thread;

/// One sampled log record (the paper's privacy-reduced schema).
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Unique connection identifier.
    pub conn_id: u64,
    /// Referer truncated at the domain (no subpages — §5.1 privacy).
    pub referer_domain: String,
    /// TLS SNI of the carrying connection.
    pub sni: String,
    /// HTTP Host requested.
    pub host: String,
    /// Arrival order of this request within its connection (1-based).
    pub arrival_order: u32,
    /// Treatment arm of the referring site.
    pub treatment: Treatment,
    /// The §5.2 flag bit: HTTP Host ≠ TLS SNI.
    pub host_differs_from_sni: bool,
    /// Event time in seconds from the window start.
    pub t_secs: f64,
}

/// Traffic-model parameters for the visit simulator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total visits across the window.
    pub visits: u64,
    /// Measurement window length in seconds.
    pub window_secs: f64,
    /// Request sampling rate (paper: 1%).
    pub sample_rate: f64,
    /// Share of clients whose stack coalesces given the §5.2 IP
    /// alignment (any IP-matching HTTP/2 browser).
    pub ip_capable_share: f64,
    /// Share of clients supporting client-side ORIGIN (Firefox only;
    /// passive §5.3 data was additionally filtered to Firefox UAs, so
    /// this is the in-population support share after filtering).
    pub origin_capable_share: f64,
    /// Worker threads in the pipeline.
    pub workers: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            visits: 200_000,
            window_secs: 14.0 * 86_400.0,
            sample_rate: 0.01,
            ip_capable_share: 0.80,
            origin_capable_share: 0.75,
            workers: 4,
        }
    }
}

/// Aggregated pipeline output.
#[derive(Debug, Clone, Default)]
pub struct PassiveReport {
    /// Sampled log records kept.
    pub sampled_records: u64,
    /// Distinct new TLS connections to the third party attributed to
    /// experiment-arm referers.
    pub experiment_tp_connections: u64,
    /// Same for control-arm referers.
    pub control_tp_connections: u64,
    /// Distinct coalesced connections observed (flag bit set, arrival
    /// order ≥ 2, each connection counted once).
    pub coalesced_connections: u64,
    /// Visits processed per arm (for rate normalization).
    pub experiment_visits: u64,
    /// Control-arm visits.
    pub control_visits: u64,
}

impl PassiveReport {
    /// The headline number: relative reduction in the rate of new TLS
    /// connections to the third party, experiment vs control
    /// (paper: 56% for §5.2, ≈50% for §5.3).
    pub fn tp_connection_reduction(&self) -> f64 {
        if self.control_tp_connections == 0 || self.control_visits == 0 {
            return 0.0;
        }
        let exp_rate = self.experiment_tp_connections as f64 / self.experiment_visits.max(1) as f64;
        let ctl_rate = self.control_tp_connections as f64 / self.control_visits as f64;
        1.0 - exp_rate / ctl_rate
    }

    /// Emit the report's aggregates as trace instants on a dedicated
    /// logical process. The pipeline's worker/collector interleaving
    /// is nondeterministic, so the *aggregates* — which are not — are
    /// traced post-hoc rather than per record; whole-run traces stay
    /// byte-identical across thread counts.
    pub fn record_trace(&self, tracer: &mut origin_trace::Tracer, pid: u64) {
        use origin_trace::{Arg, Site};
        static SAMPLED: Site = Site::new("passive.sampled_records", "cdn", &["count"]);
        static TP_CONNECTIONS: Site =
            Site::new("passive.tp_connections", "cdn", &["experiment", "control"]);
        static COALESCED: Site = Site::new("passive.coalesced_connections", "cdn", &["count"]);
        tracer.begin_visit(pid, "cdn passive pipeline");
        tracer.set_now_us(0);
        tracer.instant(&SAMPLED, &[Arg::U64(self.sampled_records)]);
        tracer.instant(
            &TP_CONNECTIONS,
            &[
                Arg::U64(self.experiment_tp_connections),
                Arg::U64(self.control_tp_connections),
            ],
        );
        tracer.instant(&COALESCED, &[Arg::U64(self.coalesced_connections)]);
    }

    /// Export the pipeline's counters into a metrics registry under
    /// `cdn.passive.*`.
    pub fn record_into(&self, metrics: &mut origin_metrics::Registry) {
        metrics.add("cdn.passive.sampled_records", self.sampled_records);
        metrics.add(
            "cdn.passive.experiment_tp_connections",
            self.experiment_tp_connections,
        );
        metrics.add(
            "cdn.passive.control_tp_connections",
            self.control_tp_connections,
        );
        metrics.add(
            "cdn.passive.coalesced_connections",
            self.coalesced_connections,
        );
        metrics.add(
            "cdn.passive.visits",
            self.experiment_visits + self.control_visits,
        );
    }
}

/// The passive pipeline: visit simulation + sampling + collection.
pub struct PassivePipeline {
    /// Deployment under measurement.
    pub mode: DeploymentMode,
    /// Traffic model.
    pub config: TrafficConfig,
}

impl PassivePipeline {
    /// Build for a deployment mode with default traffic.
    pub fn new(mode: DeploymentMode) -> Self {
        PassivePipeline {
            mode,
            config: TrafficConfig::default(),
        }
    }

    /// Does a single visit coalesce its third-party requests?
    pub(crate) fn visit_coalesces(
        &self,
        treatment: Treatment,
        fetch: FetchMode,
        rng: &mut SimRng,
    ) -> bool {
        if treatment != Treatment::Experiment {
            return false; // control cert/ORIGIN never authorizes the third party
        }
        if fetch != FetchMode::Normal {
            return false; // §5.3: anonymous + XHR/fetch pools don't coalesce
        }
        match self.mode {
            DeploymentMode::Baseline => false,
            DeploymentMode::IpAligned => rng.chance(self.config.ip_capable_share),
            DeploymentMode::OriginFrames => rng.chance(self.config.origin_capable_share),
        }
    }

    /// Run the pipeline over the sample group. Deterministic for a
    /// given seed regardless of worker count (visits are partitioned
    /// by index and each visit derives its own RNG).
    pub fn run(&self, group: &SampleGroup, seed: u64) -> PassiveReport {
        let (tx, rx) = mpsc::channel::<LogRecord>();

        // Collector thread: consumes sampled records and aggregates —
        // the paper's restricted-access query side.
        let collector = thread::spawn(move || {
            let mut r = PassiveReport::default();
            let mut seen_coalesced_conns = std::collections::HashSet::new();
            for rec in rx {
                r.sampled_records += 1;
                if rec.host == THIRD_PARTY_HOST {
                    if rec.host_differs_from_sni {
                        // Coalesced request: count the connection once.
                        if rec.arrival_order >= 2 && seen_coalesced_conns.insert(rec.conn_id) {
                            r.coalesced_connections += 1;
                        }
                    } else if rec.arrival_order == 1 {
                        // First request on a dedicated third-party
                        // connection = one new TLS connection.
                        match rec.treatment {
                            Treatment::Experiment => r.experiment_tp_connections += 1,
                            Treatment::Control => r.control_tp_connections += 1,
                        }
                    }
                }
            }
            r
        });

        // Edge workers: partition visits by index. Each returns its
        // `(experiment, control)` visit counts.
        let workers = self.config.workers.max(1);
        let (experiment_visits, control_visits) = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let tx = tx.clone();
                    scope.spawn(move || self.edge_worker(group, seed, w, workers, tx))
                })
                .collect();
            drop(tx);
            handles.into_iter().fold((0, 0), |(exp, ctl), h| {
                let (e, c) = h.join().expect("edge worker panicked");
                (exp + e, ctl + c)
            })
        });
        let mut report = collector.join().expect("collector thread");
        report.experiment_visits = experiment_visits;
        report.control_visits = control_visits;
        report
    }

    /// One edge worker: simulate visits `w, w + workers, …`, sending
    /// the sampled share of their requests to the collector. Returns the
    /// `(experiment, control)` visits it processed.
    fn edge_worker(
        &self,
        group: &SampleGroup,
        seed: u64,
        w: usize,
        workers: usize,
        tx: mpsc::Sender<LogRecord>,
    ) -> (u64, u64) {
        let (mut experiment_visits, mut control_visits) = (0u64, 0u64);
        let mut conn_counter: u64 = (w as u64) << 48;
        for v in (w as u64..self.config.visits).step_by(workers) {
            let mut rng = SimRng::seed_from_u64(seed ^ v.wrapping_mul(0x9e3779b97f4a7c15));
            let site = &group.sites[rng.index(group.sites.len())];
            let t = rng.unit() * self.config.window_secs;
            match site.treatment {
                Treatment::Experiment => experiment_visits += 1,
                Treatment::Control => control_visits += 1,
            }
            // The site connection itself.
            conn_counter += 1;
            let site_conn = conn_counter;
            let coalesces = self.visit_coalesces(site.treatment, site.third_party_fetch, &mut rng);
            // The sampling draw comes first: requests that are not
            // sampled (99% of them) never build a record (building one draws
            // nothing, so the draw order is the same either way).
            let mut emit = |conn_id: u64, sni: &str, host: &str, arrival_order: u32| {
                if rng.chance(self.config.sample_rate) {
                    let _ = tx.send(LogRecord {
                        conn_id,
                        referer_domain: site.host.to_string(),
                        sni: sni.to_string(),
                        host: host.to_string(),
                        arrival_order,
                        treatment: site.treatment,
                        host_differs_from_sni: sni != host,
                        t_secs: t,
                    });
                }
            };
            let site_host = site.host.as_str();
            emit(site_conn, site_host, site_host, 1);
            // Third-party requests.
            if coalesces {
                for k in 0..site.third_party_requests {
                    emit(site_conn, site_host, THIRD_PARTY_HOST, k + 2);
                }
            } else {
                conn_counter += 1;
                for k in 0..site.third_party_requests {
                    emit(conn_counter, THIRD_PARTY_HOST, THIRD_PARTY_HOST, k + 1);
                }
            }
        }
        (experiment_visits, control_visits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(0x9A55);
        SampleGroup::build(2_000, &mut rng)
    }

    fn config(visits: u64) -> TrafficConfig {
        TrafficConfig {
            visits,
            sample_rate: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn ip_alignment_reduces_tp_connections_substantially() {
        let g = group();
        let mut p = PassivePipeline::new(DeploymentMode::IpAligned);
        p.config = config(60_000);
        let r = p.run(&g, 1);
        let red = r.tp_connection_reduction();
        // Paper §5.2: 56% reduction across all browsers.
        assert!((0.45..=0.68).contains(&red), "reduction {red}");
        assert!(r.coalesced_connections > 0);
        assert!(r.sampled_records > 0);
    }

    #[test]
    fn origin_mode_reduces_about_half() {
        let g = group();
        let mut p = PassivePipeline::new(DeploymentMode::OriginFrames);
        p.config = config(60_000);
        let r = p.run(&g, 2);
        let red = r.tp_connection_reduction();
        // Paper §5.3: ≈50% (capped by XHR/fetch + crossorigin usage).
        assert!((0.40..=0.62).contains(&red), "reduction {red}");
    }

    #[test]
    fn baseline_shows_no_reduction() {
        let g = group();
        let mut p = PassivePipeline::new(DeploymentMode::Baseline);
        p.config = config(40_000);
        let r = p.run(&g, 3);
        let red = r.tp_connection_reduction();
        assert!(red.abs() < 0.08, "baseline reduction {red}");
        assert_eq!(r.coalesced_connections, 0);
    }

    #[test]
    fn sampling_rate_controls_volume() {
        let g = group();
        let mut p = PassivePipeline::new(DeploymentMode::Baseline);
        p.config = TrafficConfig {
            visits: 40_000,
            sample_rate: 0.01,
            ..Default::default()
        };
        let r1 = p.run(&g, 4);
        p.config.sample_rate = 0.10;
        let r10 = p.run(&g, 4);
        assert!(r10.sampled_records > r1.sampled_records * 5);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let g = group();
        let mut p = PassivePipeline::new(DeploymentMode::OriginFrames);
        p.config = TrafficConfig {
            visits: 20_000,
            workers: 1,
            ..config(20_000)
        };
        let a = p.run(&g, 5);
        p.config.workers = 8;
        let b = p.run(&g, 5);
        // Aggregates identical: per-visit RNG derivation is
        // partition-independent.
        assert_eq!(a.experiment_tp_connections, b.experiment_tp_connections);
        assert_eq!(a.control_tp_connections, b.control_tp_connections);
        assert_eq!(a.sampled_records, b.sampled_records);
        assert_eq!(a.coalesced_connections, b.coalesced_connections);
        assert_eq!(a.experiment_visits, b.experiment_visits);
        assert_eq!(a.control_visits, b.control_visits);
    }
}
