//! Server-side passive measurement (§5.2 / §5.3).
//!
//! The paper's pipeline sampled 1% of HTTP requests at the edge and
//! logged, per request: a connection identifier, the Referer
//! truncated to its domain, the treatment label, the arrival order
//! within the connection, and a flag bit set when the HTTP `Host`
//! differed from the TLS SNI — the signal that a request was
//! *coalesced* onto a connection opened for another hostname.
//!
//! This module reproduces the pipeline as a fold: visits are cut into
//! blocks that [`origin_netsim::fold_chunks`] workers claim, each
//! block folds its sampled [`LogRecord`]s into a partial
//! [`PassiveReport`], and the partials add. Every visit derives its
//! own RNG from its index, so any partition gives the same report.

use crate::env::DeploymentMode;
use crate::sample::{SampleGroup, Treatment, THIRD_PARTY_HOST};
use origin_netsim::SimRng;
use origin_web::FetchMode;

/// One sampled log record (the paper's privacy-reduced schema),
/// borrowing its names from the sample group.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord<'a> {
    /// Unique connection identifier.
    pub conn_id: u64,
    /// Referer truncated at the domain (no subpages — §5.1 privacy).
    pub referer_domain: &'a str,
    /// TLS SNI of the carrying connection.
    pub sni: &'a str,
    /// HTTP Host requested.
    pub host: &'a str,
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
    /// Threads the visit blocks are folded on.
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

    /// Aggregate one sampled record — the paper's restricted-access
    /// query side. `coalesced_seen` is the carrying visit's "this
    /// coalesced connection was already counted" flag.
    fn collect(&mut self, rec: &LogRecord<'_>, coalesced_seen: &mut bool) {
        self.sampled_records += 1;
        if rec.host != THIRD_PARTY_HOST {
            return;
        }
        if rec.host_differs_from_sni {
            // Coalesced request: count the connection once.
            if rec.arrival_order >= 2 && !std::mem::replace(coalesced_seen, true) {
                self.coalesced_connections += 1;
            }
        } else if rec.arrival_order == 1 {
            // First request on a dedicated third-party connection =
            // one new TLS connection.
            match rec.treatment {
                Treatment::Experiment => self.experiment_tp_connections += 1,
                Treatment::Control => self.control_tp_connections += 1,
            }
        }
    }

    /// Add another block's partial report.
    fn merge(&mut self, other: &PassiveReport) {
        self.sampled_records += other.sampled_records;
        self.experiment_tp_connections += other.experiment_tp_connections;
        self.control_tp_connections += other.control_tp_connections;
        self.coalesced_connections += other.coalesced_connections;
        self.experiment_visits += other.experiment_visits;
        self.control_visits += other.control_visits;
    }

    /// Emit the report's aggregates as trace instants on a dedicated
    /// logical process: one event per aggregate rather than one per
    /// sampled record keeps whole-run traces small.
    pub fn record_trace(&self, tracer: &mut origin_telemetry::trace::Tracer, pid: u64) {
        use origin_telemetry::trace::{Arg, Site};
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
    pub fn record_into(&self, metrics: &mut origin_telemetry::metrics::Registry) {
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
    /// given seed regardless of worker count (each visit derives its
    /// own RNG from its index, and the partial reports add).
    pub fn run(&self, group: &SampleGroup, seed: u64) -> PassiveReport {
        /// Visits per claimed block.
        const BLOCK: u64 = 4_096;
        let blocks: Vec<u64> = (0..self.config.visits).step_by(BLOCK as usize).collect();
        let mut report = PassiveReport::default();
        origin_netsim::fold_chunks(
            &blocks,
            self.config.workers,
            || (),
            |(), chunk| {
                let mut part = PassiveReport::default();
                for &start in chunk {
                    for v in start..(start + BLOCK).min(self.config.visits) {
                        self.visit(group, seed, v, &mut part);
                    }
                }
                part
            },
            |part| report.merge(&part),
        );
        report
    }

    /// Simulate visit `v` and fold the sampled share of its requests
    /// into `report` — the edge and the collector of the paper's
    /// pipeline in one step.
    fn visit(&self, group: &SampleGroup, seed: u64, v: u64, report: &mut PassiveReport) {
        let mut rng = SimRng::seed_from_u64(seed ^ v.wrapping_mul(0x9e3779b97f4a7c15));
        let site = &group.sites[rng.index(group.sites.len())];
        let t_secs = rng.unit() * self.config.window_secs;
        match site.treatment {
            Treatment::Experiment => report.experiment_visits += 1,
            Treatment::Control => report.control_visits += 1,
        }
        // A visit opens at most two connections: the site's, and a
        // dedicated one to the third party unless its requests coalesce.
        let site_conn = 2 * v;
        let coalesces = self.visit_coalesces(site.treatment, site.third_party_fetch, &mut rng);
        // A coalesced connection counts once however many of its
        // requests are sampled; its id never leaves this visit.
        let mut coalesced_seen = false;
        // The sampling draw comes first: requests that are not sampled
        // (99% of them) never build a record (building one draws
        // nothing, so the draw order is the same either way).
        let mut emit = |conn_id: u64, sni: &str, host: &str, arrival_order: u32| {
            if rng.chance(self.config.sample_rate) {
                report.collect(
                    &LogRecord {
                        conn_id,
                        referer_domain: site.host.as_str(),
                        sni,
                        host,
                        arrival_order,
                        treatment: site.treatment,
                        host_differs_from_sni: sni != host,
                        t_secs,
                    },
                    &mut coalesced_seen,
                );
            }
        };
        let site_host = site.host.as_str();
        emit(site_conn, site_host, site_host, 1);
        for k in 0..site.third_party_requests {
            if coalesces {
                emit(site_conn, site_host, THIRD_PARTY_HOST, k + 2);
            } else {
                emit(site_conn + 1, THIRD_PARTY_HOST, THIRD_PARTY_HOST, k + 1);
            }
        }
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
        p.config = config(20_000);
        // One thread, and more threads than the five visit blocks:
        // per-visit RNG derivation makes any partition exact — and
        // equal to what the channel-and-collector pipeline this fold
        // replaced reported for the same run.
        for workers in [1, 8] {
            p.config.workers = workers;
            let r = p.run(&g, 5);
            assert_eq!([r.sampled_records, r.coalesced_connections], [2944, 538]);
            assert_eq!(
                [r.experiment_tp_connections, r.control_tp_connections],
                [212, 480]
            );
            assert_eq!([r.experiment_visits, r.control_visits], [10214, 9786]);
        }
    }
}
