//! Fault-injection recovery behaviour of the page loader, pinned
//! against hand-built pages so every assertion is exact: the golden
//! 421 → evict → new-connection → replay waterfall, middlebox
//! teardown with ORIGIN suppression, bounded retransmit backoff, and
//! the all-zero-profile identity that keeps clean reports reproducible.

use origin_browser::{BrowserKind, FaultSession, PageLoader, VisitArena, WebEnv};
use origin_dns::name::name;
use origin_dns::record::v4;
use origin_dns::{DnsName, QueryAnswer};
use origin_h2::OriginSet;
use origin_netsim::{FaultProfile, LinkProfile, SimDuration, SimRng, SimTime};
use origin_telemetry::trace::{Arg, EventKind};
use origin_tls::{Certificate, CertificateBuilder};
use origin_web::{ContentType, Page, Resource};
use std::net::IpAddr;

/// Two hosts, one IP, one wildcard cert — the minimal world in which
/// Chromium coalesces the subresource onto the root connection.
struct MiniEnv {
    ip: IpAddr,
    cert: std::sync::Arc<Certificate>,
    link: LinkProfile,
    /// When true, servers advertise an ORIGIN set (the mid-deployment
    /// world the §6.7 middlebox broke).
    advertise_origin: bool,
}

impl MiniEnv {
    fn new() -> Self {
        MiniEnv {
            ip: v4(10, 0, 0, 1),
            cert: std::sync::Arc::new(
                CertificateBuilder::new(name("www.a.com"))
                    .san(name("*.a.com"))
                    .build(),
            ),
            link: LinkProfile::new(20.0, 50.0),
            advertise_origin: false,
        }
    }
}

impl WebEnv for MiniEnv {
    fn resolve(
        &mut self,
        _host: &DnsName,
        _now: SimTime,
        _rng: &mut SimRng,
        _tracer: Option<&mut origin_telemetry::trace::Tracer>,
    ) -> Option<QueryAnswer> {
        Some(QueryAnswer {
            addresses: std::sync::Arc::new([self.ip]),
            from_cache: false,
            latency: SimDuration::from_millis(10),
        })
    }
    fn cert_shared(&self, _host: &DnsName) -> Option<std::sync::Arc<Certificate>> {
        Some(self.cert.clone())
    }
    fn asn_of_ip(&self, _ip: &IpAddr) -> u32 {
        13335
    }
    fn colocated(&self, _conn_host: &DnsName, _new_host: &DnsName) -> bool {
        true
    }
    fn origin_set_for(&self, _host: &DnsName) -> Option<std::sync::Arc<OriginSet>> {
        self.advertise_origin
            .then(|| OriginSet::from_hosts(["www.a.com", "img.a.com"]).into())
    }
    fn request_facts(&self, _host: &DnsName) -> (u32, LinkProfile) {
        (13335, self.link.clone())
    }
}

fn two_host_page() -> Page {
    let mut page = Page::new(1, name("www.a.com"), 40_000);
    let mut img = Resource::new("/a.png", ContentType::Png, 12_000);
    img.discovered_by = Some(0);
    page.push(name("img.a.com"), img);
    page
}

fn loader() -> PageLoader {
    // Races off so connection/DNS counts are exact.
    let mut l = PageLoader::new(BrowserKind::Chromium);
    l.config.happy_eyeballs_dup_rate = 0.0;
    l.config.speculative_dns_rate = 0.0;
    l
}

/// One visit of `page` (simulation seed 7) with the given sinks.
fn load_with(
    page: &Page,
    env: &mut MiniEnv,
    faults: Option<&mut FaultSession>,
    metrics: Option<&mut origin_telemetry::metrics::Registry>,
    tracer: Option<&mut origin_telemetry::trace::Tracer>,
) -> origin_web::PageLoad {
    loader().load_observed(
        page,
        env,
        &mut SimRng::seed_from_u64(7),
        faults,
        metrics,
        tracer,
        &mut VisitArena::new(),
        origin_telemetry::obs::VisitSinks::default(),
    )
}

#[test]
fn clean_load_coalesces_the_subresource() {
    let page = two_host_page();
    let mut env = MiniEnv::new();
    let pl = loader().load(&page, &mut env, &mut SimRng::seed_from_u64(7));
    assert!(pl.requests[0].new_connection);
    assert!(
        pl.requests[1].coalesced,
        "img.a.com should ride the root conn"
    );
    assert_eq!(pl.tls_connections(), 1);
}

#[test]
fn golden_421_evict_replay_waterfall() {
    let page = two_host_page();
    let mut env = MiniEnv::new();
    let mut faults = FaultSession::new(FaultProfile::parse("h421=1").unwrap(), 0xBEEF);
    let mut metrics = origin_telemetry::metrics::Registry::new();
    let mut tracer = origin_telemetry::trace::Tracer::new();
    tracer.begin_visit(1, "fault fixture");
    let pl = load_with(
        &page,
        &mut env,
        Some(&mut faults),
        Some(&mut metrics),
        Some(&mut tracer),
    );

    // The coalesce attempt drew a 421 and was replayed on a dedicated
    // connection: two connections total, nothing coalesced.
    let img = &pl.requests[1];
    assert!(!img.coalesced);
    assert!(img.new_connection);
    assert_eq!(pl.tls_connections(), 2);
    // The wasted 421 round trip is charged as blocked time.
    let rtt_ms = 20.0;
    assert!(
        (img.phase.blocked - rtt_ms).abs() < 1e-9,
        "blocked {} != one RTT",
        img.phase.blocked
    );

    // Golden counter fixture.
    assert_eq!(faults.counts.misdirected_421, 1);
    assert_eq!(faults.counts.pool_evictions, 1);
    assert_eq!(faults.counts.retries, 1);
    assert_eq!(faults.counts.middlebox_teardowns, 0);
    assert_eq!(faults.counts.drops, 0);
    assert_eq!(metrics.counter("fault.misdirected_421"), 1);
    assert_eq!(metrics.counter("fault.pool_evictions"), 1);
    assert_eq!(metrics.counter("fault.retries"), 1);

    // Golden span fixture: the fault category tells the whole story
    // in order — 421 observed on the coalesced connection, mapping
    // evicted one RTT later.
    let faults: Vec<_> = tracer.events().filter(|e| e.cat() == "fault").collect();
    let fault_events: Vec<(String, u32)> = faults
        .iter()
        .map(|e| (e.name().to_string(), e.tid()))
        .collect();
    assert_eq!(
        fault_events,
        [("fault.421".to_string(), 1), ("fault.evict".to_string(), 1)]
    );
    assert_eq!(
        faults[1].ts_us() - faults[0].ts_us(),
        20_000,
        "evict lands one RTT after the 421"
    );

    // The replayed request's span is labelled as a 421 replay and
    // rides the *new* connection's lane (tid 2 = pool index 1).
    let req_span = tracer
        .events()
        .find(|e| e.cat() == "request" && e.name().to_string().starts_with("req 1 "))
        .expect("replayed request span");
    assert_eq!(req_span.tid(), 2);
    assert!(req_span
        .args()
        .any(|arg| arg == ("reuse", Arg::Str("replay-421"))));
    // No coalesce flow arrow was drawn for the failed attempt.
    assert!(!tracer.events().any(|e| e.kind() == EventKind::FlowStart));
}

#[test]
fn middlebox_teardown_reconnects_with_origin_suppressed() {
    let page = two_host_page();
    let mut env = MiniEnv::new();
    env.advertise_origin = true;
    let mut faults = FaultSession::new(FaultProfile::parse("middlebox=1").unwrap(), 0xBEEF);
    let mut metrics = origin_telemetry::metrics::Registry::new();
    let pl = load_with(&page, &mut env, Some(&mut faults), Some(&mut metrics), None);
    // Only the root opens a connection (img coalesces — ORIGIN is
    // advertised but Chromium coalesces on IP, and the torn-down
    // connection was replaced before any request used it), so exactly
    // one teardown fires, and the replacement suppressed ORIGIN.
    assert_eq!(faults.counts.middlebox_teardowns, 1);
    assert_eq!(faults.counts.origin_suppressed, 1);
    assert_eq!(faults.counts.retries, 1);
    assert_eq!(metrics.counter("fault.middlebox_teardowns"), 1);
    // The doomed handshake is charged as blocked time on the root
    // request: at least one RTT of TCP plus the TLS exchange.
    assert!(
        pl.requests[0].phase.blocked >= 20.0,
        "blocked {} should include the torn-down handshake",
        pl.requests[0].phase.blocked
    );
    // The page still loads fully.
    assert_eq!(pl.requests.len(), 2);
    assert!(pl.plt() > 0.0);
}

#[test]
fn full_drop_profile_hits_the_retry_bound_and_terminates() {
    let page = two_host_page();
    let mut env = MiniEnv::new();
    let mut clean_env = MiniEnv::new();
    let clean = loader().load(&page, &mut clean_env, &mut SimRng::seed_from_u64(7));
    let mut faults = FaultSession::new(FaultProfile::parse("drop=1").unwrap(), 0xBEEF);
    let pl = load_with(&page, &mut env, Some(&mut faults), None, None);
    // Every transfer burns the full retry budget, then force-delivers.
    assert_eq!(faults.counts.drops, 3 * pl.requests.len() as u64);
    assert_eq!(faults.counts.retries, faults.counts.drops);
    assert_eq!(faults.counts.backoff_events, faults.counts.drops);
    assert!(faults.counts.backoff_us > 0);
    // Exponential backoff on sim time: 200 + 400 + 800 ms plus one
    // RTT per retransmit, all charged to the receive phase.
    let penalty_ms = 200.0 + 400.0 + 800.0 + 3.0 * 20.0;
    for (f, c) in pl.requests.iter().zip(&clean.requests) {
        assert!(
            (f.phase.receive - c.phase.receive - penalty_ms).abs() < 1e-6,
            "receive {} vs clean {} missing {penalty_ms}ms penalty",
            f.phase.receive,
            c.phase.receive
        );
    }
}

#[test]
fn drop_faults_preserve_the_clean_skeleton() {
    // Fault decisions draw from a dedicated RNG, so a drop-only
    // profile must leave every phase except receive exactly as the
    // clean run computed it.
    let page = two_host_page();
    let mut clean_env = MiniEnv::new();
    let clean = loader().load(&page, &mut clean_env, &mut SimRng::seed_from_u64(7));
    let mut env = MiniEnv::new();
    let mut faults = FaultSession::new(FaultProfile::parse("drop=0.5").unwrap(), 0xBEEF);
    let faulted = load_with(&page, &mut env, Some(&mut faults), None, None);
    for (f, c) in faulted.requests.iter().zip(&clean.requests) {
        assert_eq!(f.host, c.host);
        assert_eq!(f.coalesced, c.coalesced);
        assert_eq!(f.new_connection, c.new_connection);
        assert_eq!(f.phase.dns, c.phase.dns);
        assert_eq!(f.phase.connect, c.phase.connect);
        assert_eq!(f.phase.ssl, c.phase.ssl);
        assert_eq!(f.phase.wait, c.phase.wait);
        assert!(f.phase.receive >= c.phase.receive);
    }
}

#[test]
fn zero_profile_is_byte_identical_to_clean() {
    let page = two_host_page();
    let mut clean_env = MiniEnv::new();
    let mut clean_metrics = origin_telemetry::metrics::Registry::new();
    let clean = load_with(&page, &mut clean_env, None, Some(&mut clean_metrics), None);
    let mut env = MiniEnv::new();
    let mut faults = FaultSession::new(FaultProfile::none(), 0xBEEF);
    let mut metrics = origin_telemetry::metrics::Registry::new();
    let faulted = load_with(&page, &mut env, Some(&mut faults), Some(&mut metrics), None);
    assert_eq!(clean, faulted);
    assert_eq!(faults.counts, origin_browser::FaultCounts::default());
    // No fault.* key may materialize — the serialized registries must
    // be byte-identical.
    assert_eq!(clean_metrics.to_json(), metrics.to_json());
}
