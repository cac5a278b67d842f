//! Byte-pin of the full cross product inside `cargo test`: legacy h1 ×
//! h3 × fault recovery × every telemetry sink, on the `crawl-mixed`
//! configuration of `BENCHMARK.json` at small scale.

use origin_bench::{
    CrawlResults, CrawlSpec, H3Report, ObsConfig, RedundancyReport, ResilienceReport,
};
use origin_browser::{BrowserKind, FaultSession, PageLoader, UniverseEnv, VisitArena};
use origin_cdn::SampleGroup;
use origin_dns::DnsName;
use origin_netsim::hash::fnv1a64;
use origin_netsim::{FaultProfile, SimDuration, SimRng};
use origin_serve::{run_serve, ServeConfig};
use origin_telemetry::obs::{FlightRecorder, VisitSinks};
use origin_telemetry::trace::{to_chrome_json, Sampler, Tracer};
use origin_tls::Certificate;
use origin_web::{ContentType, PageLoad, Resource};
use origin_webgen::{Dataset, DatasetConfig, SiteConfig, PROVIDERS};
use std::process;

/// Fault events in one visit that arm the flight recorder's trigger.
const FAULT_ABORT: u64 = 3;

fn crawl_mixed(threads: usize) -> CrawlSpec {
    CrawlSpec {
        threads,
        sampler: Some(Sampler::new(4)),
        faults: Some(FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap()),
        legacy_share: 0.25,
        h3_share: 0.5,
        obs: Some(ObsConfig {
            fault_abort: Some(FAULT_ABORT),
            ..ObsConfig::default()
        }),
        ..CrawlSpec::new(300, 0x0516)
    }
}

/// The universe `spec` crawls.
fn dataset_of(spec: &CrawlSpec) -> Dataset {
    Dataset::generate(DatasetConfig {
        sites: spec.sites,
        seed: spec.seed,
        legacy_share: spec.legacy_share,
        h3_share: spec.h3_share,
        ..DatasetConfig::default()
    })
}

/// One untraced, unobserved load of the first successful site `pick`
/// accepts, on the mixed universe — the HAR exporter's input.
fn load_of(dataset: &Dataset, pick: impl Fn(&SiteConfig) -> bool) -> PageLoad {
    let site = dataset
        .successful_sites()
        .find(|s| pick(s))
        .expect("the mixed universe has such a site");
    let mut env = UniverseEnv::new(dataset);
    env.flush_dns();
    let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
    PageLoader::new(BrowserKind::Chromium).load(&dataset.page_for(site), &mut env, &mut rng)
}

/// A hand-filled recorder: the panic snapshot is a worker-local view,
/// so a merged crawl result never carries one with events in it.
/// Quotes and backslashes only — what the exporter escaped before it
/// moved onto the shared writer.
fn panic_snapshot() -> String {
    let mut rec = FlightRecorder::new(4);
    rec.begin_visit(6);
    rec.record(0, "visit.begin", 6, "old.example");
    rec.begin_visit(7);
    rec.record(0, "visit.begin", 7, "a.example");
    rec.record(12, "conn.open", 1, "cdn \"edge\" a\\b");
    rec.record(40, "fault.421", 2, "");
    rec.panic_snapshot_json()
}

/// The figure series `repro --json` writes. The emitter lives in the
/// binary, so the binary is what the test drives.
fn series_json() -> String {
    let path = std::env::temp_dir().join(format!("origin-golden-series-{}.json", process::id()));
    let out = process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--sites", "300", "--threads", "2", "--only", "t1", "--json"])
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro --json failed");
    let body = std::fs::read_to_string(&path).expect("repro wrote the series");
    let _ = std::fs::remove_file(&path);
    body
}

/// The per-arm serve timeline, with retention on so the `folded`
/// section is part of the document.
fn serve_timeline_json() -> String {
    run_serve(&ServeConfig {
        dataset: DatasetConfig {
            sites: 300,
            ..DatasetConfig::default()
        },
        visits: 5_000,
        threads: 2,
        rollout: 0.5,
        rollout_ramp: SimDuration::from_secs(120),
        retain_windows: Some(4),
        ..ServeConfig::default()
    })
    .timeline_json()
}

/// FNV-1a of every JSON export of the workspace: registry, trace,
/// timeline, flight trigger snapshot, the three comparison reports,
/// the HAR of one h2 and one legacy visit, a panic snapshot, the
/// figure series and the per-arm serve timeline.
fn digests(r: &CrawlResults) -> [u64; 12] {
    let spec = crawl_mixed(2);
    let twin = |spec: CrawlSpec| {
        CrawlSpec {
            sampler: None,
            obs: None,
            ..spec
        }
        .run()
    };
    let clean = twin(CrawlSpec {
        faults: None,
        ..spec.clone()
    });
    let h2_only = twin(CrawlSpec {
        h3_share: 0.0,
        ..spec.clone()
    });
    let dataset = dataset_of(&spec);
    let timeline = r.timeline.as_ref().expect("observed crawl");
    let flight = r.flight.as_ref().expect("observed crawl");
    [
        r.metrics.to_json(),
        to_chrome_json(&r.trace),
        timeline.to_json(),
        flight
            .trigger_snapshot_json(FAULT_ABORT)
            .expect("some visit of the mixed crawl reaches the threshold"),
        ResilienceReport::build(&clean, r, spec.faults.as_ref().expect("faulted")).to_json(),
        RedundancyReport::build(r, spec.legacy_share).to_json(),
        H3Report::build(&h2_only, r, spec.h3_share).to_json(),
        load_of(&dataset, |s| !s.legacy && !s.h3).to_har_json(),
        load_of(&dataset, |s| s.legacy).to_har_json(),
        panic_snapshot(),
        series_json(),
        serve_timeline_json(),
    ]
    .map(|json| fnv1a64(json.as_bytes()))
}

/// The first three constants were computed from the code before the
/// visit-pipeline refactor (PR 12), the rest from the code before the
/// exporters moved onto `origin_netsim::json`; any change to the order
/// of an RNG draw, a counter, a span or a window cell — or to one byte
/// of an exporter's layout — moves them. The trace's was re-pinned when
/// DNS spans began starting on their request's sealed microsecond
/// instead of one before it.
#[test]
fn crawl_mixed_digests_are_pinned() {
    for threads in [1, 3] {
        assert_eq!(
            digests(&crawl_mixed(threads).run()),
            [
                0xd0050d43830eaafc,
                0x96dadcad9c2c8081,
                0xd7bd9feec9898ffc,
                0x51768458a081f448,
                0xd6a3560f65cadfe9,
                0x443065028a637c8a,
                0xc8ddbbefd02569c7,
                0x3a00693316dd2bbb,
                0x59d445b5329e4115,
                0xec8c880438324854,
                0x8a4048dbada08092,
                0x527fbb8446b8d226,
            ],
            "{threads} threads: registry, trace, timeline, flight trigger, resilience, \
             redundancy, h3, har (h2), har (legacy), panic snapshot, series, serve timeline"
        );
    }
}

/// Every visit's trace: the pinned trace above keeps one site in four.
fn every_visit_trace() -> String {
    let spec = CrawlSpec {
        sampler: Some(Sampler::new(1)),
        ..crawl_mixed(1)
    };
    to_chrome_json(&spec.run().trace)
}

/// Every flight event of every visit, not just the trigger's — each
/// visit's panic snapshot, taken after its load from a ring large
/// enough to hold the whole visit — and the same loads' trace. The
/// crawl's visits, driven directly so that every eighth page can ask
/// for a name the universe does not resolve.
fn flight_stream_and_trace() -> [String; 2] {
    let spec = crawl_mixed(1);
    let profile = spec.faults.expect("faulted");
    let dataset = dataset_of(&spec);
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
    let mut arena = VisitArena::new();
    let mut flight = FlightRecorder::new(1 << 12);
    let mut tracer = Tracer::new();
    let mut out = String::new();
    for site in dataset.successful_sites() {
        let mut page = dataset.page_for(site);
        if site.rank % 8 == 0 {
            let gone = DnsName::parse(&format!("gone-{}.invalid", site.rank)).unwrap();
            page.push(
                gone,
                Resource::new("/gone.js", ContentType::Javascript, 900),
            );
        }
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let mut faults = FaultSession::new(profile, site.page_seed ^ 0xFA017CE5);
        flight.begin_visit(site.rank);
        tracer.begin_visit(u64::from(site.rank), site.root_host.as_str());
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            Some(&mut faults),
            None,
            Some(&mut tracer),
            &mut arena,
            VisitSinks {
                flight: Some(&mut flight),
                visit: None,
            },
        );
        out.push_str(&flight.panic_snapshot_json());
        arena.recycle(load);
    }
    [out, to_chrome_json(&tracer)]
}

/// What a request's telemetry emits, every event of it: computed from
/// the code before the stages stopped emitting and one step reported;
/// the two traces re-pinned with the DNS-span fix (only the `ts` of
/// `dns.*` events moved).
#[test]
fn every_visit_trace_and_flight_stream_are_pinned() {
    let [flight, direct_trace] = flight_stream_and_trace();
    for code in [
        "conn.open",
        "quic.open",
        "dns.nxdomain",
        "fault.421",
        "fault.middlebox_teardown",
        "fault.backoff",
        "h1.connection_closed",
    ] {
        assert!(flight.contains(code), "no {code} in the flight stream");
    }
    assert!(direct_trace.contains("\"nxdomain\""));
    assert_eq!(
        [every_visit_trace(), flight, direct_trace].map(|json| fnv1a64(json.as_bytes())),
        [0x449abf0504e207f7, 0x7398416a9b5f0772, 0xe55651f09b979293],
        "every-visit trace, flight stream, its loads' trace"
    );
}

/// One certificate's every field, and its modelled size. The SAN list
/// is the full one, counted filler names spelled out.
fn push_cert(out: &mut String, cert: Option<&Certificate>) {
    use std::fmt::Write;
    let Some(c) = cert else {
        return out.push_str(" no-cert\n");
    };
    let _ = writeln!(
        out,
        " cert {} {} {:?} {} {}..{} {:?} {}",
        c.serial,
        c.subject,
        c.san_names().collect::<Vec<_>>(),
        c.issuer,
        c.not_before_day,
        c.not_after_day,
        c.key_type,
        c.wire_size()
    );
}

/// Every fact the generated world stores, as text: each `SiteConfig`
/// in rank order; for each of a site's hosts its registered addresses,
/// two consecutive rotating answers, its AS and its certificate; the
/// issuance and CT totals; and the §5 sample group with its
/// certificates and CT ledger.
fn world_text() -> String {
    use std::fmt::Write;
    let d = Dataset::generate(DatasetConfig {
        sites: 2_000,
        legacy_share: 0.25,
        h3_share: 0.5,
        ..DatasetConfig::default()
    });
    let u = &d.universe;
    let mut serials = Default::default();
    let mut out = String::new();
    for s in d.sites() {
        let _ = writeln!(
            out,
            "site {} {} {:?} {:?} {} {} {:?} {} {} {} {} {}",
            s.rank,
            s.root_host,
            &s.shard_hosts[..],
            s.provider,
            s.asn,
            s.failed,
            &s.services[..],
            s.n_requests,
            s.page_seed,
            s.shards_share_ip,
            s.legacy,
            s.h3
        );
        let services = s.services.iter().map(|svc| svc.host());
        for host in std::iter::once(s.root_host.clone())
            .chain(s.shard_hosts.iter().cloned())
            .chain(services)
        {
            let _ = write!(out, " {host} {:?}", u.zones.registered(&host));
            for _ in 0..2 {
                let a = u.zones.resolve_shared(&host, &mut serials);
                let a = a.map(|a| (a.addresses[..].to_vec(), a.ttl_secs));
                let _ = write!(out, " {a:?}");
            }
            let _ = write!(out, " as{}", u.asn_of_host(&host));
            push_cert(&mut out, u.cert_for(&host));
        }
    }
    let _ = writeln!(
        out,
        "issued {} ct {:?} zones {}",
        u.certs_issued(),
        u.ct_logs.per_operator(),
        u.zones.len()
    );
    let group = SampleGroup::build(5_000, &mut SimRng::seed_from_u64(0x0516));
    for s in &group.sites {
        let _ = write!(
            out,
            "sample {} {:?} {:?} {} {}",
            s.host, s.treatment, s.third_party_fetch, s.third_party_requests, s.page_seed
        );
        push_cert(&mut out, Some(&s.cert));
    }
    let _ = writeln!(
        out,
        "removed {} ct {} {:?}",
        group.removed_subpage_only,
        group.ct_logs.total_entries(),
        group.ct_logs.per_operator()
    );
    out
}

/// Computed from the code before names, address sets and CT records
/// were shared by handle: how the world is stored may change, not one
/// fact of it.
#[test]
fn generated_world_is_pinned() {
    let text = world_text();
    assert_eq!(
        (text.len(), fnv1a64(text.as_bytes())),
        (9_863_842, 0x5bf2_f251_0748_4fef),
        "the mixed world's sites, hosts, answers, certificates and CT ledger"
    );
}

/// What buffering that trace costs: one 12-byte record per event, its
/// values, and each shard's site and string tables (names and keys are
/// not stored at all), counted by what they have allocated — a closed
/// shard is trimmed to what it holds. It measures 15.8 bytes an event;
/// 16-byte records in shards that kept their doubling slack took
/// ≈ 30, a 32-byte record with every string copied inline ≈ 55, and
/// the owned `String`/`Vec` event before it ~230.
#[test]
fn crawl_mixed_trace_stays_under_18_bytes_an_event() {
    let r = crawl_mixed(1).run();
    let events = r.trace.len();
    assert!(events > 10_000, "only {events} events traced");
    let per_event = r.trace.footprint().iter().sum::<usize>() as f64 / events as f64;
    assert!(
        per_event <= 18.0,
        "{per_event:.1} bytes/event over {events} events"
    );
}
