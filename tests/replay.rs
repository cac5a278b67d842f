//! The replay oracle for the crawl's protocol figures.
//!
//! A crawl exports, per legacy HTTP/1.1 request, its response framing
//! and which keep-alive cycle of its connection it rode, and per
//! request over QUIC, the bytes of its QPACK field section and
//! encoder-stream instructions. The loader computes the first two by
//! rule and the last two with the encoder alone. This file crawls a
//! mixed, faulted universe with every visit traced, and drives the real
//! machines over each connection the trace recorded: a client
//! `origin_h1::Connection` through every cycle, and a QPACK
//! `Encoder`/`Decoder` pair through every request's round trip. Each
//! reported figure must be what the machines say.

use origin_h1::{Connection, EventRef, RequestHead, ResponseHead, Role};
use origin_h3::qpack::EncodedRequest;
use origin_h3::{QpackDecoder, QpackEncoder, CID_ROTATION_PERIOD};
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::VisitSinks;
use origin_telemetry::trace::{Arg, EventKind, EventView, Tracer};
use respect_origin::browser::{BrowserKind, FaultSession, PageLoader, UniverseEnv, VisitArena};
use respect_origin::netsim::{FaultProfile, SimRng};
use respect_origin::web::har::{PageLoad, RequestTiming};
use respect_origin::web::{Page, Protocol};
use respect_origin::webgen::{Dataset, DatasetConfig, PROVIDERS};
use std::collections::BTreeMap;

/// What the replay met across a crawl: each count must be nonzero for
/// the oracle to have checked the path it names.
#[derive(Debug, Default)]
struct Coverage {
    h1_cycles: u64,
    h3_requests: u64,
    /// Close-delimited responses, each its machine's last cycle.
    close_delimited: u64,
    /// Connections whose machine completed more than one cycle.
    kept_alive: u64,
    /// Legacy requests that coalesced onto another host's connection.
    coalesced_h1: u64,
    /// QPACK dynamic-table evictions.
    evictions: u64,
    /// Connections that rotated a connection ID.
    cid_rotations: u64,
    /// Visits with h1 or h3 requests that recovered from a fault.
    faulted_visits: u64,
}

/// One visit's QUIC connection as the oracle replays it.
#[derive(Default)]
struct QuicReplay {
    encoder: QpackEncoder,
    decoder: QpackDecoder,
    wire: EncodedRequest,
    requests: u64,
}

fn arg_u64(e: &EventView<'_>, key: &str) -> u64 {
    match e.args().find(|(k, _)| *k == key) {
        Some((_, Arg::U64(v))) => v,
        other => panic!("{}: {key} is {other:?}", e.name()),
    }
}

fn arg_str<'a>(e: &EventView<'a>, key: &str) -> &'a str {
    match e.args().find(|(k, _)| *k == key) {
        Some((_, Arg::Str(v))) => v,
        other => panic!("{}: {key} is {other:?}", e.name()),
    }
}

/// Replay one traced visit's h1 and h3 connections through the real
/// machines; `metrics` holds that visit's counters alone.
fn replay(page: &Page, load: &PageLoad, trace: &Tracer, metrics: &Registry, seen: &mut Coverage) {
    let rank = page.rank;
    // Served requests and NXDOMAIN failures get a `req` span, in
    // request order; each h1/h3 instant follows its request's span.
    let mut spans = load
        .requests
        .iter()
        .filter(|r| r.protocol != Protocol::NA || r.did_dns);
    let mut current: Option<&RequestTiming> = None;
    let mut h1: BTreeMap<u64, Connection> = BTreeMap::new();
    let mut quic: BTreeMap<u64, QuicReplay> = BTreeMap::new();
    let mut path = String::new();
    let mut faulted = false;
    for e in trace.events() {
        match (e.cat(), e.kind()) {
            ("request", EventKind::Complete) => {
                let r = spans.next().expect("a span for every request");
                assert_eq!((e.ts_us(), e.dur_us()), (r.start_us(), r.total_us()));
                let name = format!("req {} {}", r.resource_index, r.host);
                assert_eq!(e.name().to_string(), name, "rank {rank}");
                current = Some(r);
            }
            ("fault", _) => faulted = true,
            ("h1", _) => {
                let r = current.expect("an h1 request follows its span");
                let res = &page.resources[r.resource_index];
                let target = res.render_path(&page.hosts, &mut path);
                let (conn, cycle) = (arg_u64(&e, "conn"), arg_u64(&e, "cycle"));
                let closes = match arg_str(&e, "framing") {
                    "content-length" => false,
                    "close-delimited" => true,
                    other => panic!("rank {rank}: framing {other:?}"),
                };
                let machine = h1
                    .entry(conn)
                    .or_insert_with(|| Connection::new(Role::Client));
                if machine.cycles_completed() > 0 {
                    if let Err(err) = machine.start_next_cycle() {
                        panic!(
                            "rank {rank} conn {conn}: cycle {cycle} on a spent connection: {err:?}"
                        );
                    }
                }
                let host = r.host.as_str();
                let get = RequestHead {
                    method: "GET",
                    target,
                    headers: &[("host", host)],
                };
                machine.send_ref(EventRef::Request(get)).unwrap();
                machine.send_ref(EventRef::EndOfMessage).unwrap();
                let length = res.size.to_string();
                let with_length = [("content-length", length.as_str())];
                let (head, end) = if closes {
                    (ResponseHead::CLOSE_DELIMITED, EventRef::ConnectionClosed)
                } else {
                    let head = ResponseHead {
                        status: 200,
                        headers: &with_length,
                    };
                    (head, EventRef::EndOfMessage)
                };
                machine.receive_ref(EventRef::Response(head)).unwrap();
                if res.size > 0 {
                    machine.receive_ref(EventRef::Data(res.size)).unwrap();
                }
                machine.receive_ref(end).unwrap();
                let replayed = machine.cycles_completed();
                assert_eq!(cycle, replayed, "rank {rank} conn {conn}: reported cycle");
                assert_eq!(machine.keep_alive(), !closes);
                seen.h1_cycles += 1;
                seen.close_delimited += u64::from(closes);
            }
            ("h3", _) => {
                let r = current.expect("an h3 request follows its span");
                let res = &page.resources[r.resource_index];
                let target = res.render_path(&page.hosts, &mut path);
                let conn = quic.entry(arg_u64(&e, "conn")).or_default();
                let fields = [
                    (":method", "GET"),
                    (":scheme", "https"),
                    (":authority", r.host.as_str()),
                    (":path", target),
                ];
                conn.encoder.encode_into(&fields, &mut conn.wire);
                conn.decoder
                    .apply_instructions(&conn.wire.instructions)
                    .unwrap_or_else(|err| panic!("rank {rank}: encoder stream: {err}"));
                if let Err(err) = conn.decoder.decode_expecting(&conn.wire.section, &fields) {
                    panic!("rank {rank}: {target} did not round-trip: {err}");
                }
                let bytes = (conn.wire.section.len(), conn.wire.instructions.len());
                let reported = (
                    arg_u64(&e, "section_bytes"),
                    arg_u64(&e, "instruction_bytes"),
                );
                assert_eq!(reported, (bytes.0 as u64, bytes.1 as u64), "rank {rank}");
                conn.requests += 1;
                seen.h3_requests += 1;
            }
            _ => {}
        }
    }
    assert!(
        spans.next().is_none(),
        "rank {rank}: a request without a span"
    );

    seen.kept_alive += h1.values().filter(|m| m.cycles_completed() > 1).count() as u64;
    seen.coalesced_h1 += load
        .requests
        .iter()
        .filter(|r| page.legacy && r.protocol == Protocol::H11 && r.coalesced)
        .count() as u64;
    let (mut instructions, mut evictions, mut retired) = (0, 0, 0);
    for conn in quic.values() {
        assert_eq!(conn.decoder.evictions(), conn.encoder.evictions());
        instructions += conn.encoder.instructions();
        evictions += conn.encoder.evictions();
        retired += conn.requests / CID_ROTATION_PERIOD;
        seen.cid_rotations += u64::from(conn.requests >= CID_ROTATION_PERIOD);
    }
    let counters = [
        "h3.qpack_instructions",
        "h3.qpack_evictions",
        "h3.cids_retired",
    ]
    .map(|name| metrics.counter(name));
    assert_eq!(counters, [instructions, evictions, retired], "rank {rank}");
    seen.evictions += evictions;
    seen.faulted_visits += u64::from(faulted && !(h1.is_empty() && quic.is_empty()));
}

/// Load every site of the `crawl-mixed` configuration at the size of
/// the loader's arena-bound test — legacy 0.25, h3 0.5, the reference
/// faults, one warm arena — under `kind`, every visit traced, and
/// replay each visit.
fn crawl_and_replay(kind: BrowserKind, seen: &mut Coverage) {
    let dataset = Dataset::generate(DatasetConfig {
        sites: 2_500,
        legacy_share: 0.25,
        h3_share: 0.5,
        ..Default::default()
    });
    let profile = FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap();
    let loader = PageLoader::new(kind);
    let mut env = UniverseEnv::new(&dataset);
    env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
    let mut arena = VisitArena::new();
    for site in dataset.successful_sites() {
        let page = dataset.page_for(site);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let mut faults = FaultSession::new(profile, site.page_seed ^ 0xFA017CE5);
        let (mut metrics, mut trace) = (Registry::new(), Tracer::new());
        trace.begin_visit(u64::from(site.rank), site.root_host.as_str());
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            Some(&mut faults),
            Some(&mut metrics),
            Some(&mut trace),
            &mut arena,
            VisitSinks::default(),
        );
        replay(&page, &load, &trace, &metrics, seen);
        arena.recycle(load);
    }
}

/// The crawl's own policy: Chromium never coalesces an HTTP/1.1
/// request, so every legacy request it serves is a cycle.
#[test]
fn the_crawls_connections_replay_through_the_protocol_machines() {
    let mut seen = Coverage::default();
    crawl_and_replay(BrowserKind::Chromium, &mut seen);
    let covered = [
        seen.h1_cycles,
        seen.h3_requests,
        seen.close_delimited,
        seen.kept_alive,
        seen.evictions,
        seen.cid_rotations,
        seen.faulted_visits,
    ];
    assert!(covered.iter().all(|&n| n > 0), "{seen:?}");
}

/// The ideal-ORIGIN model coalesces legacy requests onto other hosts'
/// connections: those rides are not cycles, and a count that took them
/// in would report a cycle the connection's machine never ran.
#[test]
fn coalesced_h1_rides_are_not_cycles() {
    let mut seen = Coverage::default();
    crawl_and_replay(BrowserKind::IdealOrigin, &mut seen);
    assert!(seen.coalesced_h1 > 0 && seen.kept_alive > 0, "{seen:?}");
}
