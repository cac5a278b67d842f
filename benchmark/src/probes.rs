//! Micro-probes: the bodies of the criterion benches under
//! `crates/bench/benches` (`pool_decide`, `frames`, `hpack`,
//! `event_queue`) plus one probe per layer those benches do not
//! reach, timed by this benchmark's own loop so the numbers land in
//! the same ledger as everything else. They depend on no workload
//! input: a value that moves here moved because the layer's code did.

use crate::stats::median;
use bytes::{Bytes, BytesMut};
use origin_browser::{BrowserKind, ConnectionPool, PoolPartition, PooledConnection};
use origin_dns::name::name;
use origin_dns::record::v4;
use origin_dns::{RecordSet, Resolver, Transport, ZoneSet};
use origin_h2::conn::{request_headers, ServerConfig};
use origin_h2::hpack::{Decoder, Encoder, Header};
use origin_h2::{Connection, Frame, FrameDecoder, OriginSet, Settings, StreamId};
use origin_metrics::Registry;
use origin_netsim::{ArrivalProcess, EventQueue, LinkProfile, SimDuration, SimRng, SimTime};
use origin_obs::window::{DEFAULT_SPACING, DEFAULT_WINDOW};
use origin_obs::{Timeline, VisitObs};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per probe; the probe reports their median.
const SAMPLES: usize = 9;

/// Median wall time of one call of `f`, in ns per operation, where a
/// call performs `ops` operations. One untimed call warms caches and
/// lazily built tables first.
fn ns_per_op(ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / ops as f64
}

/// Run every probe into `ledger`.
pub fn run_all(ledger: &mut BTreeMap<&'static str, f64>) {
    ledger.insert("browser.pool_decide_ns", pool_decide());
    let (hit, miss) = dns_resolve();
    ledger.insert("dns.resolve_hit_ns", hit);
    ledger.insert("dns.resolve_miss_ns", miss);
    ledger.insert("tls.san_match_ns", san_match());
    ledger.insert("intern.lookup_ns", intern_lookup());
    ledger.insert("h1.cycle_ns", h1_cycle());
    ledger.insert("h2.frame_decode_ns", frame_decode());
    let (encode, decode) = hpack();
    ledger.insert("h2.hpack_encode_ns", encode);
    ledger.insert("h2.hpack_decode_ns", decode);
    ledger.insert("h2.exchange_us", h2_exchange() / 1e3);
    ledger.insert("h3.handshake_ns", h3_handshake());
    ledger.insert("h3.qpack_encode_ns", qpack_encode());
    ledger.insert("netsim.queue_ns_per_event", event_queue());
    ledger.insert("netsim.arrival_ns", arrivals());
    ledger.insert("obs.record_visit_ns", obs_record_visit());
    let (add, merge) = metrics_registry();
    ledger.insert("metrics.add_ns", add);
    ledger.insert("metrics.merge_us", merge / 1e3);
}

/// `crawl.rs::bench_pool_decide`, indexed path, 64 pooled
/// connections: a host only a wildcard SAN covers, at an address no
/// connection holds.
fn pool_decide() -> f64 {
    let mut pool = ConnectionPool::new();
    for i in 0..64usize {
        let host = format!("h{i}.svc{}.example", i % 17);
        let ip = v4(10, 1, (i / 251) as u8, (i % 251) as u8);
        let cert = origin_tls::CertificateBuilder::new(name(&host))
            .san(name(&format!("*.svc{}.example", i % 17)))
            .build();
        pool.insert(PooledConnection {
            host: name(&host),
            ip,
            available_set: vec![ip].into(),
            cert: std::sync::Arc::new(cert),
            origin_set: None,
            protocol: origin_web::Protocol::H2,
            partition: PoolPartition::Default,
            bytes_transferred: 0,
            in_flight: 0,
            busy_until: 0.0,
            closed: false,
            quic: false,
        });
    }
    let host = name("new.svc3.example");
    let answer = [v4(192, 0, 2, 1)];
    const OPS: u64 = 2_000;
    ns_per_op(OPS, || {
        (0..OPS)
            .filter(|_| {
                let d = pool.decide(
                    BrowserKind::Chromium,
                    black_box(&host),
                    &answer,
                    PoolPartition::Default,
                    6,
                    0.0,
                    |_| true,
                );
                matches!(d, origin_browser::pool::ReuseDecision::New)
            })
            .count() as u64
    })
}

/// Stub-resolver lookups over 512 names: `(cache hit, cache miss)`.
/// The miss figure includes its share of the cache flush.
fn dns_resolve() -> (f64, f64) {
    let names: Vec<_> = (0..512u32)
        .map(|i| name(&format!("h{i}.zone{}.example", i % 31)))
        .collect();
    let mut zones = ZoneSet::new();
    for (i, n) in names.iter().enumerate() {
        let ip = v4(10, 2, (i / 250) as u8, (i % 250) as u8);
        zones.insert(n.clone(), RecordSet::new(vec![ip], 300));
    }
    let mut resolver = Resolver::new(zones, Transport::Udp53);
    let mut rng = SimRng::seed_from_u64(0xD115);
    let ops = names.len() as u64;
    let mut pass = |resolver: &mut Resolver| {
        names
            .iter()
            .filter_map(|n| resolver.resolve(n, SimTime::ZERO, &mut rng))
            .filter(|a| a.from_cache)
            .count() as u64
    };
    let miss = ns_per_op(ops, || {
        resolver.flush_cache();
        pass(&mut resolver)
    });
    let hit = ns_per_op(ops, || pass(&mut resolver));
    (hit, miss)
}

/// `Certificate::covers` over a 48-SAN certificate: names matched by
/// an exact SAN, by the wildcard, and by nothing, in equal parts.
fn san_match() -> f64 {
    let cert = origin_tls::CertificateBuilder::new(name("www.shop.example"))
        .sans((0..46).map(|i| name(&format!("cdn{i}.shop.example"))))
        .san(name("*.assets.shop.example"))
        .build();
    let queries: Vec<_> = (0..300)
        .map(|i| match i % 3 {
            0 => name(&format!("cdn{}.shop.example", i % 46)),
            1 => name(&format!("img{i}.assets.shop.example")),
            _ => name(&format!("cdn{i}.other.example")),
        })
        .collect();
    ns_per_op(queries.len() as u64, || {
        queries.iter().filter(|q| cert.covers(black_box(q))).count() as u64
    })
}

/// `HostTable::get` over 4,096 interned hostnames.
fn intern_lookup() -> f64 {
    let names: Vec<String> = (0..4_096u32)
        .map(|i| format!("host{i}.svc{}.example", i % 97))
        .collect();
    let mut table = origin_intern::HostTable::new();
    for n in &names {
        table.intern(n);
    }
    ns_per_op(names.len() as u64, || {
        names
            .iter()
            .filter_map(|n| table.get(black_box(n)))
            .map(|id| u64::from(id.0))
            .sum()
    })
}

/// One keep-alive GET cycle on the sans-IO HTTP/1.1 client machine.
fn h1_cycle() -> f64 {
    use origin_h1::{Connection, Event, Request, Response, Role};
    const OPS: u64 = 500;
    ns_per_op(OPS, || {
        let mut conn = Connection::new(Role::Client);
        for _ in 0..OPS {
            conn.send(&Event::Request(Request::get("/a.png", "site-000001.com")))
                .expect("idle client sends a request");
            conn.send(&Event::EndOfMessage).expect("request ends");
            conn.receive(&Event::Response(Response::with_content_length(1_024)))
                .expect("response head follows the request");
            conn.receive(&Event::Data(1_024)).expect("body fits");
            conn.receive(&Event::EndOfMessage).expect("response ends");
            conn.start_next_cycle().expect("keep-alive re-arms");
        }
        conn.cycles_completed()
    })
}

/// `frames.rs::bench_data_stream`: a mixed DATA/PING stream, ns per
/// decoded frame.
fn frame_decode() -> f64 {
    let mut stream = BytesMut::new();
    let mut frames = 0u64;
    for i in 0..32u32 {
        Frame::Data {
            stream: StreamId(2 * i + 1),
            data: Bytes::from(vec![0xAB; 1200]),
            end_stream: i % 4 == 3,
        }
        .encode(&mut stream);
        frames += 1;
        if i % 8 == 0 {
            Frame::Ping {
                ack: false,
                payload: [i as u8; 8],
            }
            .encode(&mut stream);
            frames += 1;
        }
    }
    let wire = stream.freeze();
    let decoder = FrameDecoder::default();
    ns_per_op(frames, || {
        let mut buf = BytesMut::from(&wire[..]);
        let mut n = 0;
        while decoder
            .decode(&mut buf)
            .expect("own frames decode")
            .is_some()
        {
            n += 1;
        }
        n
    })
}

/// `hpack.rs`: a 64-block request stream, ns per header block:
/// `(encode, decode)`.
fn hpack() -> (f64, f64) {
    let blocks: Vec<Vec<Header>> = (0..8)
        .map(|i| {
            vec![
                Header::new(":method", "GET"),
                Header::new(":scheme", "https"),
                Header::new(":authority", "static.example.com"),
                Header::new(":path", &format!("/assets/app-{i}.js?v=12345")),
                Header::new(
                    "user-agent",
                    "Mozilla/5.0 (X11; Linux x86_64; rv:96.0) Gecko/20100101 Firefox/96.0",
                ),
                Header::new("accept", "*/*"),
                Header::new("accept-encoding", "gzip, deflate, br"),
                Header::new("referer", "https://www.example.com/"),
                Header::new("cookie", "session=0123456789abcdef0123456789abcdef"),
            ]
        })
        .collect();
    const OPS: u64 = 64;
    let encode = ns_per_op(OPS, || {
        let mut enc = Encoder::new();
        (0..OPS as usize)
            .map(|i| enc.encode(&blocks[i % 8]).len() as u64)
            .sum()
    });
    let mut enc = Encoder::new();
    let wire: Vec<Vec<u8>> = (0..OPS as usize)
        .map(|i| enc.encode(&blocks[i % 8]))
        .collect();
    let decode = ns_per_op(OPS, || {
        let mut dec = Decoder::new();
        wire.iter()
            .map(|b| dec.decode(b).expect("own blocks decode").len() as u64)
            .sum()
    });
    (encode, decode)
}

/// `frames.rs::bench_connection_exchange`: preface + SETTINGS +
/// ORIGIN + 8 requests through two sans-IO connections, ns per
/// exchange.
fn h2_exchange() -> f64 {
    ns_per_op(1, || {
        let mut client = Connection::client("shop.example", Settings::default());
        let mut server = Connection::server(ServerConfig {
            settings: Settings::default(),
            origin_set: Some(OriginSet::from_hosts([
                "shop.example",
                "cdnjs.cloudflare.com",
            ])),
            authorized: vec![],
        });
        for i in 0..8 {
            client.send_request(
                &request_headers("GET", "shop.example", &format!("/r{i}")),
                true,
            );
        }
        let mut served = 0;
        loop {
            let cb = client.take_outgoing();
            let sb = server.take_outgoing();
            if cb.is_empty() && sb.is_empty() {
                break served;
            }
            if !cb.is_empty() {
                for ev in server.recv(&cb).expect("client bytes are well-formed") {
                    if let origin_h2::Event::Headers { stream, .. } = ev {
                        server.send_response(stream, 200, b"0123456789abcdef");
                        served += 1;
                    }
                }
            }
            if !sb.is_empty() {
                client.recv(&sb).expect("server bytes are well-formed");
            }
        }
    })
}

/// `H3Session::connect` across 16 hosts of one certificate: the first
/// connect runs a full handshake and banks a ticket, the rest resume
/// cross-host, as on an h3 page load.
fn h3_handshake() -> f64 {
    let hosts: Vec<String> = (0..16).map(|i| format!("h{i}.quic.example")).collect();
    let link = LinkProfile::broadband_edge();
    let mut rng = SimRng::seed_from_u64(0x0433);
    const SESSIONS: u64 = 32;
    ns_per_op(SESSIONS * hosts.len() as u64, || {
        let mut zero_rtt = 0;
        for _ in 0..SESSIONS {
            let mut session = origin_h3::H3Session::new();
            for (i, host) in hosts.iter().enumerate() {
                let ip = v4(10, 3, 0, (i % 4) as u8);
                let out = session.connect(host, 77, 4_500, ip, &link, &mut rng);
                zero_rtt += u64::from(out.mode == origin_h3::HandshakeMode::ZeroRtt);
            }
        }
        zero_rtt
    })
}

/// QPACK-encode a request's field section, 64 requests per fresh
/// encoder.
fn qpack_encode() -> f64 {
    use origin_h3::{Field, QpackEncoder};
    let requests: Vec<[Field; 4]> = (0..64)
        .map(|i| {
            [
                Field::new(":method", "GET"),
                Field::new(":scheme", "https"),
                Field::new(":authority", "static.example.com"),
                Field::new(":path", &format!("/assets/app-{}.js", i % 8)),
            ]
        })
        .collect();
    ns_per_op(requests.len() as u64, || {
        let mut enc = QpackEncoder::new();
        requests
            .iter()
            .map(|r| enc.encode(r).section.len() as u64)
            .sum()
    })
}

/// `event_queue.rs::churn_calendar`, 20,000 events: pop one, schedule
/// one or two at bounded offsets.
fn event_queue() -> f64 {
    const EVENTS: u64 = 20_000;
    ns_per_op(EVENTS, || {
        let mut rng = SimRng::seed_from_u64(0xE0E);
        let mut q = EventQueue::new();
        let mut sum = 0u64;
        for i in 0..64u32 {
            q.schedule(SimTime::from_micros(rng.range_u64(0, 5_000)), i);
        }
        let mut id = 64u32;
        while q.processed() < EVENTS {
            let (t, e) = q.next().expect("queue seeded non-empty");
            sum = sum.wrapping_add(t.as_micros()).wrapping_add(u64::from(e));
            let burst = if e % 5 == 0 { 2 } else { 1 };
            for _ in 0..burst {
                let dt = rng.range_u64(0, 3_000);
                q.schedule(SimTime::from_micros(t.as_micros() + dt), id);
                id += 1;
            }
        }
        sum
    })
}

/// Diurnal Poisson arrivals by thinning, ns per arrival.
fn arrivals() -> f64 {
    const OPS: u64 = 20_000;
    ns_per_op(OPS, || {
        let mut process = ArrivalProcess::new(
            SimRng::seed_from_u64(0xA221),
            10.0,
            0.6,
            SimDuration::from_secs(86_400),
        );
        (0..OPS)
            .map(|_| process.next_arrival().as_micros())
            .max()
            .unwrap_or(0)
    })
}

/// `Timeline::record_visit` of a page-load-sized observation.
fn obs_record_visit() -> f64 {
    let mut visit = VisitObs {
        plt_us: 4_800_000,
        plt_ideal_ip_us: 4_700_000,
        plt_ideal_origin_us: 4_100_000,
        requests: 80,
        coalesced_requests: 6,
        connections_opened: 16,
        dns_queries: 14,
        dns_cache_hits: 60,
        dns_cache_misses: 14,
        measured_tls: 16,
        model_ip_tls: 11,
        model_origin_tls: 5,
        ..Default::default()
    };
    visit.handshakes = (0..16).map(|i| (i * 90_000, 120_000, i)).collect();
    visit.bytes = (0..80).map(|i| (i * 50_000, 24_000 + i * 300, i)).collect();
    const OPS: u32 = 1_000;
    ns_per_op(u64::from(OPS), || {
        let mut timeline = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        for rank in 1..=OPS {
            visit.rank = rank;
            timeline.record_visit(black_box(&visit));
        }
        timeline.total_visits()
    })
}

/// `Registry::add` on existing keys (ns per add) and `Registry::merge`
/// of a crawl-shard-sized registry (ns per merge).
fn metrics_registry() -> (f64, f64) {
    let keys: Vec<String> = (0..48)
        .map(|i| format!("layer{}.counter_{i}", i % 6))
        .collect();
    let mut shard = Registry::new();
    for (i, k) in keys.iter().enumerate() {
        shard.add(k, i as u64 + 1);
    }
    for i in 0..200u64 {
        shard.observe(
            "browser.connections_per_page",
            &[0, 1, 2, 4, 8, 16, 32],
            i % 40,
        );
    }
    for phase in [
        "sim.dns",
        "sim.connect",
        "sim.tls",
        "sim.transfer",
        "sim.page",
    ] {
        shard.record_phase_n(phase, 100, SimDuration::from_millis(1_500));
    }
    const ADDS: u64 = 4_800;
    let add = ns_per_op(ADDS, || {
        let mut r = shard.clone();
        for i in 0..ADDS as usize {
            r.add(black_box(&keys[i % keys.len()]), 1);
        }
        r.counter(&keys[0])
    });
    const MERGES: u64 = 16;
    let merge = ns_per_op(MERGES, || {
        let mut total = Registry::new();
        for _ in 0..MERGES {
            total.merge(black_box(&shard));
        }
        total.counter(&keys[0])
    });
    (add, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_measures_something() {
        let mut ledger = BTreeMap::new();
        run_all(&mut ledger);
        assert_eq!(ledger.len(), 17);
        for (name, value) in &ledger {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
            assert!(
                crate::report::PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not in the catalogue"
            );
        }
    }
}
