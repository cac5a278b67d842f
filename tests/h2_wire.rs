//! Cross-crate wire-level integration: the h2 stack, the ORIGIN
//! extension, and the middlebox models operating on real frame bytes.

use bytes::BytesMut;
use respect_origin::h2::conn::{request_headers, status_of, ServerConfig};
use respect_origin::h2::{Connection, Event, Frame, FrameDecoder, OriginSet, Settings};
use respect_origin::netsim::{Middlebox, MiddleboxVerdict};

/// What inspects every frame on the server→client path.
#[derive(Clone, Copy)]
enum OnPath {
    /// One of the modelled middleboxes.
    Device(Middlebox),
    /// A device that silently discards frame types outside the
    /// RFC 7540 core set (0x00–0x09) and forwards the rest.
    Dropper,
}

/// Pump two endpoints to quiescence through `path`. Returns the
/// client's events and whether the middlebox tore the connection down.
fn pump_through(
    client: &mut Connection,
    server: &mut Connection,
    path: OnPath,
) -> (Vec<Event>, bool) {
    let decoder = FrameDecoder::default();
    let mut events = Vec::new();
    loop {
        let c = client.take_outgoing();
        let s = server.take_outgoing();
        if c.is_empty() && s.is_empty() {
            break;
        }
        if !c.is_empty() {
            server.recv(&c).expect("server recv");
        }
        if !s.is_empty() {
            // The middlebox parses the server's bytes frame by frame.
            let mut buf = BytesMut::from(&s[..]);
            let mut forwarded = BytesMut::new();
            while let Ok(Some(frame)) = decoder.decode(&mut buf) {
                let frame_type = frame.frame_type().to_u8();
                match path {
                    OnPath::Dropper if frame_type > 0x09 => {}
                    OnPath::Dropper => frame.encode(&mut forwarded),
                    OnPath::Device(m) => match m.inspect(frame_type) {
                        MiddleboxVerdict::Forward => frame.encode(&mut forwarded),
                        MiddleboxVerdict::TearDown => return (events, true),
                    },
                }
            }
            events.extend(client.recv(&forwarded).expect("client recv"));
        }
    }
    (events, false)
}

fn origin_server() -> Connection {
    Connection::server(ServerConfig {
        settings: Settings::default(),
        origin_set: Some(OriginSet::from_hosts(["a.example", "b.example"])),
        authorized: vec!["a.example".into(), "b.example".into()],
    })
}

#[test]
fn full_request_cycle_through_compliant_path() {
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = origin_server();
    let (events, torn) = pump_through(
        &mut client,
        &mut server,
        OnPath::Device(Middlebox::Compliant),
    );
    assert!(!torn);
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::OriginReceived { .. })));
    assert!(client.origin_allows("b.example"));

    // Coalesced request round trip.
    let stream = client.send_request(&request_headers("GET", "b.example", "/x.js"), true);
    // Serve manually.
    loop {
        let c = client.take_outgoing();
        if c.is_empty() {
            break;
        }
        for ev in server.recv(&c).unwrap() {
            if let Event::Headers { stream, .. } = ev {
                server.send_response(stream, 200, b"body");
            }
        }
    }
    let (events, torn) = pump_through(
        &mut client,
        &mut server,
        OnPath::Device(Middlebox::Compliant),
    );
    assert!(!torn);
    let status = events
        .iter()
        .find_map(|e| match e {
            Event::Headers {
                stream: s, headers, ..
            } if *s == stream => status_of(headers),
            _ => None,
        })
        .expect("response");
    assert_eq!(status, 200);
}

#[test]
fn non_compliant_middlebox_kills_origin_enabled_connections() {
    // The §6.7 incident, on real bytes: the buggy agent sees the
    // ORIGIN frame type and tears the connection down.
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = origin_server();
    let buggy = OnPath::Device(Middlebox::NonCompliant);
    let (_, torn) = pump_through(&mut client, &mut server, buggy);
    assert!(torn, "ORIGIN frame must trigger the §6.7 teardown");

    // Without ORIGIN frames the same path works.
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = Connection::server(ServerConfig {
        settings: Settings::default(),
        origin_set: None,
        authorized: vec!["a.example".into()],
    });
    let (_, torn) = pump_through(&mut client, &mut server, buggy);
    assert!(!torn, "no unknown frames → the buggy agent stays quiet");
}

#[test]
fn client_fails_open_when_origin_frame_dropped() {
    // A middlebox that silently drops unknown frames instead of
    // tearing down: the client never learns the origin set and simply
    // doesn't coalesce — the spec's fail-open outcome.
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = origin_server();
    let (events, torn) = pump_through(&mut client, &mut server, OnPath::Dropper);
    assert!(!torn);
    assert!(!events
        .iter()
        .any(|e| matches!(e, Event::OriginReceived { .. })));
    assert!(!client.origin_allows("b.example"));
    assert!(
        client.origin_allows("a.example"),
        "connected origin still implicit"
    );
}

#[test]
fn hand_crafted_origin_frame_bytes_match_rfc_layout() {
    // RFC 8336 §2: each entry is a 16-bit length + ASCII origin.
    let set = OriginSet::from_hosts(["x.example"]);
    let wire = set.to_frame().to_bytes();
    // 9-byte header: length 2+17=19, type 0x0c, flags 0, stream 0.
    assert_eq!(
        &wire[..9],
        &[0x00, 0x00, 0x13, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00]
    );
    // Entry: len 17, "https://x.example".
    assert_eq!(&wire[9..11], &[0x00, 0x11]);
    assert_eq!(&wire[11..], b"https://x.example");
}

#[test]
fn frame_decoder_resyncs_across_many_frames() {
    // Interleave every frame type and replay the stream byte by byte.
    let mut all = BytesMut::new();
    Frame::Settings {
        ack: false,
        params: vec![(0x4, 1 << 20)],
    }
    .encode(&mut all);
    OriginSet::from_hosts(["a.example"])
        .to_frame()
        .encode(&mut all);
    Frame::Ping {
        ack: false,
        payload: [7; 8],
    }
    .encode(&mut all);
    Frame::WindowUpdate {
        stream: respect_origin::h2::StreamId(0),
        increment: 100,
    }
    .encode(&mut all);
    let decoder = FrameDecoder::default();
    let mut buf = BytesMut::new();
    let mut decoded = 0;
    for &b in all.iter() {
        buf.extend_from_slice(&[b]);
        while let Some(_f) = decoder.decode(&mut buf).expect("no decode error") {
            decoded += 1;
        }
    }
    assert_eq!(decoded, 4);
}
