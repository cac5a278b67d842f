//! Drive two sans-IO h2 endpoints over the discrete-event simulator:
//! bytes travel as timed events across a latency link, so handshake
//! and request timings come out of the event clock — the full
//! smoltcp-style composition the stack is designed for.

use respect_origin::h2::conn::{request_headers, status_of, ServerConfig};
use respect_origin::h2::{Connection, Event as H2Event, OriginSet, Settings};
use respect_origin::netsim::{EventQueue, SimDuration, SimTime};

/// A byte batch in flight in one direction.
#[derive(Debug)]
enum WireEvent {
    ToServer(Vec<u8>),
    ToClient(Vec<u8>),
}

/// Run both endpoints over a symmetric `rtt/2` one-way delay until
/// quiescence; returns the client's protocol events, each stamped with
/// its arrival time.
fn run_over_wire(
    client: &mut Connection,
    server: &mut Connection,
    one_way: SimDuration,
) -> Vec<(SimTime, H2Event)> {
    let mut q: EventQueue<WireEvent> = EventQueue::new();
    let mut client_events = Vec::new();
    // Initial flights.
    let first = client.take_outgoing();
    if !first.is_empty() {
        q.schedule(q.now() + one_way, WireEvent::ToServer(first.to_vec()));
    }
    let first = server.take_outgoing();
    if !first.is_empty() {
        q.schedule(q.now() + one_way, WireEvent::ToClient(first.to_vec()));
    }
    while let Some((now, ev)) = q.next() {
        assert!(q.processed() <= 10_000, "the endpoints never went quiet");
        match ev {
            WireEvent::ToServer(bytes) => {
                for e in server.recv(&bytes).expect("server recv") {
                    // The test server answers requests immediately.
                    if let H2Event::Headers { stream, .. } = e {
                        server.send_response(stream, 200, b"simulated");
                    }
                }
                let out = server.take_outgoing();
                if !out.is_empty() {
                    q.schedule(now + one_way, WireEvent::ToClient(out.to_vec()));
                }
            }
            WireEvent::ToClient(bytes) => {
                for e in client.recv(&bytes).expect("client recv") {
                    client_events.push((now, e));
                }
                let out = client.take_outgoing();
                if !out.is_empty() {
                    q.schedule(now + one_way, WireEvent::ToServer(out.to_vec()));
                }
            }
        }
    }
    client_events
}

#[test]
fn origin_frame_arrives_one_rtt_after_connect() {
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = Connection::server(ServerConfig {
        settings: Settings::default(),
        origin_set: Some(OriginSet::from_hosts(["a.example", "b.example"])),
        authorized: vec![],
    });
    let one_way = SimDuration::from_millis(25);
    let events = run_over_wire(&mut client, &mut server, one_way);
    let (t, _) = events
        .iter()
        .find(|(_, e)| matches!(e, H2Event::OriginReceived { .. }))
        .expect("ORIGIN frame over the wire");
    // The server speaks first after its preface validation: its
    // SETTINGS+ORIGIN flight arrives exactly one one-way delay in.
    assert_eq!(*t, SimTime::ZERO + one_way);
    assert!(client.origin_allows("b.example"));
}

#[test]
fn request_response_takes_one_rtt() {
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = Connection::server(ServerConfig::default());
    let one_way = SimDuration::from_millis(30);
    // Settle the handshake.
    run_over_wire(&mut client, &mut server, one_way);
    // Now issue a request and measure the response delay.
    client.send_request(&request_headers("GET", "a.example", "/"), true);
    let events = run_over_wire(&mut client, &mut server, one_way);
    let (t, e) = events
        .iter()
        .find(|(_, e)| matches!(e, H2Event::Headers { .. }))
        .expect("response headers");
    if let H2Event::Headers { headers, .. } = e {
        assert_eq!(status_of(headers), Some(200));
    }
    // Request out (one way) + response back (one way) = 1 RTT.
    assert_eq!(*t, SimTime::ZERO + one_way.times(2));
}

#[test]
fn pipelined_requests_share_the_connection_and_the_rtt() {
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = Connection::server(ServerConfig::default());
    let one_way = SimDuration::from_millis(40);
    run_over_wire(&mut client, &mut server, one_way);
    // Eight multiplexed requests leave in one flight…
    for i in 0..8 {
        client.send_request(&request_headers("GET", "a.example", &format!("/{i}")), true);
    }
    let events = run_over_wire(&mut client, &mut server, one_way);
    let response_times: Vec<SimTime> = events
        .iter()
        .filter(|(_, e)| matches!(e, H2Event::Headers { .. }))
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(response_times.len(), 8);
    // …and all responses arrive in the same flight: one RTT total for
    // the whole batch — the multiplexing payoff coalescing protects.
    for t in &response_times {
        assert_eq!(*t, SimTime::ZERO + one_way.times(2));
    }
    assert_eq!(client.streams_opened(), 8);
}
