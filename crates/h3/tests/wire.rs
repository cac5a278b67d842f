//! Golden wire-level tests for the QUIC/h3 building blocks: the
//! handshake state machine (every legal 1-RTT/0-RTT transition and the
//! rejected-0-RTT fallback), connection-ID issuance/retirement, and
//! QPACK encode/decode down to exact bytes, under eviction too. (The
//! field table itself is `origin_h2`'s; its lookups are checked
//! against a linear-scan oracle in the root `tests/properties.rs`.)

use origin_h3::cid::{CidError, ConnectionIdRegistry};
use origin_h3::handshake::{HandshakeMode, HandshakeState, QuicCostModel, QuicHandshake};
use origin_h3::qpack::{Decoder, Encoder, Field};

fn f(name: &str, value: &str) -> Field {
    Field::new(name, value)
}

// ---------------------------------------------------------------- //
// Handshake state machine
// ---------------------------------------------------------------- //

#[test]
fn one_rtt_walks_initial_handshaking_established() {
    let mut hs = QuicHandshake::new();
    assert_eq!(hs.state(), HandshakeState::Initial);
    hs.send_initial().unwrap();
    assert_eq!(hs.state(), HandshakeState::Handshaking);
    assert_eq!(hs.confirm().unwrap(), HandshakeMode::OneRtt);
    assert_eq!(hs.state(), HandshakeState::Established);
}

#[test]
fn zero_rtt_walks_initial_zero_rtt_sent_established() {
    let mut hs = QuicHandshake::new();
    hs.send_zero_rtt().unwrap();
    assert_eq!(hs.state(), HandshakeState::ZeroRttSent);
    assert_eq!(hs.confirm().unwrap(), HandshakeMode::ZeroRtt);
    assert_eq!(hs.state(), HandshakeState::Established);
}

#[test]
fn rejected_zero_rtt_falls_back_to_full_handshake() {
    let mut hs = QuicHandshake::new();
    hs.send_zero_rtt().unwrap();
    hs.reject_zero_rtt().unwrap();
    // The connection is not dead — it is mid full handshake.
    assert_eq!(hs.state(), HandshakeState::Handshaking);
    assert_eq!(hs.confirm().unwrap(), HandshakeMode::ZeroRttRejected);
    // And the rejected shape costs what a full handshake costs.
    let m = QuicCostModel::for_certificate(1_500, false);
    assert_eq!(
        m.round_trips(HandshakeMode::ZeroRttRejected),
        m.round_trips(HandshakeMode::OneRtt)
    );
}

#[test]
fn illegal_transitions_error_instead_of_panicking() {
    let mut hs = QuicHandshake::new();
    // Cannot confirm or reject before sending anything.
    assert!(hs.confirm().is_err());
    assert!(hs.reject_zero_rtt().is_err());
    hs.send_initial().unwrap();
    // Cannot send again, and cannot reject 0-RTT that was never sent.
    assert!(hs.send_initial().is_err());
    assert!(hs.send_zero_rtt().is_err());
    assert!(hs.reject_zero_rtt().is_err());
    hs.confirm().unwrap();
    assert!(hs.confirm().is_err());
}

#[test]
fn handshake_mode_labels_are_stable() {
    // Trace/report vocabulary — changing these breaks committed
    // artifacts.
    assert_eq!(HandshakeMode::OneRtt.label(), "1-rtt");
    assert_eq!(HandshakeMode::ZeroRtt.label(), "0-rtt");
    assert_eq!(HandshakeMode::ZeroRttRejected.label(), "0-rtt-rejected");
}

// ---------------------------------------------------------------- //
// Connection IDs
// ---------------------------------------------------------------- //

#[test]
fn cid_issuance_respects_the_active_limit() {
    let mut r = ConnectionIdRegistry::new(2);
    // Sequence 0 exists from the handshake.
    assert_eq!(r.active(), &[0]);
    assert_eq!(r.issue().unwrap(), 1);
    assert_eq!(r.issue(), Err(CidError::LimitExceeded));
    assert_eq!(r.active(), &[0, 1]);
}

#[test]
fn cid_retirement_is_permanent_and_checked() {
    let mut r = ConnectionIdRegistry::new(2);
    r.issue().unwrap();
    r.retire(0).unwrap();
    // A retired sequence number never comes back.
    assert_eq!(r.retire(0), Err(CidError::UnknownSequence(0)));
    assert_eq!(r.active(), &[1]);
    assert_eq!(r.issued(), 2);
    assert_eq!(r.retired(), 1);
}

#[test]
fn cid_rotation_at_the_limit_retires_first() {
    let mut r = ConnectionIdRegistry::new(2);
    r.issue().unwrap(); // at limit: [0, 1]
    let (old, new) = r.rotate().unwrap();
    assert_eq!((old, new), (0, 2));
    assert_eq!(r.active(), &[1, 2]);
    // Below the limit the fresh ID is issued before the retirement,
    // so the connection never momentarily holds zero IDs.
    let mut r = ConnectionIdRegistry::new(4);
    let (old, new) = r.rotate().unwrap();
    assert_eq!((old, new), (0, 1));
    assert_eq!(r.active(), &[1]);
}

// ---------------------------------------------------------------- //
// QPACK: golden bytes
// ---------------------------------------------------------------- //

#[test]
fn static_only_request_has_no_instructions_and_golden_section() {
    let mut enc = Encoder::new();
    let out = enc.encode(&[
        f(":method", "GET"),
        f(":scheme", "https"),
        f(":path", "/"),
        f("accept", "*/*"),
    ]);
    assert!(out.instructions.is_empty());
    // Prefix: Required Insert Count 0, Delta Base 0; then four
    // indexed-static lines (0b11xxxxxx | index).
    assert_eq!(out.section, vec![0x00, 0x00, 0xd1, 0xd7, 0xc1, 0xdd]);
    assert_eq!(enc.instructions(), 0);
}

#[test]
fn authority_inserts_once_then_rides_the_dynamic_table() {
    let mut enc = Encoder::new();
    let fields = [
        f(":method", "GET"),
        f(":scheme", "https"),
        f(":authority", "x.y"),
        f(":path", "/"),
    ];
    let first = enc.encode(&fields);
    // One encoder-stream instruction: insert-with-name-reference to
    // static index 0 (:authority), value "x.y" raw.
    assert_eq!(first.instructions, vec![0xc0, 0x03, b'x', b'.', b'y']);
    // Section: RIC = 1 encoded as 2, Delta Base 0, then GET / https
    // static, the dynamic reference (relative 0), and :path static.
    assert_eq!(first.section, vec![0x02, 0x00, 0xd1, 0xd7, 0x80, 0xc1]);

    // The second identical request needs no instructions and produces
    // the identical section — the table state is settled.
    let second = enc.encode(&fields);
    assert!(second.instructions.is_empty());
    assert_eq!(second.section, first.section);
    assert_eq!(enc.instructions(), 1);

    // And the decoder round-trips both from the wire bytes alone.
    let mut dec = Decoder::new();
    dec.apply_instructions(&first.instructions).unwrap();
    assert_eq!(dec.decode(&first.section).unwrap(), fields);
    assert_eq!(dec.decode(&second.section).unwrap(), fields);
}

#[test]
fn unknown_name_uses_a_literal_name_insert() {
    let mut enc = Encoder::new();
    let out = enc.encode(&[f("x-custom", "v")]);
    // Insert with literal name: 0b01H nnnnn (len 8 fits 5 bits), the
    // name, then the raw value.
    let mut want = vec![0x40 | 8];
    want.extend_from_slice(b"x-custom");
    want.extend_from_slice(&[0x01, b'v']);
    assert_eq!(out.instructions, want);
    let mut dec = Decoder::new();
    dec.apply_instructions(&out.instructions).unwrap();
    assert_eq!(dec.decode(&out.section).unwrap(), vec![f("x-custom", "v")]);
}

#[test]
fn oversized_field_falls_back_to_a_section_literal() {
    // A field larger than the entire table is refused by the dynamic
    // table (QPACK has no HPACK-style whole-table clear) and travels
    // as a literal field line instead.
    let mut enc = Encoder::with_table_size(64);
    let big = "v".repeat(64);
    let out = enc.encode(&[f("x-big", &big)]);
    assert!(out.instructions.is_empty());
    assert_eq!(enc.table_size(), 0);
    let mut dec = Decoder::with_table_size(64);
    assert_eq!(dec.decode(&out.section).unwrap(), vec![f("x-big", &big)]);
}

#[test]
fn intra_request_eviction_demotes_dead_references_to_literals() {
    // One-slot table (each entry is 2+1+32 = 35 octets), three
    // distinct fields in one request: each insert evicts its
    // predecessor, so the first two section lines must travel as
    // literals rather than referencing evicted entries.
    let mut enc = Encoder::with_table_size(68);
    let fields = [f("aa", "1"), f("bb", "2"), f("cc", "3")];
    let out = enc.encode(&fields);
    let mut dec = Decoder::with_table_size(68);
    dec.apply_instructions(&out.instructions).unwrap();
    assert_eq!(dec.decode(&out.section).unwrap(), fields);
    assert_eq!(enc.evictions(), 2);
}

#[test]
fn round_trip_survives_many_requests_with_shared_state() {
    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    for i in 0..100 {
        let fields = [
            f(":method", "GET"),
            f(":scheme", "https"),
            f(
                ":authority",
                if i % 3 == 0 { "a.example" } else { "b.example" },
            ),
            f(":path", &format!("/asset/{}", i % 7)),
        ];
        let out = enc.encode(&fields);
        dec.apply_instructions(&out.instructions).unwrap();
        assert_eq!(dec.decode(&out.section).unwrap(), fields, "request {i}");
    }
    // Steady state: names and the recurring paths are table hits, so
    // instruction volume converges (2 authorities + 7 paths).
    assert_eq!(enc.instructions(), 9);
}

#[test]
fn three_request_sequence_has_golden_bytes_on_both_streams() {
    // Every representation either stream can carry, at a table that
    // holds one entry (64 octets): expected bytes recorded from the
    // encoder before the field table moved into `origin_h2`.
    let mut enc = Encoder::with_table_size(64);
    let mut dec = Decoder::with_table_size(64);
    let cookie = "c".repeat(40);
    let mut step = |fields: &[Field], instructions: &[u8], section: &[u8]| {
        let out = enc.encode(fields);
        assert_eq!(out.instructions, instructions);
        assert_eq!(out.section, section);
        dec.apply_instructions(&out.instructions).unwrap();
        assert_eq!(dec.decode(&out.section).unwrap(), fields);
    };

    // 1: three static hits; `:authority` inserts with a static name
    // reference (index 0) and is referenced back at relative index 0.
    let get = [
        f(":method", "GET"),
        f(":scheme", "https"),
        f(":authority", "a.example"),
        f(":path", "/"),
    ];
    let mut insert_a = vec![0xc0, 0x09];
    insert_a.extend_from_slice(b"a.example");
    step(&get, &insert_a, &[0x02, 0x00, 0xd1, 0xd7, 0x80, 0xc1]);

    // 2: the authority is now a dynamic hit — no instructions — and a
    // 78-octet cookie is refused by the 64-octet table: a literal
    // field line (001 N H + 3-bit name length), nothing inserted.
    let mut with_cookie = get.to_vec();
    with_cookie.push(f("cookie", &cookie));
    let mut section = vec![0x02, 0x00, 0xd1, 0xd7, 0x80, 0xc1, 0x26];
    section.extend_from_slice(b"cookie");
    section.push(0x28);
    section.extend_from_slice(cookie.as_bytes());
    step(&with_cookie, &[], &section);

    // 3: three inserts, each evicting its predecessor — static name
    // reference, literal name, dynamic name reference (relative 0) —
    // so only the last survives to be referenced; the first two
    // travel as literals (`:authority` needs a two-octet 3-bit-prefix
    // length: 7 + 3). Required Insert Count 4 encodes as 5.
    let rotate = [
        f(":method", "GET"),
        f(":authority", "b.example"),
        f("x-a", "1"),
        f("x-a", "2"),
    ];
    let mut instructions = vec![0xc0, 0x09];
    instructions.extend_from_slice(b"b.example");
    instructions.extend_from_slice(&[0x43, b'x', b'-', b'a', 0x01, b'1']);
    instructions.extend_from_slice(&[0x80, 0x01, b'2']);
    let mut section = vec![0x05, 0x00, 0xd1, 0x27, 0x03];
    section.extend_from_slice(b":authority");
    section.push(0x09);
    section.extend_from_slice(b"b.example");
    section.extend_from_slice(&[0x23, b'x', b'-', b'a', 0x01, b'1', 0x80]);
    step(&rotate, &instructions, &section);

    assert_eq!((enc.instructions(), enc.evictions()), (4, 3));
    assert_eq!((dec.insert_count(), dec.evictions()), (4, 3));
    assert_eq!(enc.table_size(), 36);
}

// ---------------------------------------------------------------- //
// QPACK: eviction
// ---------------------------------------------------------------- //

#[test]
fn eviction_keeps_encoder_and_decoder_in_lockstep() {
    // 68 octets fit exactly two 34-octet entries — the same capacity
    // the h2 hpack eviction tests pin. Streaming many distinct fields
    // through forces continuous eviction on both ends.
    let mut enc = Encoder::with_table_size(68);
    let mut dec = Decoder::with_table_size(68);
    for i in 0..26 {
        let name = ((b'a' + i) as char).to_string();
        let fields = [f(&name, "1")];
        let out = enc.encode(&fields);
        dec.apply_instructions(&out.instructions).unwrap();
        assert_eq!(dec.decode(&out.section).unwrap(), fields);
    }
    // 26 inserts into a 2-slot table: 24 evictions, mirrored exactly.
    assert_eq!(enc.evictions(), 24);
    assert_eq!(dec.evictions(), 24);
    assert_eq!(dec.insert_count(), 26);
}
