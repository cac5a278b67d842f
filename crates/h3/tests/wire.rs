//! Golden wire-level tests for the QUIC/h3 building blocks: the
//! handshake modes' stable labels and costs, and QPACK encode/decode
//! down to exact bytes, under eviction too. (The field table itself is
//! `origin_h2`'s; its lookups are checked against a linear-scan oracle
//! in the root `tests/properties.rs`.)

use origin_h3::handshake::{HandshakeMode, QuicCostModel};
use origin_h3::qpack::{Decoder, Encoder, Field};

fn f(name: &str, value: &str) -> Field {
    Field::new(name, value)
}

// ---------------------------------------------------------------- //
// Handshake modes
// ---------------------------------------------------------------- //

#[test]
fn rejected_zero_rtt_falls_back_to_full_handshake() {
    // The rejected shape costs what a full handshake costs.
    let m = QuicCostModel::for_certificate(1_500, false);
    assert_eq!(
        m.round_trips(HandshakeMode::ZeroRttRejected),
        m.round_trips(HandshakeMode::OneRtt)
    );
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
