//! Property-style tests over the core data structures and protocol
//! invariants.
//!
//! Formerly proptest-based; rewritten as seeded [`SimRng`]-driven fuzz
//! loops so the workspace carries no external test dependency and
//! every run exercises the exact same cases.

use bytes::BytesMut;
use respect_origin::dns::DnsName;
use respect_origin::h2::hpack::huffman;
use respect_origin::h2::hpack::table::{self, DynamicTable, Entry, StaticIndex, TableRef};
use respect_origin::h2::hpack::{Decoder, Encoder, Header};
use respect_origin::h2::{Frame, FrameDecoder};
use respect_origin::h3::{qpack, Field, QpackDecoder, QpackEncoder};
use respect_origin::netsim::SimRng;
use respect_origin::tls::{covers, CertificateBuilder};

// ---- generators ----

fn rand_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let n = rng.index(max_len + 1);
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

/// `[a-z]{min..=max}`.
fn rand_lower(rng: &mut SimRng, min: usize, max: usize) -> String {
    let n = rng.range_u64(min as u64, max as u64 + 1) as usize;
    (0..n)
        .map(|_| (b'a' + rng.index(26) as u8) as char)
        .collect()
}

/// `[a-z][a-z0-9-]{0..=tail_max}` — an HPACK-ish header name.
fn rand_header_name(rng: &mut SimRng, tail_max: usize) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push((b'a' + rng.index(26) as u8) as char);
    for _ in 0..rng.index(tail_max + 1) {
        s.push(*rng.choose(TAIL) as char);
    }
    s
}

/// Printable ASCII `[ -~]{0..=max}`.
fn rand_printable(rng: &mut SimRng, max: usize) -> String {
    let n = rng.index(max + 1);
    (0..n)
        .map(|_| (b' ' + rng.index(95) as u8) as char)
        .collect()
}

/// Arbitrary non-control characters (ASCII + some unicode), length
/// `0..=max` — the `\PC{0,64}`-style never-panic inputs.
fn rand_weird(rng: &mut SimRng, max: usize) -> String {
    let n = rng.index(max + 1);
    (0..n)
        .map(|_| loop {
            let c = match rng.index(4) {
                0 => char::from(b' ' + rng.index(95) as u8),
                1 => *rng.choose(&['.', '-', '*', '_', ':', '/', '@']),
                _ => match char::from_u32(rng.range_u64(0x20, 0x2_FFFF) as u32) {
                    Some(c) if !c.is_control() => c,
                    _ => continue,
                },
            };
            break c;
        })
        .collect()
}

fn rand_hostname(rng: &mut SimRng) -> String {
    format!("{}.{}", rand_lower(rng, 1, 12), rand_lower(rng, 2, 6))
}

// ---- Huffman ----

#[test]
fn huffman_roundtrips_any_bytes() {
    let mut rng = SimRng::seed_from_u64(0x48554646);
    for _ in 0..256 {
        let data = rand_bytes(&mut rng, 512);
        let mut enc = Vec::new();
        huffman::encode(&data, &mut enc);
        let dec = huffman::decode(&enc).expect("self-encoded data decodes");
        assert_eq!(dec, data);
    }
}

#[test]
fn huffman_never_expands_past_bound() {
    let mut rng = SimRng::seed_from_u64(0x424F554E);
    for _ in 0..256 {
        let data = rand_bytes(&mut rng, 256);
        // Worst-case code is 30 bits per symbol.
        let mut enc = Vec::new();
        huffman::encode(&data, &mut enc);
        assert!(enc.len() <= data.len() * 30 / 8 + 1);
        assert_eq!(huffman::encoded_len(&data), enc.len());
    }
}

#[test]
fn huffman_decode_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x4E4F5041);
    for _ in 0..512 {
        // Arbitrary bytes may fail to decode, but must never panic.
        let _ = huffman::decode(&rand_bytes(&mut rng, 256));
    }
}

// ---- HPACK and QPACK: one field table, one sweep ----

/// Dynamic-table capacities the sweeps run at: no table, one entry,
/// three minimal (34-octet) entries, the default.
const TABLE_SIZES: [usize; 4] = [0, 64, 102, 4096];

fn rand_header(rng: &mut SimRng) -> Header {
    Header {
        name: rand_header_name(rng, 24),
        value: rand_printable(rng, 48),
        sensitive: rng.chance(0.5),
    }
}

/// A (name, value) drawn from small pools, so streams hit the static
/// tables, re-reference and evict dynamic entries, and now and then
/// carry a value no small table accepts.
fn rand_pooled_field(rng: &mut SimRng) -> (String, String) {
    const NAMES: [&str; 8] = [
        ":method",
        ":authority",
        "cookie",
        "accept",
        "x-a",
        "x-b",
        "x-c",
        "x-request-id",
    ];
    let value = match rng.index(4) {
        0 => (*rng.choose(&["GET", "*/*", "", "1", "2"])).to_string(),
        1 => rand_printable(rng, 80),
        _ => rand_lower(rng, 1, 3),
    };
    ((*rng.choose(&NAMES)).to_string(), value)
}

/// Hostile inputs derived from one valid encoding: the mutator both
/// decoders' never-panic sweeps share. Random bytes; the encoding with
/// a byte flipped; truncated; and with an integer inflated to the
/// 62-bit cap at a random offset (all prefix bits set, then nine
/// continuation octets — the largest integer QPACK accepts and far
/// past HPACK's limit; on a length prefix it promises ~2^63 octets).
fn hostile_variants(rng: &mut SimRng, valid: &[u8]) -> Vec<Vec<u8>> {
    let mut out = vec![rand_bytes(rng, 256)];
    if valid.is_empty() {
        return out;
    }
    let mut flipped = valid.to_vec();
    flipped[rng.index(valid.len())] ^= 1 << rng.index(8);
    out.push(flipped);
    out.push(valid[..rng.index(valid.len())].to_vec());
    let at = rng.index(valid.len());
    let mut inflated = valid[..=at].to_vec();
    inflated[at] |= 0x7f;
    inflated.extend_from_slice(&[0xff; 8]);
    inflated.push(0x7f);
    inflated.extend_from_slice(&valid[at + 1..]);
    out.push(inflated);
    out
}

#[test]
fn hpack_roundtrips_header_lists() {
    let mut rng = SimRng::seed_from_u64(0x48504B31);
    for _ in 0..64 {
        let headers: Vec<Header> = (0..rng.index(24)).map(|_| rand_header(&mut rng)).collect();
        let mut enc = Encoder::new();
        enc.use_huffman = rng.chance(0.5);
        let mut dec = Decoder::new();
        let block = enc.encode(&headers);
        let out = dec.decode(&block).expect("self-encoded block decodes");
        assert_eq!(out, headers);
    }
}

/// One HPACK encoder/decoder pair per (round, table size) across many
/// blocks: `body` sees every valid block after the in-sync decoder
/// returned exactly the headers that went in.
fn hpack_streams(seed: u64, mut body: impl FnMut(&mut SimRng, &[u8])) {
    let mut rng = SimRng::seed_from_u64(seed);
    for round in 0..32 {
        for size in TABLE_SIZES {
            let mut enc = Encoder::new();
            let mut dec = Decoder::new();
            enc.use_huffman = rng.chance(0.5);
            enc.set_max_table_size(size);
            for _ in 0..rng.range_u64(1, 8) {
                let headers: Vec<Header> = (0..rng.index(8))
                    .map(|_| {
                        if round % 2 == 0 {
                            rand_header(&mut rng)
                        } else {
                            let (name, value) = rand_pooled_field(&mut rng);
                            Header::new(&name, &value)
                        }
                    })
                    .collect();
                let block = enc.encode(&headers);
                let out = dec.decode(&block).expect("stream stays in sync");
                assert_eq!(out, headers, "table size {size}");
                assert_eq!(dec.table_size(), enc.table_size());
                assert!(enc.table_size() <= size);
                body(&mut rng, &block);
            }
            assert_eq!(dec.evictions(), enc.evictions(), "table size {size}");
        }
    }
}

#[test]
fn hpack_stateful_stream_roundtrips() {
    hpack_streams(0x48504B32, |_, _| {});
}

#[test]
fn hpack_decoder_never_panics() {
    // A decoder that keeps whatever state the hostile input left it
    // in: later variants meet a populated, possibly resized table.
    let mut victim = Decoder::new();
    hpack_streams(0x48504B33, |rng, block| {
        for bytes in hostile_variants(rng, block) {
            let _ = victim.decode(&bytes);
        }
    });
}

/// The QPACK twin of [`hpack_streams`]: `body` sees each request's
/// valid encoder-stream bytes and field section.
fn qpack_streams(seed: u64, mut body: impl FnMut(&mut SimRng, usize, &[u8], &[u8])) {
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..32 {
        for size in TABLE_SIZES {
            let mut enc = QpackEncoder::with_table_size(size);
            let mut dec = QpackDecoder::with_table_size(size);
            for _ in 0..rng.range_u64(1, 8) {
                let fields: Vec<Field> = (0..rng.index(8))
                    .map(|_| {
                        let (name, value) = rand_pooled_field(&mut rng);
                        Field::new(&name, &value)
                    })
                    .collect();
                let out = enc.encode(&fields);
                dec.apply_instructions(&out.instructions)
                    .expect("own instructions apply");
                let got = dec.decode(&out.section).expect("stream stays in sync");
                assert_eq!(got, fields, "table size {size}");
                assert_eq!(dec.insert_count(), enc.instructions());
                assert!(enc.table_size() <= size);
                body(&mut rng, size, &out.instructions, &out.section);
            }
            assert_eq!(dec.evictions(), enc.evictions(), "table size {size}");
        }
    }
}

#[test]
fn qpack_stateful_stream_roundtrips() {
    qpack_streams(0x51504B32, |_, _, _, _| {});
}

#[test]
fn qpack_decoder_never_panics() {
    qpack_streams(0x51504B33, |rng, size, instructions, section| {
        // Fresh victims at the stream's table size, warmed with the
        // valid instructions so hostile sections meet live entries.
        let mut victim = QpackDecoder::with_table_size(size);
        let _ = victim.apply_instructions(instructions);
        for bytes in hostile_variants(rng, section) {
            let _ = victim.decode(&bytes);
        }
        for bytes in hostile_variants(rng, instructions) {
            let _ = victim.apply_instructions(&bytes);
            let _ = victim.decode(section);
        }
    });
}

/// The borrowed encoder is the owned one: over field values that are
/// hostile bytes (whatever of a mutated encoding is still UTF-8, so
/// control characters, prefix-integer octets and the odd multi-byte
/// sequence among them), `encode_into` over `(&str, &str)` pairs into
/// a reused buffer emits the two streams `encode` over `Field`s does,
/// both encoders evict alike, and the comparing decode accepts exactly
/// what the materialising one returns.
#[test]
fn qpack_borrowed_encode_equals_owned() {
    qpack_streams(0x51504B34, |rng, size, instructions, section| {
        let mut values: Vec<String> = hostile_variants(rng, section)
            .into_iter()
            .chain(hostile_variants(rng, instructions))
            .map(|bytes| String::from_utf8_lossy(&bytes[..bytes.len().min(60)]).into_owned())
            .collect();
        values.push(String::new());
        let mut owned = QpackEncoder::with_table_size(size);
        let mut borrowed = QpackEncoder::with_table_size(size);
        let mut dec = QpackDecoder::with_table_size(size);
        let mut wire = qpack::EncodedRequest::default();
        for _ in 0..6 {
            let pairs: Vec<(&str, &str)> = (0..rng.index(6))
                .map(|_| {
                    let name = *rng.choose(&[":path", ":authority", "x-a", "cookie"]);
                    (name, rng.choose(&values).as_str())
                })
                .collect();
            let fields: Vec<Field> = pairs.iter().map(|(n, v)| Field::new(n, v)).collect();
            borrowed.encode_into(&pairs, &mut wire);
            assert_eq!(wire, owned.encode(&fields), "table size {size}");
            assert_eq!(borrowed.evictions(), owned.evictions());
            assert_eq!(borrowed.table_size(), owned.table_size());
            dec.apply_instructions(&wire.instructions).expect("in sync");
            assert_eq!(dec.decode(&wire.section).as_ref(), Ok(&fields));
            assert_eq!(dec.decode_expecting(&wire.section, &pairs), Ok(()));
            assert_eq!(dec.decode_expecting(&wire.section, &fields), Ok(()));
        }
    });
}

/// Linear-scan model of the dynamic table: live entries oldest first,
/// each with its absolute index.
#[derive(Default)]
struct TableOracle {
    live: Vec<(u64, Entry)>,
    max_size: usize,
    inserted: u64,
    dropped: u64,
}

impl TableOracle {
    fn size(&self) -> usize {
        self.live.iter().map(|(_, e)| e.size()).sum()
    }

    fn evict(&mut self) {
        while self.size() > self.max_size {
            self.live.remove(0);
            self.dropped += 1;
        }
    }

    fn insert(&mut self, e: Entry) -> Option<u64> {
        if e.size() > self.max_size {
            return None;
        }
        self.live.push((self.inserted, e));
        self.inserted += 1;
        self.evict();
        Some(self.inserted - 1)
    }

    /// Most recent live entry matching `name` (and `value`, if given).
    fn scan(&self, name: &str, value: Option<&str>) -> Option<u64> {
        self.live
            .iter()
            .rev()
            .find(|(_, e)| e.name == name && value.is_none_or(|v| e.value == v))
            .map(|&(abs, _)| abs)
    }
}

type StaticTable = &'static [(&'static str, &'static str)];

/// First-occurrence scan of a static table, as a wire index.
fn scan_static(
    statics: StaticTable,
    base: usize,
    name: &str,
    value: Option<&str>,
) -> Option<usize> {
    statics
        .iter()
        .position(|&(n, v)| n == name && value.is_none_or(|want| v == want))
        .map(|i| i + base)
}

#[test]
fn field_table_views_agree_with_a_linear_scan() {
    // One table, two address spaces: QPACK's absolute indices and
    // HPACK's most-recent-first positions must describe the same
    // entries, and the hashed lookups must agree with a linear scan
    // of both static tables and of the live entries — while inserts
    // continuously evict, capacities change, and after clear().
    let qpack_index = StaticIndex::new(&qpack::STATIC_TABLE, 0);
    let codecs: [(&StaticIndex, StaticTable, usize); 2] = [
        (&table::STATIC_INDEX, &table::STATIC_TABLE, 1),
        (&qpack_index, &qpack::STATIC_TABLE, 0),
    ];
    let check = |t: &DynamicTable, o: &TableOracle| {
        assert_eq!(t.len(), o.live.len());
        assert_eq!(t.size(), o.size());
        assert_eq!(t.insert_count(), o.inserted);
        assert_eq!(t.evictions(), o.dropped);
        // The two views, entry by entry.
        for (i, (abs, e)) in o.live.iter().enumerate() {
            let position = o.live.len() - 1 - i;
            assert_eq!(t.get_absolute(*abs), Some(e));
            assert_eq!(t.position(*abs), position);
            assert_eq!(t.get(position), Some(e));
            let wire = table::STATIC_TABLE.len() + 1 + position;
            assert_eq!(table::wire_index(t, TableRef::Dynamic(*abs)), wire);
            assert_eq!(table::lookup(t, wire).as_ref(), Some(e));
        }
        assert_eq!(t.get(o.live.len()), None);
        assert_eq!(t.get_absolute(o.inserted), None);
        if let Some(evicted) = (o.inserted - o.live.len() as u64).checked_sub(1) {
            assert_eq!(t.get_absolute(evicted), None);
        }
        // Lookups: every live pair, a missing value under every live
        // name, every entry of both static tables (duplicate names
        // must resolve to their first occurrence), and a total miss.
        let mut probes: Vec<(&str, &str)> = vec![("x-absent", "")];
        for (_, e) in &o.live {
            probes.push((&e.name, &e.value));
            probes.push((&e.name, "no-such-value"));
        }
        probes.extend(table::STATIC_TABLE.iter().copied());
        probes.extend(qpack::STATIC_TABLE.iter().copied());
        for (name, value) in probes {
            assert_eq!(t.find(name, value), o.scan(name, Some(value)));
            assert_eq!(t.find_name(name), o.scan(name, None));
            for (index, statics, base) in codecs {
                let want_exact = scan_static(statics, base, name, Some(value))
                    .map(TableRef::Static)
                    .or_else(|| o.scan(name, Some(value)).map(TableRef::Dynamic));
                let want_name = scan_static(statics, base, name, None)
                    .map(TableRef::Static)
                    .or_else(|| o.scan(name, None).map(TableRef::Dynamic));
                assert_eq!(
                    table::find_indices(index, t, name, value),
                    (want_exact, want_name),
                    "{name}: {value} (static base {base})"
                );
            }
        }
    };

    let mut rng = SimRng::seed_from_u64(0x7AB1E);
    for _ in 0..24 {
        // 34–42-octet entries: three to five fit, so most inserts evict.
        let max_size = *rng.choose(&[102usize, 136, 160]);
        let mut t = DynamicTable::new(max_size);
        let mut o = TableOracle {
            max_size,
            ..Default::default()
        };
        check(&t, &o);
        for _ in 0..60 {
            match rng.index(16) {
                0 => {
                    t.clear();
                    o.dropped += o.live.len() as u64;
                    o.live.clear();
                }
                1 => {
                    o.max_size = *rng.choose(&[40usize, 80, 102, 160]);
                    t.set_max_size(o.max_size);
                    o.evict();
                }
                _ => {
                    // Few names and values: duplicates, exact repeats,
                    // names that shadow static entries, and the odd
                    // entry larger than the whole table (refused).
                    let name = *rng.choose(&["x-a", "x-b", ":method", "cookie", "accept"]);
                    let value = match rng.index(8) {
                        0 => "v".repeat(160),
                        1 => "GET".to_string(),
                        _ => rng.index(3).to_string(),
                    };
                    let e = Entry::new(name, &value);
                    assert_eq!(t.insert(e.clone()), o.insert(e));
                }
            }
            check(&t, &o);
        }
        assert!(t.evictions() > 20);
    }
}

// ---- frame codec ----

#[test]
fn frame_decoder_never_panics_on_garbage() {
    let mut rng = SimRng::seed_from_u64(0x46524D31);
    for _ in 0..128 {
        let data = rand_bytes(&mut rng, 128);
        let decoder = FrameDecoder::default();
        let mut buf = BytesMut::from(&data[..]);
        // Drain until error or exhaustion; must never panic.
        while let Ok(Some(_)) = decoder.decode(&mut buf) {}
    }
}

/// One recorded h2 exchange: the client preface and SETTINGS; the
/// server's SETTINGS, ORIGIN and ACK; the client's ACK and two HEADERS;
/// the server's HEADERS, DATA and GOAWAY. Returns every flight as
/// `(to_server, bytes)` and both endpoints as they stood just before
/// flight `upto` was delivered (after the whole exchange when `upto` is
/// past the last).
fn h2_exchange(
    upto: usize,
) -> (
    Vec<(bool, Vec<u8>)>,
    respect_origin::h2::Connection,
    respect_origin::h2::Connection,
) {
    use respect_origin::h2::conn::{request_headers, ServerConfig};
    use respect_origin::h2::{Connection, ErrorCode, OriginSet, Settings};
    let mut client = Connection::client("a.example", Settings::default());
    let mut server = Connection::server(ServerConfig {
        settings: Settings::default(),
        origin_set: Some(OriginSet::from_hosts(["a.example", "cdn.example"])),
        authorized: vec!["a.example".into(), "cdn.example".into()],
    });
    let mut flights: Vec<(bool, Vec<u8>)> = Vec::new();
    let mut streams = Vec::new();
    for k in 0..4 {
        if let Some((to_server, bytes)) = flights.last() {
            if k - 1 == upto {
                return (flights, client, server);
            }
            let rx = if *to_server { &mut server } else { &mut client };
            rx.recv(bytes).expect("the recorded exchange is valid");
        }
        match k {
            2 => {
                for (host, path) in [("a.example", "/"), ("cdn.example", "/app.js")] {
                    streams.push(client.send_request(&request_headers("GET", host, path), true));
                }
            }
            3 => {
                for (i, &s) in streams.iter().enumerate() {
                    server.send_response(s, 200, &vec![b'x'; 100 + 900 * i]);
                }
                server.send_goaway(ErrorCode::NoError);
            }
            _ => {}
        }
        let to_server = k % 2 == 0;
        let tx = if to_server { &mut client } else { &mut server };
        flights.push((to_server, tx.take_outgoing().to_vec()));
    }
    (flights, client, server)
}

/// Every hostile variant of every flight of the recorded exchange, fed
/// to the endpoint it was meant for in the state it would have met it:
/// nothing panics on either role, and every error names its recovery —
/// never a same-connection retry for a connection-fatal one.
#[test]
fn h2_connections_never_panic_on_hostile_flights() {
    use respect_origin::h2::Recovery;
    let (flights, ..) = h2_exchange(usize::MAX);
    assert_eq!(flights.len(), 4);
    let mut rng = SimRng::seed_from_u64(0x4832_4346);
    let mut errors = [0u32; 2];
    for _ in 0..64 {
        for (k, (to_server, valid)) in flights.iter().enumerate() {
            for bytes in hostile_variants(&mut rng, valid) {
                let (_, mut client, mut server) = h2_exchange(k);
                let rx = if *to_server { &mut server } else { &mut client };
                if let Err(e) = rx.recv(&bytes) {
                    errors[usize::from(*to_server)] += 1;
                    if e.is_connection_fatal() {
                        assert_ne!(e.recovery(), Recovery::RetryStream, "flight {k}: {e}");
                    }
                }
            }
        }
    }
    assert!(errors.iter().all(|&n| n > 0), "errors by role {errors:?}");
}

#[test]
fn origin_frame_roundtrips() {
    let mut rng = SimRng::seed_from_u64(0x46524D32);
    for _ in 0..128 {
        let origins: Vec<String> = (0..rng.index(12))
            .map(|_| format!("https://{}", rand_hostname(&mut rng)))
            .collect();
        let frame = Frame::Origin {
            origins: origins.clone(),
        };
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let decoder = FrameDecoder::default();
        let out = decoder.decode(&mut buf).unwrap().unwrap();
        assert_eq!(out, frame);
    }
}

#[test]
fn data_frames_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x46524D33);
    for _ in 0..128 {
        let frame = Frame::Data {
            stream: respect_origin::h2::StreamId(rng.range_u64(1, 1000) as u32),
            data: bytes::Bytes::from(rand_bytes(&mut rng, 2048)),
            end_stream: rng.chance(0.5),
        };
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let out = FrameDecoder::default().decode(&mut buf).unwrap().unwrap();
        assert_eq!(out, frame);
    }
}

// ---- DNS names & SAN matching ----

#[test]
fn dns_name_display_reparses() {
    let mut rng = SimRng::seed_from_u64(0x444E5331);
    for _ in 0..256 {
        let labels: Vec<String> = (0..rng.range_u64(1, 5))
            .map(|_| rand_header_name(&mut rng, 10).replace('-', "x"))
            .collect();
        let s = labels.join(".");
        let n = DnsName::parse(&s).expect("constructed names parse");
        let again = DnsName::parse(n.as_ref()).unwrap();
        assert_eq!(n, again);
    }
}

#[test]
fn dns_parse_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x444E5332);
    for _ in 0..512 {
        let _ = DnsName::parse(&rand_weird(&mut rng, 64));
    }
}

#[test]
fn wildcard_covers_exactly_one_extra_label() {
    let mut rng = SimRng::seed_from_u64(0x444E5333);
    for _ in 0..256 {
        let sub = rand_lower(&mut rng, 1, 8);
        let subsub = rand_lower(&mut rng, 1, 8);
        let base = format!(
            "{}.{}",
            rand_lower(&mut rng, 2, 8),
            rand_lower(&mut rng, 2, 4)
        );
        let pattern = DnsName::parse(&format!("*.{base}")).unwrap();
        let one = DnsName::parse(&format!("{sub}.{base}")).unwrap();
        let two = DnsName::parse(&format!("{subsub}.{sub}.{base}")).unwrap();
        let parent = DnsName::parse(&base).unwrap();
        assert!(covers(&pattern, &one));
        assert!(!covers(&pattern, &two));
        assert!(!covers(&pattern, &parent));
    }
}

/// `wire_len` is a length sum: for every name the generated worlds
/// hold — each host of the mixed dataset with its certificate's SANs,
/// each §5 sample site with its SANs — it equals the label walk it
/// replaced.
#[test]
fn wire_len_equals_the_label_walk_for_every_generated_name() {
    use respect_origin::cdn::SampleGroup;
    use respect_origin::webgen::{Dataset, DatasetConfig};
    let d = Dataset::generate(DatasetConfig {
        sites: 2_000,
        legacy_share: 0.25,
        h3_share: 0.5,
        ..DatasetConfig::default()
    });
    let group = SampleGroup::build(5_000, &mut SimRng::seed_from_u64(0x0516));
    let mut checked = 0;
    let mut check = |n: &DnsName| {
        let walk = n.labels().map(|l| 1 + l.len()).sum::<usize>() + 1;
        assert_eq!(n.wire_len(), walk, "{n}");
        checked += 1;
    };
    for s in d.sites() {
        let services = s.services.iter().map(|svc| svc.host());
        for host in std::iter::once(s.root_host.clone())
            .chain(s.shard_hosts.iter().cloned())
            .chain(services)
        {
            check(&host);
            let cert = d
                .universe
                .cert_for(&host)
                .expect("every site host has a cert");
            cert.san_names().for_each(|n| check(&n));
        }
    }
    for s in &group.sites {
        check(&s.host);
        s.cert.san_names().for_each(|n| check(&n));
    }
    assert!(checked > 50_000, "{checked} names");
}

#[test]
fn cert_covers_all_its_exact_sans() {
    let mut rng = SimRng::seed_from_u64(0x43455254);
    for _ in 0..128 {
        let sans: Vec<String> = (0..rng.range_u64(1, 20))
            .map(|_| {
                format!(
                    "{}.{}.{}",
                    rand_lower(&mut rng, 2, 8),
                    rand_lower(&mut rng, 2, 8),
                    rand_lower(&mut rng, 2, 3)
                )
            })
            .collect();
        let subject = DnsName::parse(&sans[0]).unwrap();
        let cert = CertificateBuilder::new(subject)
            .sans(sans.iter().map(|s| DnsName::parse(s).unwrap()))
            .build();
        for s in &sans {
            assert!(cert.covers(&DnsName::parse(s).unwrap()));
        }
        assert!(!cert.covers(&DnsName::parse("definitely.not.present.example").unwrap()));
    }
}

// ---- stats ----

#[test]
fn quantiles_are_monotone() {
    let mut rng = SimRng::seed_from_u64(0x53544154);
    for _ in 0..256 {
        let mut xs: Vec<f64> = (0..rng.range_u64(1, 200))
            .map(|_| rng.range_f64(0.0, 1e6))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q25 = respect_origin::stats::quantile(&xs, 0.25).unwrap();
        let q50 = respect_origin::stats::quantile(&xs, 0.50).unwrap();
        let q75 = respect_origin::stats::quantile(&xs, 0.75).unwrap();
        assert!(q25 <= q50 && q50 <= q75);
        assert!(q25 >= xs[0] && q75 <= *xs.last().unwrap());
    }
}

#[test]
fn cdf_bounds() {
    let mut rng = SimRng::seed_from_u64(0x43444631);
    for _ in 0..256 {
        let xs: Vec<u64> = (0..rng.index(200))
            .map(|_| rng.range_u64(0, 1000))
            .collect();
        let cdf = respect_origin::stats::Cdf::from_u64(&xs);
        let p = cdf.eval(rng.range_u64(0, 1200) as f64);
        assert!((0.0..=1.0).contains(&p));
    }
}

// ---- the one quantisation ----

/// `millis_to_micros` is `(ms * 1000).round() as u64` without the libm
/// call, and `ms_to_us` / `SimDuration::from_millis_f64` are that one
/// helper behind their own input contracts.
#[test]
fn quantisation_equals_round_half_away_from_zero() {
    use respect_origin::netsim::{millis_to_micros, SimDuration};
    use respect_origin::web::har::ms_to_us;
    let reference = |ms: f64| (ms * 1_000.0).round() as u64;
    let check = |ms: f64| {
        assert_eq!(millis_to_micros(ms), reference(ms), "ms = {ms:e}");
        assert_eq!(ms_to_us(ms), reference(ms.max(0.0)), "ms = {ms:e}");
        if ms >= 0.0 && ms.is_finite() {
            assert_eq!(SimDuration::from_millis_f64(ms).as_micros(), reference(ms));
        }
    };
    let neighbours = |x: f64| {
        [
            f64::from_bits(x.to_bits() - 1),
            x,
            f64::from_bits(x.to_bits() + 1),
        ]
    };
    check(0.0);
    check(-0.0);
    // Every tie `k + 0.5` µs and the floats either side of it, each
    // approached from the three ms values whose product lands there.
    for k in (0..4_096u64).chain((1..48).map(|e| (1u64 << e) - 1)) {
        let tie_us = k as f64 + 0.5;
        for us in neighbours(tie_us) {
            for ms in neighbours(us / 1_000.0) {
                check(ms);
            }
        }
    }
    // Around the largest double below half a microsecond, where
    // "add 0.5 and truncate" would round up and `round` does not.
    for ms in neighbours(0.49999999999999994 / 1_000.0) {
        check(ms);
    }
    // Where the in-register path hands over to `round`, and where
    // doubles stop holding every integer.
    for boundary in [(1u64 << 52) as f64, (1u64 << 53) as f64] {
        for us in neighbours(boundary) {
            for ms in neighbours(us / 1_000.0) {
                check(ms);
            }
        }
    }
    let mut rng = SimRng::seed_from_u64(0x0051_5A17);
    for _ in 0..1_000_000 {
        check(rng.range_f64(0.0, 1e7));
    }
    // Outside the domain: `ms_to_us` clamps, the helper saturates the
    // way the cast does, and a duration refuses.
    for ms in [-1.0, -0.000_6, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(ms_to_us(ms), 0);
        assert_eq!(millis_to_micros(ms), 0);
    }
    assert_eq!(ms_to_us(f64::INFINITY), u64::MAX);
    for ms in [-1.0, f64::NAN, f64::INFINITY] {
        let refused = std::panic::catch_unwind(|| SimDuration::from_millis_f64(ms));
        assert!(refused.is_err(), "from_millis_f64({ms}) must assert");
    }
}

// ---- JSON exporters: one writer, one sweep ----

/// A strict reader for the exporters' output: panics unless `doc` is
/// exactly one well-formed JSON value (RFC 8259 — raw control
/// characters inside a string are an error), and returns every string
/// in it, keys included, unescaped, in document order.
fn json_strings(doc: &str) -> Vec<String> {
    struct Reader<'a> {
        rest: std::iter::Peekable<std::str::Chars<'a>>,
        strings: Vec<String>,
    }
    impl Reader<'_> {
        fn ws(&mut self) {
            while self.rest.next_if(|c| " \n\r\t".contains(*c)).is_some() {}
        }
        fn expect(&mut self, want: char) {
            assert_eq!(self.rest.next(), Some(want));
        }
        fn value(&mut self) {
            self.ws();
            match *self.rest.peek().expect("a value") {
                '{' => self.members('}', true),
                '[' => self.members(']', false),
                '"' => self.string(),
                _ => {
                    let mut token = String::new();
                    while let Some(c) = self.rest.next_if(|c| !",]} \n\r\t".contains(*c)) {
                        token.push(c);
                    }
                    let literal = ["true", "false", "null"].contains(&token.as_str());
                    // Rust's float grammar admits a little more than
                    // JSON's; rule the difference out by hand.
                    let number = token.parse::<f64>().is_ok_and(f64::is_finite)
                        && !token.starts_with(['+', '.'])
                        && !token.ends_with('.');
                    assert!(literal || number, "bad token {token:?}");
                }
            }
            self.ws();
        }
        fn members(&mut self, close: char, keyed: bool) {
            self.rest.next();
            self.ws();
            if self.rest.next_if_eq(&close).is_some() {
                return;
            }
            loop {
                if keyed {
                    self.ws();
                    self.string();
                    self.ws();
                    self.expect(':');
                }
                self.value();
                match self.rest.next() {
                    Some(',') => continue,
                    Some(c) if c == close => return,
                    other => panic!("expected ',' or {close:?}, got {other:?}"),
                }
            }
        }
        fn string(&mut self) {
            self.expect('"');
            let mut s = String::new();
            loop {
                match self.rest.next().expect("unterminated string") {
                    '"' => break,
                    '\\' => s.push(match self.rest.next().expect("escape") {
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'u' => {
                            let hex: String = self.rest.by_ref().take(4).collect();
                            assert_eq!(hex.len(), 4);
                            let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                            char::from_u32(code).expect("the writer escapes no surrogates")
                        }
                        c @ ('"' | '\\' | '/') => c,
                        c => panic!("bad escape \\{c}"),
                    }),
                    c => {
                        assert!(c >= ' ', "raw control character {c:?} in a string");
                        s.push(c);
                    }
                }
            }
            self.strings.push(s);
        }
    }
    let mut r = Reader {
        rest: doc.chars().peekable(),
        strings: Vec::new(),
    };
    r.value();
    assert_eq!(r.rest.next(), None, "trailing bytes after the document");
    r.strings
}

/// Every string-bearing field of every exporter, fed strings built to
/// break an escaper: the document must stay well-formed JSON whose
/// strings unescape to exactly what went in.
#[test]
fn exporters_escape_every_string_they_carry() {
    use origin_bench::ResilienceReport;
    use origin_telemetry::metrics::Registry;
    use origin_telemetry::obs::FlightRecorder;
    use origin_telemetry::trace::{to_chrome_json, Arg, Site, Tracer};
    use respect_origin::netsim::SimDuration;
    use respect_origin::web::har::{PageLoad, Phase, RequestTiming};
    use respect_origin::web::Protocol;
    use std::net::{IpAddr, Ipv4Addr};

    static REQ: Site = Site::new("req", "request", &["host"]);

    // Each character JSON reserves, DEL and non-ASCII on their own and
    // mid-string, then the byte-level mutator's output made UTF-8.
    let mut hostile: Vec<String> = (0u8..0x20)
        .chain(*b"\"\\/\x7f")
        .map(char::from)
        .chain(['é', '\u{2028}', '\u{feff}', '𝄞'])
        .flat_map(|c| [c.to_string(), format!("a{c}b{c}")])
        .collect();
    hostile.push(String::new());
    hostile.push("\\\"\\u0041\\n".to_string());
    let mut rng = SimRng::seed_from_u64(0x4A50_4E21);
    for _ in 0..64 {
        let valid = rand_weird(&mut rng, 24);
        for bytes in hostile_variants(&mut rng, valid.as_bytes()) {
            hostile.push(String::from_utf8_lossy(&bytes).into_owned());
        }
    }

    for s in &hostile {
        let carried = |doc: &str, times: usize, what: &str| {
            let found = json_strings(doc).iter().filter(|x| *x == s).count();
            assert!(
                found >= times,
                "{what}: {s:?} came back {found}×, not {times}×"
            );
        };

        let mut rec = FlightRecorder::new(8);
        rec.begin_visit(3);
        rec.record(1, "conn.open", 1, s);
        rec.capture_trigger();
        carried(&rec.panic_snapshot_json(), 1, "panic snapshot detail");
        let snapshot = rec.trigger_snapshot_json(1).expect("captured");
        carried(&snapshot, 1, "trigger snapshot detail");

        let mut t = Tracer::new();
        t.begin_visit(1, s);
        t.name_conn(1, 3, "h");
        t.complete(&REQ, 1, 2, &[Arg::Str(s)]);
        t.complete_indexed(&REQ, (12, s), 5, 6, &[]);
        let trace = to_chrome_json(&t);
        carried(&trace, 2, "trace label and Arg::Str");
        let indexed = format!("req 12 {s}");
        assert!(
            json_strings(&trace).contains(&indexed),
            "indexed name {s:?}"
        );

        let mut m = Registry::new();
        m.add(s, 1);
        m.observe(s, &[1, 10], 3);
        m.record_phase(s, SimDuration::from_micros(5));
        m.set_runtime_ms(s, 1.5);
        carried(&m.to_json(), 4, "registry names");

        let report = ResilienceReport {
            profile: s.clone(),
            pages: 1,
            counters: vec![("fault.drops", 2)],
            backoff: Default::default(),
            clean: (1.0, 0.5, 3),
            faulted: (2.0, 0.25, 4),
        };
        carried(&report.to_json(), 1, "resilience profile");

        // A `DnsName` holds only what its parser lets through: that,
        // not the HAR writer, is what keeps a hostile host out.
        if let Ok(host) = DnsName::parse(s) {
            let load = PageLoad {
                rank: 1,
                root_host: host.clone(),
                requests: vec![RequestTiming {
                    resource_index: 0,
                    host: host.clone(),
                    ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                    asn: 1,
                    start: 0.0,
                    phase: Phase::default(),
                    did_dns: false,
                    new_connection: false,
                    coalesced: false,
                    protocol: Protocol::H2,
                    cert_issuer: None,
                    secure: true,
                    extra_connections: 0,
                    extra_dns: 0,
                    us: Default::default(),
                }
                .sealed()],
            };
            let url = format!("https://{host}/r0");
            assert!(json_strings(&load.to_har_json()).contains(&url));
        }
    }
}

// ---- ORIGIN entries ----

#[test]
fn origin_entry_ascii_roundtrips() {
    use respect_origin::h2::OriginEntry;
    let mut rng = SimRng::seed_from_u64(0x4F524947);
    for _ in 0..256 {
        let mut host = rand_lower(&mut rng, 1, 10);
        for _ in 0..rng.range_u64(1, 4) {
            host.push('.');
            host.push_str(&rand_lower(&mut rng, 2, 8));
        }
        let s = if rng.chance(0.5) {
            format!("https://{host}:{}", rng.range_u64(1, 65535))
        } else {
            format!("https://{host}")
        };
        let e = OriginEntry::parse(&s).expect("valid origin parses");
        let again = OriginEntry::parse(&e.ascii()).expect("serialization reparses");
        assert_eq!(e, again);
    }
}

#[test]
fn origin_entry_parse_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x4F524948);
    for _ in 0..512 {
        let _ = respect_origin::h2::OriginEntry::parse(&rand_weird(&mut rng, 64));
    }
}

// ---- CLI specs ----

/// `--faults` and `--sample` read user text: hostile variants of valid
/// specs never panic either parser, and a profile's rendered spec
/// parses back to the same profile.
#[test]
fn cli_spec_parsers_never_panic_and_faults_roundtrip() {
    use origin_telemetry::trace::Sampler;
    use respect_origin::netsim::FaultProfile;
    let mut rng = SimRng::seed_from_u64(0x434C4931);
    let rate = |rng: &mut SimRng| match rng.index(4) {
        0 => 0.0,
        1 => 1.0,
        2 => rng.unit() * 1e-3,
        _ => rng.unit(),
    };
    for _ in 0..512 {
        let p = FaultProfile {
            drop: rate(&mut rng),
            corrupt: rate(&mut rng),
            h421: rate(&mut rng),
            middlebox: rate(&mut rng),
        };
        assert_eq!(FaultProfile::parse(&p.spec()), Ok(p));
        let sample = format!("1/{}", rng.range_u64(1, 1 << 20));
        for valid in [p.spec(), sample] {
            for bytes in hostile_variants(&mut rng, valid.as_bytes()) {
                let text = String::from_utf8_lossy(&bytes);
                let _ = FaultProfile::parse(&text);
                let _ = Sampler::parse(&text);
            }
        }
    }
}

// ---- HTTP/1.1 framing fields ----

/// Hostile variants of valid `content-length`, `connection` and
/// `transfer-encoding` values, as lossy UTF-8, in request and response
/// heads on both sides of the machine: nothing panics, and a head the
/// machine frames by length carried an all-digit `content-length`.
#[test]
fn h1_framing_fields_never_panic_and_lengths_are_digits() {
    use origin_h1::{Connection, EventRef, Framing, RequestHead, ResponseHead, Role};
    const CONNECTION: [&str; 4] = ["close", "keep-alive", "keep-alive, close", "Upgrade"];
    const TRANSFER: [&str; 3] = ["chunked", "gzip, chunked", "identity"];
    let get = RequestHead {
        method: "GET",
        target: "/",
        headers: &[("host", "h")],
    };
    let mut rng = SimRng::seed_from_u64(0x4831_4652);
    let mut lengths_taken = 0;
    for _ in 0..256 {
        let valid = [
            ("content-length", rng.range_u64(0, 1 << 40).to_string()),
            ("connection", rng.choose(&CONNECTION).to_string()),
            ("transfer-encoding", rng.choose(&TRANSFER).to_string()),
        ];
        for (name, value) in &valid {
            for bytes in hostile_variants(&mut rng, value.as_bytes()) {
                let text = String::from_utf8_lossy(&bytes);
                let fields = [("host", "h"), (*name, &*text)];
                let digits = text.trim_matches([' ', '\t']);
                let is_length = *name == "content-length"
                    && !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit());
                for role in [Role::Client, Role::Server] {
                    // The head as a request: a machine that framed it by
                    // length accepts a one-byte body.
                    let mut conn = Connection::new(role);
                    let post = EventRef::Request(RequestHead {
                        method: "POST",
                        target: "/",
                        headers: &fields,
                    });
                    let accepted = match role {
                        Role::Client => conn.send_ref(post).is_ok(),
                        Role::Server => conn.receive_ref(post).is_ok(),
                    };
                    let body = EventRef::Data(1);
                    let took_body = accepted
                        && match role {
                            Role::Client => conn.send_ref(body).is_ok(),
                            Role::Server => conn.receive_ref(body).is_ok(),
                        };
                    assert!(!took_body || is_length, "{name}: {text:?}");

                    // The head as a response to a GET.
                    let mut conn = Connection::new(role);
                    let head = EventRef::Response(ResponseHead {
                        status: 200,
                        headers: &fields,
                    });
                    let accepted = match role {
                        Role::Client => {
                            conn.send_ref(EventRef::Request(get)).unwrap();
                            conn.send_ref(EventRef::EndOfMessage).unwrap();
                            conn.receive_ref(head).is_ok()
                        }
                        Role::Server => {
                            conn.receive_ref(EventRef::Request(get)).unwrap();
                            conn.receive_ref(EventRef::EndOfMessage).unwrap();
                            conn.send_ref(head).is_ok()
                        }
                    };
                    if accepted && matches!(conn.response_framing(), Framing::ContentLength(_)) {
                        assert!(is_length, "{name}: {text:?}");
                        lengths_taken += 1;
                    }
                }
            }
        }
    }
    assert!(lengths_taken > 0, "no variant kept a valid length");
}

// ---- timeline reconstruction ----

mod reconstruct_props {
    use respect_origin::dns::DnsName;
    use respect_origin::model::reconstruct;
    use respect_origin::netsim::SimRng;
    use respect_origin::web::har::{PageLoad, Phase, RequestTiming};
    use respect_origin::web::{ContentType, Page, Protocol, Resource};
    use std::net::{IpAddr, Ipv4Addr};

    /// A random page + consistent measured load: each resource either
    /// chains off an earlier one or hangs off the root; phases are
    /// arbitrary non-negative values.
    fn page_and_load(rng: &mut SimRng) -> (Page, PageLoad, Vec<bool>) {
        let root_host = DnsName::parse("root.example").unwrap();
        let mut page = Page::new(1, root_host.clone(), 1_000);
        let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        let mk = |idx: usize, start: f64, dns: f64, connect: f64, wait: f64, receive: f64| {
            RequestTiming {
                resource_index: idx,
                host: DnsName::parse(&format!("h{idx}.example")).unwrap(),
                ip,
                asn: 1,
                start,
                phase: Phase {
                    dns,
                    connect,
                    ssl: connect / 2.0,
                    wait,
                    receive,
                    ..Default::default()
                },
                did_dns: dns > 0.0,
                new_connection: connect > 0.0,
                coalesced: false,
                protocol: Protocol::H2,
                cert_issuer: None,
                secure: true,
                extra_connections: 0,
                extra_dns: 0,
                us: Default::default(),
            }
            .sealed()
        };
        let mut requests = vec![mk(0, 0.0, 20.0, 40.0, 30.0, 10.0)];
        let mut coalescable = vec![false];
        let rows = rng.range_u64(1, 40) as usize;
        for i in 0..rows {
            let idx = i + 1;
            let mut r = Resource::new("/r", ContentType::Javascript, 1_000);
            if rng.chance(0.5) && idx > 1 {
                r.discovered_by = Some(idx - 1);
            }
            page.push(DnsName::parse(&format!("h{idx}.example")).unwrap(), r);
            // Start after the parent finishes (consistent timeline).
            let parent = page.resources[idx].discovered_by.unwrap_or(0);
            let start = requests[parent].end() + 1.0;
            requests.push(mk(
                idx,
                start,
                rng.range_f64(0.0, 200.0),
                rng.range_f64(0.0, 300.0),
                rng.range_f64(0.0, 100.0),
                rng.range_f64(0.0, 100.0),
            ));
            coalescable.push(rng.chance(0.5));
        }
        let load = PageLoad {
            rank: 1,
            root_host,
            requests,
        };
        (page, load, coalescable)
    }

    #[test]
    fn reconstruction_invariants() {
        let mut rng = SimRng::seed_from_u64(0x52454331);
        for _ in 0..64 {
            let (page, load, coalescable) = page_and_load(&mut rng);
            let out = reconstruct(&page, &load, |i| coalescable[i]);
            // PLT never increases; counts never increase.
            assert!(out.plt() <= load.plt() + 1e-9);
            assert!(out.dns_queries() <= load.dns_queries());
            assert!(out.tls_connections() <= load.tls_connections());
            // Non-coalesced requests keep their phase durations.
            for (i, (a, b)) in load.requests.iter().zip(&out.requests).enumerate() {
                assert!(b.start >= 0.0);
                if i == 0 || !coalescable[i] {
                    assert_eq!(a.phase, b.phase);
                } else {
                    assert_eq!(b.phase.setup(), 0.0);
                    assert!(b.coalesced);
                }
                // Requests never move later.
                assert!(b.start <= a.start + 1e-9);
            }
            // Idempotence: reconstructing again changes nothing.
            let again = reconstruct(&page, &out, |i| coalescable[i]);
            assert_eq!(again.plt(), out.plt());
        }
    }
}

// ---- the golden mixed configuration ----

/// What loading the golden mixed configuration wrote, sink by sink.
struct MixedRun {
    loads: Vec<respect_origin::web::har::PageLoad>,
    registry: String,
    /// Fault-session retries summed over the visits.
    retries: u64,
    /// The trace, when one was attached.
    trace: Option<origin_telemetry::trace::Tracer>,
    /// Each visit's flight events and observation, when both were
    /// attached.
    observed: Option<(
        Vec<origin_telemetry::obs::flight::FlightEvent>,
        Vec<origin_telemetry::obs::VisitObs>,
    )>,
}

/// Every site of the golden mixed configuration (`BENCHMARK.json`'s
/// `crawl-mixed` at small scale — legacy 0.25, h3 0.5, faults — with a
/// name the universe does not resolve on every eighth page) loaded
/// through one warm arena into a registry, plus a tracer and/or a
/// flight recorder and `VisitObs`. `each` sees every page with its load.
fn golden_mixed(
    traced: bool,
    observed: bool,
    mut each: impl FnMut(&respect_origin::web::Page, &respect_origin::web::har::PageLoad),
) -> MixedRun {
    use origin_telemetry::metrics::Registry;
    use origin_telemetry::obs::{FlightRecorder, VisitObs, VisitSinks};
    use origin_telemetry::trace::Tracer;
    use respect_origin::browser::loader::FaultSession;
    use respect_origin::browser::{BrowserKind, PageLoader, UniverseEnv, VisitArena};
    use respect_origin::netsim::FaultProfile;
    use respect_origin::web::{ContentType, Resource};
    use respect_origin::webgen::{Dataset, DatasetConfig, PROVIDERS};

    let dataset = Dataset::generate(DatasetConfig {
        sites: 300,
        seed: 0x0516,
        legacy_share: 0.25,
        h3_share: 0.5,
        ..Default::default()
    });
    let profile = FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap();
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
    let mut metrics = Registry::new();
    let mut tracer = traced.then(Tracer::new);
    let (mut flight, mut visit) = (FlightRecorder::new(1 << 12), VisitObs::default());
    let (mut events, mut visits) = (Vec::new(), Vec::new());
    let mut arena = VisitArena::new();
    let (mut loads, mut retries) = (Vec::new(), 0);
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
        if let Some(t) = tracer.as_mut() {
            t.begin_visit(u64::from(site.rank), site.root_host.as_str());
        }
        flight.begin_visit(site.rank);
        visit.clear();
        let sinks = if observed {
            VisitSinks {
                flight: Some(&mut flight),
                visit: Some(&mut visit),
            }
        } else {
            VisitSinks::default()
        };
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            Some(&mut faults),
            Some(&mut metrics),
            tracer.as_mut(),
            &mut arena,
            sinks,
        );
        each(&page, &load);
        if observed {
            events.extend(flight.visit_events(site.rank));
            visits.push(visit.clone());
        }
        retries += faults.counts.retries;
        loads.push(load.clone());
        arena.recycle(load);
    }
    MixedRun {
        loads,
        registry: metrics.to_json(),
        retries,
        trace: tracer,
        observed: observed.then_some((events, visits)),
    }
}

/// A request is quantised once: on the golden mixed configuration,
/// every sink attached, every record of every load — served,
/// N/A-skipped or NXDOMAIN — carries in its seal exactly what its f64
/// fields quantise to, and the §4.1 reconstruction, the one editor of a
/// finished timing, leaves its output sealed the same way.
#[test]
fn every_timing_is_sealed_to_what_its_fields_quantise_to() {
    use respect_origin::model::model::{predict, CoalescingGrouping};
    use respect_origin::web::har::{ms_to_us, PageLoad};
    use respect_origin::web::Protocol;

    fn assert_sealed(load: &PageLoad, what: &str) {
        for r in &load.requests {
            let (start, phases) = (ms_to_us(r.start), r.phase.quantised_us());
            let at = format!("{what}, rank {} request {}", load.rank, r.resource_index);
            assert_eq!(r.start_us(), start, "{at}");
            assert_eq!(r.phases_us(), phases, "{at}");
            assert_eq!(r.total_us(), phases.iter().sum::<u64>(), "{at}");
            assert_eq!(r.end_us(), start + phases.iter().sum::<u64>(), "{at}");
        }
        let latest = load.requests.iter().map(|r| r.end_us()).max();
        assert_eq!(load.plt_us(), latest.unwrap_or(0));
    }

    let (mut skipped, mut nxdomain) = (0, 0);
    let run = golden_mixed(true, true, |page, load| {
        assert_sealed(load, "measured");
        for r in load.requests.iter().filter(|r| r.protocol == Protocol::NA) {
            skipped += u32::from(!r.did_dns);
            nxdomain += u32::from(r.did_dns);
        }
        for grouping in [CoalescingGrouping::ByIp, CoalescingGrouping::ByAs] {
            let (_, reconstructed) = predict(page, load, grouping);
            assert_sealed(&reconstructed, "reconstructed");
        }
    });
    let (_, visits) = run.observed.expect("observed");
    for (visit, load) in visits.iter().zip(&run.loads) {
        assert_eq!(visit.plt_us, load.plt_us());
    }
    assert!(
        skipped > 0 && nxdomain > 0,
        "{skipped} N/A, {nxdomain} NXDOMAIN"
    );
    assert!(run.retries > 0, "the profile injected nothing");
    assert!(run.registry.contains("\"h1.requests\"") && run.registry.contains("\"h3.requests\""));
}

/// One step reports every sink, and no sink can see another: under the
/// four combinations of tracer × (flight recorder + `VisitObs`), the
/// loads and the registry are the same, the trace is the same with or
/// without observation, and the flight events and observations are the
/// same with or without the trace.
#[test]
fn sinks_cannot_see_each_other() {
    let run = |traced, observed| golden_mixed(traced, observed, |_, _| {});
    let [neither, traced, observed, both] =
        [(false, false), (true, false), (false, true), (true, true)].map(|(t, o)| run(t, o));
    for (other, what) in [
        (&traced, "traced"),
        (&observed, "observed"),
        (&both, "both"),
    ] {
        assert!(other.loads == neither.loads, "{what}: loads moved");
        assert_eq!(other.registry, neither.registry, "{what}: registry moved");
    }
    let trace =
        |r: &MixedRun| origin_telemetry::trace::to_chrome_json(r.trace.as_ref().expect("traced"));
    assert!(
        trace(&traced) == trace(&both),
        "observation moved the trace"
    );
    let observation = |r: &MixedRun| {
        let (events, visits) = r.observed.as_ref().expect("observed");
        (events.clone(), format!("{visits:?}"))
    };
    let (events, visits) = observation(&observed);
    assert!(events.iter().any(|e| e.code == "dns.nxdomain"));
    let moved = (events, visits) != observation(&both);
    assert!(!moved, "the trace moved the flight events or observations");
}

/// A DNS span starts with the request it serves: every `dns.*` event of
/// the golden mixed configuration's trace is stamped with the sealed
/// start of a request of its visit for the name it looked up.
#[test]
fn dns_events_start_with_their_request() {
    use origin_telemetry::trace::Arg;
    let run = golden_mixed(true, false, |_, _| {});
    let trace = run.trace.expect("traced");
    let mut checked = 0;
    for e in trace.events().filter(|e| e.cat() == "dns") {
        let Some((_, Arg::Str(name))) = e.args().find(|(key, _)| *key == "name") else {
            panic!("a dns event without a name");
        };
        let load = run.loads.iter().find(|l| u64::from(l.rank) == e.pid());
        let starts = load.expect("a traced visit").requests.iter();
        let mut starts = starts
            .filter(|r| r.host.as_str() == name)
            .map(|r| r.start_us());
        assert!(
            starts.any(|us| us == e.ts_us()),
            "rank {}: {} at {} µs starts no request for it",
            e.pid(),
            e.name(),
            e.ts_us()
        );
        checked += 1;
    }
    assert!(checked > 1_000, "only {checked} dns events");
}

// ---- fault injection ----

/// Seeded sweep over fault profiles × thread counts: every crawl
/// terminates (even at drop=1.0 the retry budget is bounded), a
/// replayed request is still ONE request in the characterization, and
/// the merged output is byte-identical at 1, 2, and 8 workers.
#[test]
fn faulted_crawls_terminate_and_stay_deterministic() {
    use origin_bench::CrawlSpec;
    use respect_origin::netsim::FaultProfile;
    const SITES: u32 = 80;
    const SEED: u64 = 0xFA17;

    let clean = CrawlSpec::new(SITES, SEED).run();
    let mut rng = SimRng::seed_from_u64(0x5EED_FA17);
    let mut profiles = vec![
        FaultProfile::none(),
        // The adversarial corner: every packet dropped.
        FaultProfile::parse("drop=1").unwrap(),
    ];
    for _ in 0..3 {
        profiles.push(FaultProfile {
            drop: rng.range_f64(0.0, 0.3),
            corrupt: rng.range_f64(0.0, 0.1),
            h421: rng.range_f64(0.0, 0.5),
            middlebox: rng.range_f64(0.0, 1.0),
        });
    }
    for profile in &profiles {
        let [one, two, eight] = [1, 2, 8].map(|threads| {
            CrawlSpec {
                threads,
                faults: Some(*profile),
                ..CrawlSpec::new(SITES, SEED)
            }
            .run()
        });
        // A 421 replay or retransmit retry must never double-count the
        // request: the crawl sees exactly the clean request set.
        assert_eq!(
            one.characterization.total_requests,
            clean.characterization.total_requests,
            "{}: replays double-counted",
            profile.spec()
        );
        assert_eq!(one.characterization.pages, clean.characterization.pages);
        assert_eq!(one.measured.plt.len(), clean.measured.plt.len());
        // Thread-count invariance, down to the serialized metrics.
        let json = one.metrics.to_json();
        assert_eq!(json, two.metrics.to_json(), "{}: 1 vs 2", profile.spec());
        assert_eq!(json, eight.metrics.to_json(), "{}: 1 vs 8", profile.spec());
        assert_eq!(one.measured.plt, eight.measured.plt, "{}", profile.spec());
        // Drop/corrupt-only profiles leave the connection topology
        // untouched (retries only stretch the receive phase), so pages
        // only ever get slower. With 421s or teardowns in play the
        // topology itself changes — an evicted mapping puts a request
        // on a dedicated connection, which can legitimately speed up
        // what used to queue behind it — so no per-page bound holds.
        if profile.h421 == 0.0 && profile.middlebox == 0.0 {
            for (f, c) in one.measured.plt.iter().zip(&clean.measured.plt) {
                assert!(
                    f + 1e-9 >= *c,
                    "{}: faulted PLT sped a page up",
                    profile.spec()
                );
            }
        }
    }
}

// ---- mixed-protocol universe ----

/// Seeded sweep over legacy shares × thread counts: every
/// mixed-protocol crawl terminates, the legacy re-layout never adds or
/// drops a request (an h1 request is still ONE request in the
/// characterization, never double-counted by keep-alive reuse or a
/// close-delimited reconnect), the h1 bookkeeping balances, and the
/// merged output — metrics and redundancy report included — is
/// byte-identical at 1, 2, and 8 workers.
#[test]
fn mixed_crawls_terminate_and_stay_deterministic() {
    use origin_bench::{CrawlSpec, RedundancyReport};
    const SITES: u32 = 80;
    const SEED: u64 = 0x11FA;

    let clean = CrawlSpec::new(SITES, SEED).run();
    let mut rng = SimRng::seed_from_u64(0x5EED_11FA);
    let mut shares = vec![0.0, 1.0];
    for _ in 0..3 {
        shares.push(rng.range_f64(0.05, 0.95));
    }
    for &share in &shares {
        let [one, two, eight] = [1, 2, 8].map(|threads| {
            CrawlSpec {
                threads,
                legacy_share: share,
                ..CrawlSpec::new(SITES, SEED)
            }
            .run()
        });
        // Re-hosting assets onto legacy shards changes where requests
        // go, never how many there are.
        assert_eq!(
            one.characterization.total_requests, clean.characterization.total_requests,
            "share {share}: request count changed"
        );
        assert_eq!(one.characterization.pages, clean.characterization.pages);
        assert_eq!(one.measured.plt.len(), clean.measured.plt.len());
        // Every h1 request is accounted for exactly once: it opened a
        // connection, reused a kept-alive one, or coalesced (the pool
        // lets ideal policies merge h1 requests; those never touch the
        // machine).
        let report = RedundancyReport::build(&one, share);
        assert!(
            report.h1_requests >= report.h1_connections + report.keepalive_reuse,
            "share {share}: h1 bookkeeping overflows the request count"
        );
        if share == 0.0 {
            assert_eq!(report.h1_requests, 0);
            assert!(report.redundant.iter().all(|&(_, v)| v == 0));
        } else {
            assert!(report.legacy_pages > 0, "share {share}: no legacy pages");
            assert!(report.h1_connections > 0);
        }
        // Thread-count invariance, down to the serialized bytes.
        let json = one.metrics.to_json();
        assert_eq!(json, two.metrics.to_json(), "share {share}: 1 vs 2");
        assert_eq!(json, eight.metrics.to_json(), "share {share}: 1 vs 8");
        assert_eq!(one.measured.plt, eight.measured.plt, "share {share}");
        assert_eq!(
            report.to_json(),
            RedundancyReport::build(&eight, share).to_json(),
            "share {share}: redundancy report diverged"
        );
    }
}

// ---- h3 universe ----

/// Seeded sweep over h3 shares × thread counts: every h3 crawl
/// terminates, deploying QUIC never adds or drops a request (an
/// upgraded request is still ONE request in the characterization), the
/// `h3.*` bookkeeping balances (one handshake per connection, 0-RTT
/// attempts never outrun the banked tickets), and the merged output —
/// metrics and H3 report included — is byte-identical at 1, 2, and 8
/// workers.
#[test]
fn h3_crawls_terminate_and_stay_deterministic() {
    use origin_bench::{CrawlSpec, H3Report};
    const SITES: u32 = 80;
    const SEED: u64 = 0x4833;

    let clean = CrawlSpec::new(SITES, SEED).run();
    let mut rng = SimRng::seed_from_u64(0x5EED_4833);
    let mut shares = vec![0.0, 1.0];
    for _ in 0..3 {
        shares.push(rng.range_f64(0.05, 0.95));
    }
    for &share in &shares {
        let [one, two, eight] = [1, 2, 8].map(|threads| {
            CrawlSpec {
                threads,
                h3_share: share,
                ..CrawlSpec::new(SITES, SEED)
            }
            .run()
        });
        // Upgrading connections to QUIC changes how requests travel,
        // never how many there are.
        assert_eq!(
            one.characterization.total_requests, clean.characterization.total_requests,
            "share {share}: request count changed"
        );
        assert_eq!(one.characterization.pages, clean.characterization.pages);
        assert_eq!(one.measured.plt.len(), clean.measured.plt.len());
        // The h3 bookkeeping balances: every QUIC connection ran
        // exactly one handshake, 0-RTT spends only banked tickets,
        // and rejected 0-RTT attempts fell back to full handshakes.
        let report = H3Report::build(&clean, &one, share);
        assert_eq!(
            report.counter("h3.connections"),
            report.counter("h3.handshakes_1rtt") + report.counter("h3.handshakes_0rtt"),
            "share {share}: handshake ledger out of balance"
        );
        assert!(
            report.counter("h3.handshakes_0rtt") + report.counter("h3.zero_rtt_rejected")
                <= report.counter("h3.tickets_issued"),
            "share {share}: 0-rtt attempts outran the ticket supply"
        );
        assert!(
            report.counter("h3.zero_rtt_rejected") <= report.counter("h3.handshakes_1rtt"),
            "share {share}: a rejected 0-rtt must land as a 1-rtt handshake"
        );
        if share == 0.0 {
            assert_eq!(report.h3_pages, 0);
            assert!(report.counters.iter().all(|&(_, v)| v == 0));
        } else {
            assert!(report.h3_pages > 0, "share {share}: no h3 pages");
            assert!(report.counter("h3.altsvc_learned") > 0);
        }
        // Thread-count invariance, down to the serialized bytes.
        let json = one.metrics.to_json();
        assert_eq!(json, two.metrics.to_json(), "share {share}: 1 vs 2");
        assert_eq!(json, eight.metrics.to_json(), "share {share}: 1 vs 8");
        assert_eq!(one.measured.plt, eight.measured.plt, "share {share}");
        assert_eq!(
            report.to_json(),
            H3Report::build(&clean, &eight, share).to_json(),
            "share {share}: h3 report diverged"
        );
    }
}
