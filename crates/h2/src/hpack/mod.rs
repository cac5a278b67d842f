//! HPACK header compression (RFC 7541).
//!
//! [`Encoder`] and [`Decoder`] hold per-connection state (the dynamic
//! table) and must each be used for exactly one direction of one
//! connection. All four literal representations, indexed fields,
//! Huffman string coding and dynamic table size updates are
//! implemented.

pub mod huffman;
pub mod table;

use crate::error::HpackError;
use table::{find_indices, lookup, wire_index, DynamicTable, STATIC_INDEX};

/// A header field (name must be lowercase per HTTP/2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Field name.
    pub name: String,
    /// Field value.
    pub value: String,
    /// Sensitive fields are encoded never-indexed (RFC 7541 §7.1.3).
    pub sensitive: bool,
}

impl Header {
    /// Construct a regular header.
    pub fn new(name: &str, value: &str) -> Self {
        Header {
            name: name.to_ascii_lowercase(),
            value: value.to_string(),
            sensitive: false,
        }
    }

    /// Construct a sensitive (never-indexed) header.
    pub fn sensitive(name: &str, value: &str) -> Self {
        Header {
            sensitive: true,
            ..Header::new(name, value)
        }
    }
}

// ---- integer primitives (RFC 7541 §5.1, which RFC 9204 §4.1.1
// adopts unchanged: QPACK calls these too) ----

/// The two ways a prefix integer can be malformed; each codec maps
/// them onto its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntError {
    /// Input ended inside the integer.
    Truncated,
    /// More continuation octets than the caller accepts.
    Overflow,
}

impl From<IntError> for HpackError {
    fn from(e: IntError) -> Self {
        match e {
            IntError::Truncated => HpackError::Truncated,
            IntError::Overflow => HpackError::IntegerOverflow,
        }
    }
}

/// Encode an integer with an N-bit prefix; `first` carries the bits
/// above the prefix (representation discriminator).
pub fn encode_int(value: u64, prefix_bits: u8, first: u8, out: &mut Vec<u8>) {
    debug_assert!((1..=8).contains(&prefix_bits));
    let max_prefix = (1u64 << prefix_bits) - 1;
    if value < max_prefix {
        out.push(first | value as u8);
        return;
    }
    out.push(first | max_prefix as u8);
    let mut rest = value - max_prefix;
    while rest >= 128 {
        out.push((rest % 128 + 128) as u8);
        rest /= 128;
    }
    out.push(rest as u8);
}

/// Decode an integer with an N-bit prefix from `buf[*pos..]`.
///
/// `max_shift` is the caller's implementation limit (RFC 7541 §5.1
/// requires one): the shift of the last continuation octet it accepts.
/// HPACK's sizes and indices take 28 (five octets); QPACK's 62-bit
/// integers take 62 (nine), the most a `u64` result can hold.
pub fn decode_int(
    buf: &[u8],
    pos: &mut usize,
    prefix_bits: u8,
    max_shift: u32,
) -> Result<u64, IntError> {
    let first = *buf.get(*pos).ok_or(IntError::Truncated)?;
    *pos += 1;
    let max_prefix = (1u64 << prefix_bits) - 1;
    let mut value = u64::from(first) & max_prefix;
    if value < max_prefix {
        return Ok(value);
    }
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(IntError::Truncated)?;
        *pos += 1;
        let add = u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or(IntError::Overflow)?;
        value = value.checked_add(add).ok_or(IntError::Overflow)?;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > max_shift {
            return Err(IntError::Overflow);
        }
    }
}

/// HPACK's limit for [`decode_int`]: table sizes, indices and string
/// lengths all fit the 35 bits five continuation octets carry.
const MAX_INT_SHIFT: u32 = 28;

fn decode_usize(buf: &[u8], pos: &mut usize, prefix_bits: u8) -> Result<usize, HpackError> {
    let value = decode_int(buf, pos, prefix_bits, MAX_INT_SHIFT)?;
    usize::try_from(value).map_err(|_| HpackError::IntegerOverflow)
}

// ---- string primitives (RFC 7541 §5.2) ----

/// Encode a string literal in one pass: Huffman-code into `scratch`
/// (reused across calls, so steady-state encoding never allocates),
/// then emit whichever representation is shorter. The two-pass
/// `encoded_len` + `encode` split this replaces walked every byte
/// twice; the output is bit-identical because the emit condition
/// (`huffman len < raw len`) is unchanged.
fn encode_string(s: &str, use_huffman: bool, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
    let raw = s.as_bytes();
    if use_huffman {
        scratch.clear();
        huffman::encode(raw, scratch);
        if scratch.len() < raw.len() {
            encode_int(scratch.len() as u64, 7, 0x80, out);
            out.extend_from_slice(scratch);
            return;
        }
    }
    encode_int(raw.len() as u64, 7, 0x00, out);
    out.extend_from_slice(raw);
}

fn decode_string(buf: &[u8], pos: &mut usize) -> Result<String, HpackError> {
    if *pos >= buf.len() {
        return Err(HpackError::Truncated);
    }
    let huffman_coded = buf[*pos] & 0x80 != 0;
    let len = decode_usize(buf, pos, 7)?;
    if *pos + len > buf.len() {
        return Err(HpackError::Truncated);
    }
    let raw = &buf[*pos..*pos + len];
    *pos += len;
    let bytes = if huffman_coded {
        huffman::decode(raw)?
    } else {
        raw.to_vec()
    };
    // Header contents in this stack are UTF-8 (the simulation only
    // produces ASCII); undecodable octets degrade to U+FFFD.
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

// ---- encoder ----

/// HPACK encoder for one direction of one connection.
pub struct Encoder {
    dynamic: DynamicTable,
    /// Whether to Huffman-code strings when it helps.
    pub use_huffman: bool,
    /// A pending dynamic-table size update to emit at the start of
    /// the next header block.
    pending_resize: Option<usize>,
    /// Reused Huffman staging buffer for [`encode_string`]; carries
    /// capacity only, never content, across blocks.
    huff_scratch: Vec<u8>,
}

impl Encoder {
    /// Encoder with the default 4096-octet dynamic table.
    pub fn new() -> Self {
        Encoder {
            dynamic: DynamicTable::new(4096),
            use_huffman: true,
            pending_resize: None,
            huff_scratch: Vec::new(),
        }
    }

    /// Set the dynamic table capacity (from the peer's
    /// SETTINGS_HEADER_TABLE_SIZE); emits a size update in the next
    /// block.
    pub fn set_max_table_size(&mut self, size: usize) {
        self.dynamic.set_max_size(size);
        self.pending_resize = Some(size);
    }

    /// Current dynamic table occupancy in octets.
    pub fn table_size(&self) -> usize {
        self.dynamic.size()
    }

    /// Lifetime count of dynamic-table evictions on the encode side.
    pub fn evictions(&self) -> u64 {
        self.dynamic.evictions()
    }

    /// Encode a header list into one header block, returning a fresh
    /// buffer. Convenience wrapper over [`Encoder::encode_into`].
    pub fn encode(&mut self, headers: &[Header]) -> Vec<u8> {
        let mut out = Vec::with_capacity(headers.len() * 16);
        self.encode_into(headers, &mut out);
        out
    }

    /// Encode a header list into one header block, appending to `out`.
    /// This is the zero-copy path: callers that reuse `out` (and this
    /// encoder, whose Huffman staging buffer is reused too) encode
    /// whole blocks without a single heap allocation at steady state.
    pub fn encode_into(&mut self, headers: &[Header], out: &mut Vec<u8>) {
        if let Some(size) = self.pending_resize.take() {
            encode_int(size as u64, 5, 0x20, out);
        }
        for h in headers {
            self.encode_one(h, out);
        }
    }

    fn encode_one(&mut self, h: &Header, out: &mut Vec<u8>) {
        // One table probe answers both representations: the exact
        // match (indexed field) and the name-only fallback the
        // literal paths need.
        let (exact, by_name) = find_indices(&STATIC_INDEX, &self.dynamic, &h.name, &h.value);
        if let (Some(r), false) = (exact, h.sensitive) {
            // Indexed field (1xxxxxxx).
            encode_int(wire_index(&self.dynamic, r) as u64, 7, 0x80, out);
            return;
        }
        // A literal: never indexed (0001xxxx) when sensitive, with
        // incremental indexing (01xxxxxx) otherwise. The name goes by
        // reference when a table has it; index 0 announces a literal.
        let (prefix_bits, first) = if h.sensitive { (4, 0x10) } else { (6, 0x40) };
        let name_index = by_name.map_or(0, |r| wire_index(&self.dynamic, r));
        encode_int(name_index as u64, prefix_bits, first, out);
        if by_name.is_none() {
            encode_string(&h.name, self.use_huffman, &mut self.huff_scratch, out);
        }
        encode_string(&h.value, self.use_huffman, &mut self.huff_scratch, out);
        if !h.sensitive {
            insert_or_clear(&mut self.dynamic, &h.name, &h.value);
        }
    }
}

/// RFC 7541 §4.4: an entry larger than the whole table empties it.
fn insert_or_clear(table: &mut DynamicTable, name: &str, value: &str) {
    if table.insert_str(name, value).is_none() {
        table.clear();
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

// ---- decoder ----

/// HPACK decoder for one direction of one connection.
pub struct Decoder {
    dynamic: DynamicTable,
    /// Protocol ceiling for dynamic table size updates
    /// (our SETTINGS_HEADER_TABLE_SIZE).
    pub max_allowed_table_size: usize,
}

impl Decoder {
    /// Decoder with the default 4096-octet table.
    pub fn new() -> Self {
        Decoder {
            dynamic: DynamicTable::new(4096),
            max_allowed_table_size: 4096,
        }
    }

    /// Current dynamic table occupancy in octets.
    pub fn table_size(&self) -> usize {
        self.dynamic.size()
    }

    /// Lifetime count of dynamic-table evictions on the decode side.
    pub fn evictions(&self) -> u64 {
        self.dynamic.evictions()
    }

    /// Decode one complete header block.
    pub fn decode(&mut self, block: &[u8]) -> Result<Vec<Header>, HpackError> {
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < block.len() {
            let b = block[pos];
            if b & 0x80 != 0 {
                // Indexed field.
                let idx = decode_usize(block, &mut pos, 7)?;
                let e = lookup(&self.dynamic, idx).ok_or(HpackError::BadIndex(idx))?;
                out.push(Header {
                    name: e.name,
                    value: e.value,
                    sensitive: false,
                });
            } else if b & 0x40 != 0 {
                // Literal with incremental indexing.
                let idx = decode_usize(block, &mut pos, 6)?;
                let name = self.literal_name(block, &mut pos, idx)?;
                let value = decode_string(block, &mut pos)?;
                insert_or_clear(&mut self.dynamic, &name, &value);
                out.push(Header {
                    name,
                    value,
                    sensitive: false,
                });
            } else if b & 0x20 != 0 {
                // Dynamic table size update.
                let size = decode_usize(block, &mut pos, 5)?;
                if size > self.max_allowed_table_size {
                    return Err(HpackError::TableSizeUpdateTooLarge);
                }
                self.dynamic.set_max_size(size);
            } else {
                // Literal without indexing (0x00) or never indexed (0x10).
                let sensitive = b & 0x10 != 0;
                let idx = decode_usize(block, &mut pos, 4)?;
                let name = self.literal_name(block, &mut pos, idx)?;
                let value = decode_string(block, &mut pos)?;
                out.push(Header {
                    name,
                    value,
                    sensitive,
                });
            }
        }
        Ok(out)
    }

    fn literal_name(
        &self,
        block: &[u8],
        pos: &mut usize,
        idx: usize,
    ) -> Result<String, HpackError> {
        if idx == 0 {
            decode_string(block, pos)
        } else {
            Ok(lookup(&self.dynamic, idx)
                .ok_or(HpackError::BadIndex(idx))?
                .name)
        }
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: &str, v: &str) -> Header {
        Header::new(n, v)
    }

    #[test]
    fn integer_primitives_rfc_examples() {
        // RFC 7541 C.1.1: 10 with 5-bit prefix → 0x0a.
        let mut out = Vec::new();
        encode_int(10, 5, 0, &mut out);
        assert_eq!(out, [0x0a]);
        // C.1.2: 1337 with 5-bit prefix → 1f 9a 0a.
        let mut out = Vec::new();
        encode_int(1337, 5, 0, &mut out);
        assert_eq!(out, [0x1f, 0x9a, 0x0a]);
        // C.1.3: 42 on an 8-bit prefix → 0x2a.
        let mut out = Vec::new();
        encode_int(42, 8, 0, &mut out);
        assert_eq!(out, [0x2a]);
        // Roundtrips.
        for prefix in 1..=8u8 {
            // Both sides of the one-octet boundary for this prefix.
            let edge = (1u64 << prefix) - 1;
            for v in [0, 1, edge - 1, edge, edge + 1, 1337, 65_535, 1 << 20] {
                let mut out = Vec::new();
                encode_int(v, prefix, 0, &mut out);
                let mut pos = 0;
                assert_eq!(decode_int(&out, &mut pos, prefix, MAX_INT_SHIFT), Ok(v));
                assert_eq!(pos, out.len());
            }
        }
    }

    #[test]
    fn integer_truncation_detected() {
        let mut pos = 0;
        assert_eq!(decode_usize(&[], &mut pos, 5), Err(HpackError::Truncated));
        // Continuation byte promised but absent.
        let mut pos = 0;
        assert_eq!(
            decode_usize(&[0x1f, 0x80], &mut pos, 5),
            Err(HpackError::Truncated)
        );
    }

    #[test]
    fn integer_overflow_detected() {
        // 6 continuation bytes exceed the shift limit.
        let buf = [0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert_eq!(
            decode_usize(&buf, &mut pos, 5),
            Err(HpackError::IntegerOverflow)
        );
        // The same octets are a legal 62-bit QPACK integer: the limit
        // is the caller's, the arithmetic is shared.
        let mut pos = 0;
        assert_eq!(decode_int(&buf, &mut pos, 5, 62), Ok(31 + ((1 << 42) - 1)));
        // …whose own limit is nine continuation octets, and whose
        // largest accepted value still fits u64.
        let mut nine = vec![0xff; 10];
        nine[9] = 0x7f;
        let mut pos = 0;
        assert_eq!(
            decode_int(&nine, &mut pos, 8, 62),
            Ok(255 + (u64::MAX >> 1))
        );
        nine[9] = 0xff;
        nine.push(0x00);
        let mut pos = 0;
        assert_eq!(decode_int(&nine, &mut pos, 8, 62), Err(IntError::Overflow));
    }

    #[test]
    fn rfc_c2_1_literal_with_indexing() {
        // C.2.1: custom-key: custom-header (no huffman).
        let mut enc = Encoder::new();
        enc.use_huffman = false;
        let block = enc.encode(&[h("custom-key", "custom-header")]);
        assert_eq!(
            block,
            [
                0x40, 0x0a, b'c', b'u', b's', b't', b'o', b'm', b'-', b'k', b'e', b'y', 0x0d, b'c',
                b'u', b's', b't', b'o', b'm', b'-', b'h', b'e', b'a', b'd', b'e', b'r'
            ]
        );
        let mut dec = Decoder::new();
        assert_eq!(
            dec.decode(&block).unwrap(),
            vec![h("custom-key", "custom-header")]
        );
        assert_eq!(dec.table_size(), 55);
    }

    #[test]
    fn rfc_c2_4_indexed_field() {
        // :method: GET is static index 2 → 0x82.
        let mut enc = Encoder::new();
        let block = enc.encode(&[h(":method", "GET")]);
        assert_eq!(block, [0x82]);
    }

    #[test]
    fn rfc_c3_request_sequence_without_huffman() {
        // RFC 7541 C.3: three requests on one connection.
        let mut enc = Encoder::new();
        enc.use_huffman = false;
        let mut dec = Decoder::new();

        let req1 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
        ];
        let b1 = enc.encode(&req1);
        assert_eq!(
            b1,
            [
                0x82, 0x86, 0x84, 0x41, 0x0f, b'w', b'w', b'w', b'.', b'e', b'x', b'a', b'm', b'p',
                b'l', b'e', b'.', b'c', b'o', b'm'
            ]
        );
        assert_eq!(dec.decode(&b1).unwrap(), req1);
        assert_eq!(dec.table_size(), 57);

        let req2 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
            h("cache-control", "no-cache"),
        ];
        let b2 = enc.encode(&req2);
        // RFC 7541 C.3.2 wire bytes: the authority now hits the
        // dynamic table (index 62 → 0xbe).
        assert_eq!(
            b2,
            [0x82, 0x86, 0x84, 0xbe, 0x58, 0x08, b'n', b'o', b'-', b'c', b'a', b'c', b'h', b'e']
        );
        assert_eq!(dec.decode(&b2).unwrap(), req2);
        assert_eq!(dec.table_size(), 110);

        let req3 = [
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/index.html"),
            h(":authority", "www.example.com"),
            h("custom-key", "custom-value"),
        ];
        let b3 = enc.encode(&req3);
        assert_eq!(dec.decode(&b3).unwrap(), req3);
        assert_eq!(dec.table_size(), 164);
    }

    #[test]
    fn huffman_request_roundtrip() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let req = [
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/style/main.css?v=12345"),
            h(":authority", "static.example.com"),
            h("user-agent", "Mozilla/5.0 (X11; Linux x86_64) Firefox/96.0"),
            h("accept-encoding", "gzip, deflate"),
        ];
        let block = enc.encode(&req);
        assert_eq!(dec.decode(&block).unwrap(), req);
        // Second identical request should compress dramatically via
        // the dynamic table.
        let block2 = enc.encode(&req);
        assert!(
            block2.len() < block.len() / 2,
            "{} vs {}",
            block2.len(),
            block.len()
        );
        assert_eq!(dec.decode(&block2).unwrap(), req);
    }

    #[test]
    fn sensitive_headers_never_indexed() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let hdr = Header::sensitive("authorization", "Bearer secret-token");
        let b1 = enc.encode(std::slice::from_ref(&hdr));
        let got = dec.decode(&b1).unwrap();
        assert_eq!(got[0].value, "Bearer secret-token");
        assert!(got[0].sensitive);
        // Never-indexed: a repeat encodes to the same size (no table
        // hit for the value).
        let b2 = enc.encode(std::slice::from_ref(&hdr));
        assert_eq!(b1.len(), b2.len());
        assert_eq!(enc.table_size(), 0);
    }

    #[test]
    fn table_size_update_emitted_and_honored() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        // Warm the tables.
        let hdrs = [h("x-first", "one")];
        dec.decode(&enc.encode(&hdrs)).unwrap();
        assert!(dec.table_size() > 0);
        // Shrink to zero: next block starts with a size update that
        // flushes the peer table.
        enc.set_max_table_size(0);
        let block = enc.encode(&[h("x-second", "two")]);
        assert_eq!(block[0] & 0xe0, 0x20, "first octet must be a size update");
        dec.decode(&block).unwrap();
        assert_eq!(dec.table_size(), 0);
    }

    #[test]
    fn oversized_header_empties_both_tables() {
        // RFC 7541 §4.4: a field larger than the whole table is not an
        // error — it empties the table, on both ends alike.
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        enc.set_max_table_size(64);
        dec.decode(&enc.encode(&[h("x-a", "1")])).unwrap();
        assert_eq!((enc.table_size(), dec.table_size()), (36, 36));
        let big = [h("x-big", &"v".repeat(64))];
        assert_eq!(dec.decode(&enc.encode(&big)).unwrap(), big);
        assert_eq!((enc.table_size(), dec.table_size()), (0, 0));
        assert_eq!((enc.evictions(), dec.evictions()), (1, 1));
        // The evicted field is a literal again, not a stale reference.
        let again = [h("x-a", "1")];
        assert_eq!(dec.decode(&enc.encode(&again)).unwrap(), again);
        assert_eq!((enc.table_size(), dec.table_size()), (36, 36));
    }

    #[test]
    fn oversized_table_update_rejected() {
        let mut dec = Decoder::new();
        let mut block = Vec::new();
        encode_int(65_536, 5, 0x20, &mut block);
        assert_eq!(dec.decode(&block), Err(HpackError::TableSizeUpdateTooLarge));
    }

    #[test]
    fn bad_index_rejected() {
        let mut dec = Decoder::new();
        // Indexed field 70 with empty dynamic table.
        let mut block = Vec::new();
        encode_int(70, 7, 0x80, &mut block);
        assert_eq!(dec.decode(&block), Err(HpackError::BadIndex(70)));
        // Index 0 is never valid for an indexed field.
        assert_eq!(dec.decode(&[0x80]), Err(HpackError::BadIndex(0)));
    }

    #[test]
    fn truncated_string_rejected() {
        let mut dec = Decoder::new();
        // Literal w/ incremental indexing, new name, 10-byte string but
        // only 2 present.
        let block = [0x40, 0x0a, b'a', b'b'];
        assert_eq!(dec.decode(&block), Err(HpackError::Truncated));
    }

    #[test]
    fn response_header_sequence() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let resp = [
            h(":status", "200"),
            h("content-type", "text/html; charset=utf-8"),
            h("content-length", "12345"),
            h("server", "origin-edge/1.0"),
        ];
        let block = enc.encode(&resp);
        assert_eq!(dec.decode(&block).unwrap(), resp);
    }

    #[test]
    fn non_ascii_value_roundtrip() {
        // UTF-8 values survive both plain and Huffman paths.
        for use_huffman in [false, true] {
            let mut enc = Encoder::new();
            enc.use_huffman = use_huffman;
            let mut dec = Decoder::new();
            let hdr = Header {
                name: "x-blob".into(),
                value: "gr\u{00fc}n \u{0001}".into(),
                sensitive: false,
            };
            let block = enc.encode(std::slice::from_ref(&hdr));
            let got = dec.decode(&block).unwrap();
            assert_eq!(got[0].value, hdr.value);
        }
    }
}
