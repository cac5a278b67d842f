//! QPACK field compression (RFC 9204) — HTTP/3's replacement for
//! HPACK, and defined on top of it.
//!
//! The field tables are `origin_h2::hpack::table`'s: one dynamic table
//! addressed by *absolute* insertion index (what QPACK puts on the
//! wire; HPACK reads the same table by position), one hash index per
//! static table, one [`find_indices`] probe, and RFC 7541 §5.1's
//! prefix integer, which RFC 9204 §4.1.1 adopts unchanged. What is
//! here is QPACK's own: the 0-indexed Appendix A static table, the
//! Required Insert Count / Base arithmetic that makes field sections
//! reference dynamic entries relative to a Base carried in the section
//! prefix, and the wire format.
//!
//! QPACK splits the wire into two streams: *encoder instructions*
//! (inserts, which mutate the dynamic table) and *field sections*
//! (the per-request header block, which only references it).
//! [`Encoder::encode`] returns both; the model emits all inserts
//! before the section so no post-base references are needed.
//!
//! Both halves work on borrowed fields ([`FieldRef`]) into buffers the
//! caller keeps: [`Encoder::encode_into`] fills an [`EncodedRequest`]
//! it was handed, [`Decoder::decode_with`] visits each decoded field
//! as `&str`s that point into the section or the tables, and
//! [`Decoder::decode_expecting`] compares them against the list that
//! was encoded — the round-trip check a connection runs per request —
//! without building that list a second time. The owned forms
//! ([`Encoder::encode`], [`Decoder::decode`]) collect from those.
//!
//! Simplifications relative to the RFC, shared by both ends here:
//! strings are raw (the Huffman bit is always 0), the Required Insert
//! Count wraps are not exercised (sections are decoded in insertion
//! order), and blocked-stream accounting is out of scope.

use origin_h2::hpack::table::{find_indices, DynamicTable, StaticIndex};
use origin_h2::hpack::{decode_int, encode_int, IntError};
use std::sync::LazyLock;

pub use origin_h2::hpack::table::{Entry as Field, TableRef};

/// A field the codecs read without owning it: a table entry, or a
/// `(name, value)` pair of borrowed strings.
pub trait FieldRef {
    /// Field name (lowercase).
    fn name(&self) -> &str;
    /// Field value.
    fn value(&self) -> &str;
}

impl FieldRef for Field {
    fn name(&self) -> &str {
        &self.name
    }
    fn value(&self) -> &str {
        &self.value
    }
}

impl FieldRef for (&str, &str) {
    fn name(&self) -> &str {
        self.0
    }
    fn value(&self) -> &str {
        self.1
    }
}

/// The RFC 9204 Appendix A static table (0-indexed on the wire).
pub const STATIC_TABLE: [(&str, &str); 99] = [
    (":authority", ""),
    (":path", "/"),
    ("age", "0"),
    ("content-disposition", ""),
    ("content-length", "0"),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("referer", ""),
    ("set-cookie", ""),
    (":method", "CONNECT"),
    (":method", "DELETE"),
    (":method", "GET"),
    (":method", "HEAD"),
    (":method", "OPTIONS"),
    (":method", "POST"),
    (":method", "PUT"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "103"),
    (":status", "200"),
    (":status", "304"),
    (":status", "404"),
    (":status", "503"),
    ("accept", "*/*"),
    ("accept", "application/dns-message"),
    ("accept-encoding", "gzip, deflate, br"),
    ("accept-ranges", "bytes"),
    ("access-control-allow-headers", "cache-control"),
    ("access-control-allow-headers", "content-type"),
    ("access-control-allow-origin", "*"),
    ("cache-control", "max-age=0"),
    ("cache-control", "max-age=2592000"),
    ("cache-control", "max-age=604800"),
    ("cache-control", "no-cache"),
    ("cache-control", "no-store"),
    ("cache-control", "public, max-age=31536000"),
    ("content-encoding", "br"),
    ("content-encoding", "gzip"),
    ("content-type", "application/dns-message"),
    ("content-type", "application/javascript"),
    ("content-type", "application/json"),
    ("content-type", "application/x-www-form-urlencoded"),
    ("content-type", "image/gif"),
    ("content-type", "image/jpeg"),
    ("content-type", "image/png"),
    ("content-type", "text/css"),
    ("content-type", "text/html; charset=utf-8"),
    ("content-type", "text/plain"),
    ("content-type", "text/plain;charset=utf-8"),
    ("range", "bytes=0-"),
    ("strict-transport-security", "max-age=31536000"),
    (
        "strict-transport-security",
        "max-age=31536000; includesubdomains",
    ),
    (
        "strict-transport-security",
        "max-age=31536000; includesubdomains; preload",
    ),
    ("vary", "accept-encoding"),
    ("vary", "origin"),
    ("x-content-type-options", "nosniff"),
    ("x-xss-protection", "1; mode=block"),
    (":status", "100"),
    (":status", "204"),
    (":status", "206"),
    (":status", "302"),
    (":status", "400"),
    (":status", "403"),
    (":status", "421"),
    (":status", "425"),
    (":status", "500"),
    ("accept-language", ""),
    ("access-control-allow-credentials", "FALSE"),
    ("access-control-allow-credentials", "TRUE"),
    ("access-control-allow-headers", "*"),
    ("access-control-allow-methods", "get"),
    ("access-control-allow-methods", "get, post, options"),
    ("access-control-allow-methods", "options"),
    ("access-control-expose-headers", "content-length"),
    ("access-control-request-headers", "content-type"),
    ("access-control-request-method", "get"),
    ("access-control-request-method", "post"),
    ("alt-svc", "clear"),
    ("authorization", ""),
    (
        "content-security-policy",
        "script-src 'none'; object-src 'none'; base-uri 'none'",
    ),
    ("early-data", "1"),
    ("expect-ct", ""),
    ("forwarded", ""),
    ("if-range", ""),
    ("origin", ""),
    ("purpose", "prefetch"),
    ("server", ""),
    ("timing-allow-origin", "*"),
    ("upgrade-insecure-requests", "1"),
    ("user-agent", ""),
    ("x-forwarded-for", ""),
    ("x-frame-options", "deny"),
    ("x-frame-options", "sameorigin"),
];

/// The index over [`STATIC_TABLE`] (0-based on the wire), built once.
static STATIC_INDEX: LazyLock<StaticIndex> = LazyLock::new(|| StaticIndex::new(&STATIC_TABLE, 0));

/// A malformed encoder stream or field section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpackError {
    /// Input ended inside an instruction or field line.
    Truncated,
    /// A reference pointed outside the live table.
    InvalidReference,
    /// A prefix integer overflowed.
    IntegerOverflow,
    /// A well-formed section decoded to other fields than the ones
    /// [`Decoder::decode_expecting`] was told went in.
    RoundTripMismatch,
}

impl std::fmt::Display for QpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpackError::Truncated => write!(f, "truncated qpack input"),
            QpackError::InvalidReference => write!(f, "invalid table reference"),
            QpackError::IntegerOverflow => write!(f, "prefix integer overflow"),
            QpackError::RoundTripMismatch => {
                write!(f, "decoded fields differ from the encoded ones")
            }
        }
    }
}

impl From<IntError> for QpackError {
    fn from(e: IntError) -> Self {
        match e {
            IntError::Truncated => QpackError::Truncated,
            IntError::Overflow => QpackError::IntegerOverflow,
        }
    }
}

/// QPACK integers are 62-bit (RFC 9204 §4.1.1): nine continuation
/// octets.
const MAX_INT_SHIFT: u32 = 62;

/// Raw (never Huffman-coded) string literal with an N-bit length
/// prefix; the Huffman bit is the lowest flag bit above the prefix.
fn encode_string(out: &mut Vec<u8>, flags: u8, prefix_bits: u8, s: &str) {
    encode_int(s.len() as u64, prefix_bits, flags, out);
    out.extend_from_slice(s.as_bytes());
}

fn decode_string<'a>(
    input: &'a [u8],
    pos: &mut usize,
    prefix_bits: u8,
) -> Result<&'a str, QpackError> {
    let len = decode_int(input, pos, prefix_bits, MAX_INT_SHIFT)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .ok_or(QpackError::Truncated)?;
    let bytes = input.get(*pos..end).ok_or(QpackError::Truncated)?;
    *pos = end;
    std::str::from_utf8(bytes).map_err(|_| QpackError::Truncated)
}

/// The static-table entry a wire index names.
fn static_entry(idx: u64) -> Result<(&'static str, &'static str), QpackError> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| STATIC_TABLE.get(i))
        .copied()
        .ok_or(QpackError::InvalidReference)
}

/// One request's encoded output: the encoder-stream instructions that
/// mutate the dynamic table, and the field section that references it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedRequest {
    /// Encoder-stream bytes (table inserts), possibly empty.
    pub instructions: Vec<u8>,
    /// The encoded field section (prefix + field lines).
    pub section: Vec<u8>,
}

/// Default dynamic-table capacity, matching the h2 stack's
/// SETTINGS_HEADER_TABLE_SIZE default.
pub const DEFAULT_TABLE_SIZE: usize = 4096;

/// The QPACK encoder half of one connection.
#[derive(Debug, Clone)]
pub struct Encoder {
    table: DynamicTable,
    instructions: u64,
    /// Per-field table references of the request being encoded; kept
    /// for its capacity.
    refs: Vec<Option<TableRef>>,
}

impl Encoder {
    /// Encoder with the default table capacity.
    pub fn new() -> Self {
        Self::with_table_size(DEFAULT_TABLE_SIZE)
    }

    /// Encoder with an explicit table capacity.
    pub fn with_table_size(max: usize) -> Self {
        Encoder {
            table: DynamicTable::new(max),
            instructions: 0,
            refs: Vec::new(),
        }
    }

    /// Back to [`Encoder::with_table_size`]`(max)`, keeping every
    /// allocation — for a recycled connection.
    pub fn reset(&mut self, max: usize) {
        self.table.reset(max);
        self.instructions = 0;
    }

    /// Encoder-stream instructions emitted over the lifetime.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic-table evictions over the lifetime.
    pub fn evictions(&self) -> u64 {
        self.table.evictions()
    }

    /// Current dynamic-table occupancy in octets.
    pub fn table_size(&self) -> usize {
        self.table.size()
    }

    /// Encode one field list into fresh buffers.
    pub fn encode(&mut self, fields: &[Field]) -> EncodedRequest {
        let mut out = EncodedRequest::default();
        self.encode_into(fields, &mut out);
        out
    }

    /// Encode one field list, replacing `out`'s contents. All table
    /// inserts are emitted on the encoder stream first, then the
    /// section references the settled table — no post-base references.
    /// With `out` reused across requests a steady-state request
    /// allocates nothing here: the table copies an inserted field into
    /// strings it evicted earlier.
    pub fn encode_into<F: FieldRef>(&mut self, fields: &[F], out: &mut EncodedRequest) {
        out.instructions.clear();
        out.section.clear();
        // Pass 1: table mutations (encoder stream). `None` marks a
        // field the table refused (larger than the whole table): the
        // section carries it as a plain literal.
        let mut refs = std::mem::take(&mut self.refs);
        refs.clear();
        for f in fields {
            let (exact, by_name) = find_indices(&STATIC_INDEX, &self.table, f.name(), f.value());
            refs.push(exact.or_else(|| {
                self.insert_instruction(f.name(), f.value(), by_name, &mut out.instructions)
                    .map(TableRef::Dynamic)
            }));
        }
        // A later insert in this very request may have evicted an
        // entry referenced earlier (tiny tables); dead references
        // travel as literals instead.
        for r in &mut refs {
            if let Some(TableRef::Dynamic(abs)) = *r {
                if self.table.get_absolute(abs).is_none() {
                    *r = None;
                }
            }
        }
        // Pass 2: the field section. Base = insert count after the
        // mutations above, so every dynamic reference is `base - 1 -
        // absolute` and the Required Insert Count is the base itself
        // whenever any dynamic entry is referenced.
        let base = self.table.insert_count();
        let required = refs
            .iter()
            .filter_map(|r| match r {
                Some(TableRef::Dynamic(abs)) => Some(abs + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        // §4.5.1.1: 0 encodes as 0, anything else as value + 1 (the
        // wrap arithmetic is not exercised here).
        let encoded_ric = if required == 0 { 0 } else { required + 1 };
        encode_int(encoded_ric, 8, 0, &mut out.section);
        // Delta Base, sign bit 0: base = required + delta.
        encode_int(base - required, 7, 0, &mut out.section);
        for (f, r) in fields.iter().zip(&refs) {
            match *r {
                // Indexed field line, static (1 T=1 ......).
                Some(TableRef::Static(idx)) => encode_int(idx as u64, 6, 0xc0, &mut out.section),
                // Indexed field line, dynamic (1 T=0), relative to
                // the base.
                Some(TableRef::Dynamic(abs)) => {
                    encode_int(base - 1 - abs, 6, 0x80, &mut out.section)
                }
                // Literal field line with literal name (001 N H).
                None => {
                    encode_string(&mut out.section, 0x20, 3, f.name());
                    encode_string(&mut out.section, 0x00, 7, f.value());
                }
            }
        }
        self.refs = refs;
    }

    /// Emit the cheapest insert instruction for the field and perform
    /// it.
    fn insert_instruction(
        &mut self,
        name: &str,
        value: &str,
        by_name: Option<TableRef>,
        stream: &mut Vec<u8>,
    ) -> Option<u64> {
        let abs = self.table.insert_str(name, value)?;
        self.instructions += 1;
        match by_name {
            // Insert with name reference (1 T nnnnnn): static table.
            Some(TableRef::Static(idx)) => encode_int(idx as u64, 6, 0xc0, stream),
            // Insert with name reference, dynamic: relative to the
            // current insert count (which already includes this
            // insert, hence -2: the referenced entry predates it).
            Some(TableRef::Dynamic(name_abs)) => {
                encode_int(self.table.insert_count() - 2 - name_abs, 6, 0x80, stream)
            }
            // Insert with literal name (01 H nnnnn).
            None => encode_string(stream, 0x40, 5, name),
        }
        encode_string(stream, 0x00, 7, value);
        Some(abs)
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// The QPACK decoder half of one connection.
#[derive(Debug, Clone)]
pub struct Decoder {
    table: DynamicTable,
    /// Where an insert's dynamic name reference is copied out of the
    /// table before the insert that may evict it; kept for capacity.
    name: String,
}

impl Decoder {
    /// Decoder with the default table capacity.
    pub fn new() -> Self {
        Self::with_table_size(DEFAULT_TABLE_SIZE)
    }

    /// Decoder with an explicit table capacity (must match the
    /// encoder's).
    pub fn with_table_size(max: usize) -> Self {
        Decoder {
            table: DynamicTable::new(max),
            name: String::new(),
        }
    }

    /// Back to [`Decoder::with_table_size`]`(max)`, keeping every
    /// allocation — for a recycled connection.
    pub fn reset(&mut self, max: usize) {
        self.table.reset(max);
    }

    /// Dynamic-table evictions over the lifetime (tracks the encoder
    /// exactly when both saw the same instruction stream).
    pub fn evictions(&self) -> u64 {
        self.table.evictions()
    }

    /// Insert count applied so far.
    pub fn insert_count(&self) -> u64 {
        self.table.insert_count()
    }

    /// Apply encoder-stream instructions.
    pub fn apply_instructions(&mut self, input: &[u8]) -> Result<(), QpackError> {
        let mut pos = 0;
        while pos < input.len() {
            let first = input[pos];
            if first & 0x80 != 0 {
                // Insert with name reference.
                let idx = decode_int(input, &mut pos, 6, MAX_INT_SHIFT)?;
                let name = if first & 0x40 != 0 {
                    static_entry(idx)?.0
                } else {
                    let abs = self
                        .table
                        .insert_count()
                        .checked_sub(1 + idx)
                        .ok_or(QpackError::InvalidReference)?;
                    let referenced = self
                        .table
                        .get_absolute(abs)
                        .ok_or(QpackError::InvalidReference)?;
                    self.name.clear();
                    self.name.push_str(&referenced.name);
                    &self.name
                };
                let value = decode_string(input, &mut pos, 7)?;
                self.table.insert_str(name, value);
            } else if first & 0x40 != 0 {
                // Insert with literal name.
                let name = decode_string(input, &mut pos, 5)?;
                let value = decode_string(input, &mut pos, 7)?;
                self.table.insert_str(name, value);
            } else {
                return Err(QpackError::InvalidReference);
            }
        }
        Ok(())
    }

    /// Decode a field section against the current table into an owned
    /// field list.
    pub fn decode(&mut self, section: &[u8]) -> Result<Vec<Field>, QpackError> {
        let mut fields = Vec::new();
        self.decode_with(section, |name, value| fields.push(Field::new(name, value)))?;
        Ok(fields)
    }

    /// Decode a field section and require it to carry exactly
    /// `expected`, in order: the check that what the peer's encoder
    /// put on the two streams is what this end reads off them.
    pub fn decode_expecting<F: FieldRef>(
        &self,
        section: &[u8],
        expected: &[F],
    ) -> Result<(), QpackError> {
        let mut rest = expected.iter();
        let mut same = true;
        self.decode_with(section, |name, value| {
            same &= rest
                .next()
                .is_some_and(|f| f.name() == name && f.value() == value);
        })?;
        if same && rest.next().is_none() {
            Ok(())
        } else {
            Err(QpackError::RoundTripMismatch)
        }
    }

    /// Decode a field section against the current table, handing each
    /// field to `visit` as it is read; the strings point into
    /// `section` or a table and nothing is copied.
    pub fn decode_with(
        &self,
        section: &[u8],
        mut visit: impl FnMut(&str, &str),
    ) -> Result<(), QpackError> {
        let mut pos = 0;
        let encoded_ric = decode_int(section, &mut pos, 8, MAX_INT_SHIFT)?;
        let required = encoded_ric.saturating_sub(1);
        if required > self.table.insert_count() {
            return Err(QpackError::InvalidReference);
        }
        let delta = decode_int(section, &mut pos, 7, MAX_INT_SHIFT)?;
        let base = required + delta;
        while pos < section.len() {
            let first = section[pos];
            if first & 0x80 != 0 {
                // Indexed field line.
                let idx = decode_int(section, &mut pos, 6, MAX_INT_SHIFT)?;
                if first & 0x40 != 0 {
                    let (name, value) = static_entry(idx)?;
                    visit(name, value);
                } else {
                    let abs = base
                        .checked_sub(1 + idx)
                        .ok_or(QpackError::InvalidReference)?;
                    let f = self
                        .table
                        .get_absolute(abs)
                        .ok_or(QpackError::InvalidReference)?;
                    visit(&f.name, &f.value);
                }
            } else if first & 0x20 != 0 {
                // Literal field line with literal name.
                let name = decode_string(section, &mut pos, 3)?;
                let value = decode_string(section, &mut pos, 7)?;
                visit(name, value);
            } else {
                return Err(QpackError::InvalidReference);
            }
        }
        Ok(())
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

    #[test]
    fn static_table_spot_checks() {
        assert_eq!(STATIC_TABLE[0], (":authority", ""));
        assert_eq!(STATIC_TABLE[17], (":method", "GET"));
        assert_eq!(STATIC_TABLE[23], (":scheme", "https"));
        assert_eq!(STATIC_TABLE[25], (":status", "200"));
        assert_eq!(STATIC_TABLE[98], ("x-frame-options", "sameorigin"));
        assert_eq!(STATIC_TABLE.len(), 99);
    }

    #[test]
    fn a_tampered_byte_on_either_stream_is_refused() {
        let fields = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", "cdn.example.com"),
            (":path", "/js/app.js"),
        ];
        let mut enc = Encoder::new();
        let mut wire = EncodedRequest::default();
        enc.encode_into(&fields, &mut wire);
        let synced = |instructions: &[u8]| {
            let mut dec = Decoder::new();
            dec.apply_instructions(instructions).map(|()| dec)
        };
        let dec = synced(&wire.instructions).unwrap();
        assert_eq!(dec.decode_expecting(&wire.section, &fields), Ok(()));
        // A list that is merely a prefix, or longer, is not the list.
        assert_eq!(
            dec.decode_expecting(&wire.section, &fields[..3]),
            Err(QpackError::RoundTripMismatch)
        );
        let longer = [&fields[..], &[("x-extra", "1")]].concat();
        assert_eq!(
            dec.decode_expecting(&wire.section, &longer),
            Err(QpackError::RoundTripMismatch)
        );

        // The section's last byte is the dynamic reference to `:path`:
        // one bit off names the `:authority` entry instead.
        let mut section = wire.section.clone();
        *section.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            dec.decode_expecting(&section, &fields),
            Err(QpackError::RoundTripMismatch)
        );
        // The encoder stream's last byte is the final character of the
        // inserted path: the decoder's table then holds another value.
        let mut instructions = wire.instructions.clone();
        *instructions.last_mut().unwrap() ^= 0x01;
        let dec = synced(&instructions).expect("still well-formed");
        assert_eq!(
            dec.decode_expecting(&wire.section, &fields),
            Err(QpackError::RoundTripMismatch)
        );
    }
}
