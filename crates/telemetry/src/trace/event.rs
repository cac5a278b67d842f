//! The event vocabulary: what a call site hands a [`super::Tracer`]
//! and what a reader gets back from [`super::Tracer::events`].

use std::fmt;
use std::net::IpAddr;

/// The static half of an event: its name, its category and the keys
/// of its arguments, in the order the call site passes the values.
/// Declared once per emission site (`static X: Site = Site::new(..)`),
/// so a shard keeps one pointer per site it has seen and an event
/// record carries an 8-bit index into that table instead of a name, a
/// category and a key per argument.
#[derive(Debug, PartialEq, Eq)]
pub struct Site {
    pub(crate) name: &'static str,
    pub(crate) cat: &'static str,
    pub(crate) keys: &'static [&'static str],
}

impl Site {
    /// Describe an emission site. An event may pass fewer values than
    /// `keys` (a trailing optional argument), never more.
    pub const fn new(name: &'static str, cat: &'static str, keys: &'static [&'static str]) -> Self {
        assert!(keys.len() <= u8::MAX as usize);
        Site { name, cat, keys }
    }
}

/// An argument value, borrowed: from the caller when recording, from
/// the tracer's buffer when reading. Strings are stored once per shard
/// at record time; nothing is formatted until export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A float (rendered with shortest round-trip formatting).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// An IP address (rendered as its `Display` string).
    Ip(IpAddr),
}

const TAG_STR: u8 = 0;
const TAG_U64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_FALSE: u8 = 3;
const TAG_TRUE: u8 = 4;
const TAG_V4: u8 = 5;
const TAG_V6: u8 = 6;

/// Append `v` as a LEB128 varint: seven bits a byte, low group first.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes the varint at the front of `bytes` takes up.
fn varint_len(bytes: &[u8]) -> usize {
    1 + bytes
        .iter()
        .position(|b| b & 0x80 == 0)
        .expect("the arena holds whole varints")
}

/// Read the varint at the front of `bytes` and advance past it.
pub(crate) fn read_varint(bytes: &mut &[u8]) -> u64 {
    let (varint, rest) = bytes.split_at(varint_len(bytes));
    *bytes = rest;
    varint
        .iter()
        .rev()
        .fold(0, |v, &b| v << 7 | u64::from(b & 0x7F))
}

impl<'a> Arg<'a> {
    /// Append this value to a shard's value arena: one tag byte, then
    /// the payload — integers and string indices as varints, a string
    /// as the index `intern` gives it in the shard's string table.
    pub(crate) fn encode(self, out: &mut Vec<u8>, intern: impl FnOnce(&str) -> u32) {
        let mut put = |tag, payload: &[u8]| {
            out.push(tag);
            out.extend_from_slice(payload);
        };
        match self {
            Arg::Str(s) => {
                let index = intern(s);
                put(TAG_STR, &[]);
                put_varint(out, u64::from(index));
            }
            Arg::U64(v) => {
                put(TAG_U64, &[]);
                put_varint(out, v);
            }
            Arg::F64(v) => put(TAG_F64, &v.to_le_bytes()),
            Arg::Bool(b) => put(if b { TAG_TRUE } else { TAG_FALSE }, &[]),
            Arg::Ip(IpAddr::V4(ip)) => put(TAG_V4, &ip.octets()),
            Arg::Ip(IpAddr::V6(ip)) => put(TAG_V6, &ip.octets()),
        }
    }

    /// Bytes the value at the front of `bytes` takes up, tag included.
    fn encoded_len(bytes: &[u8]) -> usize {
        1 + match bytes[0] {
            TAG_STR | TAG_U64 => varint_len(&bytes[1..]),
            TAG_F64 => 8,
            TAG_FALSE | TAG_TRUE => 0,
            TAG_V4 => 4,
            TAG_V6 => 16,
            other => unreachable!("unknown value tag {other}"),
        }
    }

    /// Advance `bytes` past `n` values without reading them.
    pub(crate) fn skip(bytes: &mut &[u8], n: u8) {
        for _ in 0..n {
            *bytes = &bytes[Self::encoded_len(bytes)..];
        }
    }

    /// Read the value at the front of `bytes` and advance past it,
    /// looking strings up in the shard's table. The arena only ever
    /// holds what [`Arg::encode`] wrote.
    pub(crate) fn decode(bytes: &mut &[u8], strings: &'a Strings) -> Self {
        let tag = bytes[0];
        *bytes = &bytes[1..];
        let mut fixed = |len| {
            let (payload, rest) = bytes.split_at(len);
            *bytes = rest;
            payload
        };
        match tag {
            TAG_STR => Arg::Str(strings.get(read_varint(bytes))),
            TAG_U64 => Arg::U64(read_varint(bytes)),
            TAG_F64 => Arg::F64(f64::from_le_bytes(array(fixed(8)))),
            TAG_V4 => Arg::Ip(IpAddr::from(array::<4>(fixed(4)))),
            TAG_V6 => Arg::Ip(IpAddr::from(array::<16>(fixed(16)))),
            _ => Arg::Bool(tag == TAG_TRUE),
        }
    }

    /// Equality as the buffer sees it: a float by its bits, so a value
    /// always equals itself.
    fn same(self, other: Self) -> bool {
        match (self, other) {
            (Arg::F64(a), Arg::F64(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// `bytes` as a fixed-size array; its length is the caller's invariant.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("payload length matches its tag")
}

/// A shard's string table: every distinct string value the shard's
/// events carry, once, in order of first use.
#[derive(Debug, Clone, Default)]
pub(crate) struct Strings {
    bytes: String,
    /// Where each string ends in `bytes`.
    ends: Vec<u32>,
}

impl Strings {
    /// An empty table with room for `count` strings of `bytes` bytes.
    pub(crate) fn with_capacity(count: usize, bytes: usize) -> Self {
        Strings {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(count),
        }
    }

    /// Append `s`; returns its index.
    pub(crate) fn push(&mut self, s: &str) -> u32 {
        self.bytes.push_str(s);
        let end = u32::try_from(self.bytes.len()).expect("a shard's strings fit in 4 GiB");
        self.ends.push(end);
        u32::try_from(self.ends.len() - 1).expect("a shard holds fewer than 2^32 strings")
    }

    /// The string at `index`.
    pub(crate) fn get(&self, index: u64) -> &str {
        let i = usize::try_from(index).expect("a string index fits in usize");
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// `(strings, bytes)` held.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.ends.len(), self.bytes.len())
    }

    /// Bytes the table has allocated.
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * size_of::<u32>()
    }

    /// Give back the capacity past what the table holds.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// What kind of trace-event an event is, mapping 1:1 onto the Chrome
/// trace-event phases the exporter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A complete span (`ph:"X"`) lasting [`EventView::dur_us`].
    Complete,
    /// A thread-scoped instant event (`ph:"i"`, `s:"t"`).
    Instant,
    /// Flow start (`ph:"s"`): the producing end of an arrow. The
    /// matching [`EventKind::FlowEnd`] has the same
    /// [`EventView::flow_id`].
    FlowStart,
    /// Flow end (`ph:"f"`, `bp:"e"`): the consuming end of an arrow.
    FlowEnd,
    /// Process-name metadata (`ph:"M"`, name `process_name`).
    ProcessName,
    /// Thread-name metadata (`ph:"M"`, name `thread_name`).
    ThreadName,
}

/// One 12-byte event record. Everything variable-length — name parts,
/// argument values — lives in the shard's value arena, in record
/// order, so a record needs no offset into it; the logical process
/// lives once per visit, in the record that opens it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// Simulated timestamp, µs (0 on a wide record).
    ts_us: u32,
    /// Duration of a complete span, ID of a flow arrow, pid of the
    /// visit a process-name record opens; otherwise 0. (0 on a wide
    /// record.)
    payload: u32,
    /// Index into the shard's site table, which closes at 256 sites.
    site: u8,
    /// Logical thread (0 on a wide record).
    tid: u8,
    /// The kind (bits 0–2), the name parts (bits 3–4) and the wide
    /// flag (bit 5).
    packed: u8,
    nargs: u8,
}

const _: () = assert!(size_of::<Record>() == 12);

/// The kinds by their 3-bit code in [`Record::packed`]: declaration
/// order, which is what `kind as u8` gives.
const KINDS: [EventKind; 6] = [
    EventKind::Complete,
    EventKind::Instant,
    EventKind::FlowStart,
    EventKind::FlowEnd,
    EventKind::ProcessName,
    EventKind::ThreadName,
];
const WIDE: u8 = 1 << 5;

impl Record {
    /// A record of `kind` at `site`. `narrow` is the timestamp, payload
    /// and tid when all three fit their fields; `None` marks a wide
    /// record, whose three lead its values as varints. `name_parts` is
    /// how many values ahead of the arguments the name is put together
    /// from at export: none (the site's name as is), one (a label in
    /// its place) or two (`index`, `host`: `"<site name> 12
    /// a.example"`).
    pub(crate) fn new(
        kind: EventKind,
        site: u8,
        narrow: Option<(u32, u32, u8)>,
        name_parts: u8,
        nargs: u8,
    ) -> Self {
        debug_assert!(name_parts <= 2);
        let (ts_us, payload, tid) = narrow.unwrap_or_default();
        let wide = if narrow.is_none() { WIDE } else { 0 };
        Record {
            ts_us,
            payload,
            site,
            tid,
            packed: kind as u8 | name_parts << 3 | wide,
            nargs,
        }
    }

    pub(crate) fn site(&self) -> usize {
        usize::from(self.site)
    }

    fn kind(&self) -> EventKind {
        KINDS[usize::from(self.packed & 0b111)]
    }

    fn name_parts(&self) -> u8 {
        self.packed >> 3 & 0b11
    }

    fn wide(&self) -> bool {
        self.packed & WIDE != 0
    }
}

/// One buffered event, borrowed from the tracer that holds it.
///
/// `pid` is the *logical* process — the site visit's Tranco rank, not
/// the OS thread that happened to crawl it (worker identity would leak
/// the sharding and break byte-identical output across `--threads`).
/// `tid` is the connection lane inside the visit: 0 is the browser
/// loader itself, `1 + pool index` is each pooled connection.
///
/// Two views are equal when they show the same event, whichever shard
/// and string table they were read from.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    site: &'static Site,
    kind: EventKind,
    name_parts: u8,
    nargs: u8,
    tid: u32,
    ts_us: u64,
    payload: u64,
    pid: u64,
    /// The event's name parts and arguments in the value arena.
    values: &'a [u8],
    strings: &'a Strings,
}

impl<'a> EventView<'a> {
    /// View `rec` of `site`, whose values start at the front of
    /// `arena`, under the logical process `pid` — which a process-name
    /// record sets to its payload, for itself and the events after it.
    /// Returns the view and the arena past this event.
    pub(crate) fn split(
        rec: &Record,
        site: &'static Site,
        pid: &mut u64,
        arena: &'a [u8],
        strings: &'a Strings,
    ) -> (Self, &'a [u8]) {
        let mut rest = arena;
        let (ts_us, payload, tid) = if rec.wide() {
            let ts_us = read_varint(&mut rest);
            let payload = read_varint(&mut rest);
            let tid = u32::try_from(read_varint(&mut rest)).expect("a wide tid was a u32");
            (ts_us, payload, tid)
        } else {
            (rec.ts_us.into(), rec.payload.into(), rec.tid.into())
        };
        let kind = rec.kind();
        if kind == EventKind::ProcessName {
            *pid = payload;
        }
        let values = rest;
        Arg::skip(&mut rest, rec.name_parts());
        Arg::skip(&mut rest, rec.nargs);
        let view = EventView {
            site,
            kind,
            name_parts: rec.name_parts(),
            nargs: rec.nargs,
            tid,
            ts_us,
            payload,
            pid: *pid,
            values: &values[..values.len() - rest.len()],
            strings,
        };
        (view, rest)
    }

    /// Event name (for metadata kinds: the process/thread label),
    /// rendered on demand.
    pub fn name(&self) -> impl fmt::Display + 'a {
        self.name_parts()
    }

    pub(crate) fn name_parts(&self) -> Name<'a> {
        let mut values = self.values;
        let strings = self.strings;
        let mut part = || Arg::decode(&mut values, strings);
        let site_name = self.site.name;
        match self.name_parts {
            0 => Name::Site(site_name),
            1 => match part() {
                Arg::Str(label) => Name::Label(label),
                other => unreachable!("a label is a string, not {other:?}"),
            },
            _ => match (part(), part()) {
                (Arg::U64(index), Arg::Str(host)) => Name::Indexed(site_name, index, host),
                other => unreachable!("an indexed name is (index, host), not {other:?}"),
            },
        }
    }

    /// Category tag (`dns`, `tls`, `h2`, `request`, `phase`, …).
    pub fn cat(&self) -> &'static str {
        self.site.cat
    }

    /// Simulated timestamp in microseconds.
    pub fn ts_us(&self) -> u64 {
        self.ts_us
    }

    /// Logical process (site rank / visit key).
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Logical thread (0 = loader, `1+i` = pooled connection `i`).
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Which trace-event phase this is.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Span length of an [`EventKind::Complete`] event, in simulated
    /// microseconds.
    pub fn dur_us(&self) -> u64 {
        self.payload
    }

    /// Deterministic ID shared by the two ends of a flow arrow.
    pub fn flow_id(&self) -> u64 {
        self.payload
    }

    /// Every value the event holds, name parts first.
    fn values(&self) -> impl Iterator<Item = Arg<'a>> + 'a {
        let (mut values, strings) = (self.values, self.strings);
        let n = usize::from(self.name_parts) + usize::from(self.nargs);
        (0..n).map(move |_| Arg::decode(&mut values, strings))
    }

    /// Key/value annotations, in the order they were recorded.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, Arg<'a>)> + 'a {
        let keys = &self.site.keys[..usize::from(self.nargs)];
        let values = self.values().skip(usize::from(self.name_parts));
        keys.iter().copied().zip(values)
    }
}

impl PartialEq for EventView<'_> {
    fn eq(&self, other: &Self) -> bool {
        let head = |e: &Self| {
            (
                e.kind,
                e.ts_us,
                e.payload,
                e.pid,
                e.tid,
                e.name_parts,
                e.nargs,
            )
        };
        head(self) == head(other)
            && self.site == other.site
            && self.values().zip(other.values()).all(|(a, b)| a.same(b))
    }
}

/// What an event's name is put together from when displayed.
pub(crate) enum Name<'a> {
    /// The site's name, as is.
    Site(&'static str),
    /// A caller-supplied label in its place.
    Label(&'a str),
    /// `"<site name> <index> <host>"`.
    Indexed(&'static str, u64, &'a str),
}

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Name::Site(name) => f.write_str(name),
            Name::Label(label) => f.write_str(label),
            Name::Indexed(name, index, host) => write!(f, "{name} {index} {host}"),
        }
    }
}
