//! The event vocabulary: what a call site hands a [`super::Tracer`]
//! and what a reader gets back from [`super::Tracer::events`].

use std::fmt;
use std::net::IpAddr;

/// The static half of an event: its name, its category and the keys
/// of its arguments, in the order the call site passes the values.
/// Declared once per emission site (`static X: Site = Site::new(..)`),
/// so a shard keeps one pointer per site it has seen and an event's
/// shape carries an 8-bit index into that table instead of a name, a
/// category and a key per argument.
#[derive(Debug, PartialEq, Eq)]
pub struct Site {
    pub(crate) name: &'static str,
    pub(crate) cat: &'static str,
    pub(crate) keys: &'static [&'static str],
}

impl Site {
    /// Describe an emission site, with at most 11 keys. An event may
    /// pass fewer values than `keys` (a trailing optional argument),
    /// never more.
    pub const fn new(name: &'static str, cat: &'static str, keys: &'static [&'static str]) -> Self {
        assert!(keys.len() <= MAX_KEYS, "a site has at most 11 keys");
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

/// The type code a shape records for each of an event's values; a
/// bool's value is its code.
const CODE_STR: u8 = 0;
const CODE_U64: u8 = 1;
const CODE_F64: u8 = 2;
const CODE_FALSE: u8 = 3;
const CODE_TRUE: u8 = 4;
const CODE_V4: u8 = 5;
const CODE_V6: u8 = 6;

/// Append `v` as a LEB128 varint: seven bits a byte, low group first.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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
        .expect("a shard holds whole varints")
}

/// Read the varint at the front of `bytes` and advance past it.
fn read_varint(bytes: &mut &[u8]) -> u64 {
    let (varint, rest) = bytes.split_at(varint_len(bytes));
    *bytes = rest;
    varint
        .iter()
        .rev()
        .fold(0, |v, &b| v << 7 | u64::from(b & 0x7F))
}

impl<'a> Arg<'a> {
    /// This value's type code.
    pub(crate) fn code(self) -> u8 {
        match self {
            Arg::Str(_) => CODE_STR,
            Arg::U64(_) => CODE_U64,
            Arg::F64(_) => CODE_F64,
            Arg::Bool(b) => CODE_FALSE + u8::from(b),
            Arg::Ip(ip) => CODE_V4 + u8::from(ip.is_ipv6()),
        }
    }

    /// Append this value to a shard's byte stream, untagged (its
    /// shape holds its type code): integers and string indices as
    /// varints, a string as the index `intern` gives it in the shard's
    /// string table, a bool as nothing.
    fn encode(self, out: &mut Vec<u8>, intern: impl FnOnce(&str) -> u32) {
        match self {
            Arg::Str(s) => put_varint(out, u64::from(intern(s))),
            Arg::U64(v) => put_varint(out, v),
            Arg::F64(v) => out.extend_from_slice(&v.to_le_bytes()),
            Arg::Bool(_) => {}
            Arg::Ip(IpAddr::V4(ip)) => out.extend_from_slice(&ip.octets()),
            Arg::Ip(IpAddr::V6(ip)) => out.extend_from_slice(&ip.octets()),
        }
    }

    /// Bytes the value of type `code` at the front of `bytes` takes up.
    fn encoded_len(code: u8, bytes: &[u8]) -> usize {
        match code {
            CODE_STR | CODE_U64 => varint_len(bytes),
            CODE_F64 => 8,
            CODE_FALSE | CODE_TRUE => 0,
            CODE_V4 => 4,
            CODE_V6 => 16,
            other => unreachable!("unknown type code {other}"),
        }
    }

    /// Read the value of type `code` at the front of `bytes` and
    /// advance past it, looking strings up in the shard's table. The
    /// stream only ever holds what [`Arg::encode`] wrote.
    fn decode(code: u8, bytes: &mut &[u8], strings: &'a Strings) -> Self {
        let mut fixed = |len| {
            let (payload, rest) = bytes.split_at(len);
            *bytes = rest;
            payload
        };
        match code {
            CODE_STR => Arg::Str(strings.get(read_varint(bytes))),
            CODE_U64 => Arg::U64(read_varint(bytes)),
            CODE_F64 => Arg::F64(f64::from_le_bytes(array(fixed(8)))),
            CODE_V4 => Arg::Ip(IpAddr::from(array::<4>(fixed(4)))),
            CODE_V6 => Arg::Ip(IpAddr::from(array::<16>(fixed(16)))),
            _ => Arg::Bool(code == CODE_TRUE),
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
    bytes
        .try_into()
        .expect("payload length matches its type code")
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

impl EventKind {
    /// The kind whose `kind as u8` is `code`.
    fn from_code(code: u8) -> Self {
        match code {
            0 => EventKind::Complete,
            1 => EventKind::Instant,
            2 => EventKind::FlowStart,
            3 => EventKind::FlowEnd,
            4 => EventKind::ProcessName,
            5 => EventKind::ThreadName,
            other => unreachable!("unknown kind code {other}"),
        }
    }
}

/// An event's fixed fields: what its shape and header hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) kind: EventKind,
    /// How many values ahead of the arguments the name is put together
    /// from at export: none (the site's name as is), one (a label in
    /// its place) or two (`index`, `host`: `"<site name> 12
    /// a.example"`).
    pub(crate) name_parts: u8,
    pub(crate) nargs: u8,
    pub(crate) tid: u32,
    pub(crate) ts_us: u64,
    /// Duration of a complete span, ID of a flow arrow, pid of the
    /// visit a process-name record opens; otherwise 0.
    pub(crate) payload: u64,
}

impl Head {
    /// How many values the event holds: name parts, then arguments.
    fn values(&self) -> usize {
        usize::from(self.name_parts) + usize::from(self.nargs)
    }
}

/// Shape flag bits above the kind (bits 0–2) and the name parts (bits
/// 3–4): a tid follows, a payload follows, the timestamp is a delta
/// from the previous event's start rather than its end.
const TID: u8 = 1 << 5;
const PAYLOAD: u8 = 1 << 6;
const FROM_START: u8 = 1 << 7;

/// An event's shape, but for its site: what its bytes leave out —
/// its kind, name parts and flag bits (bits 0–7), its arg count (bits
/// 8–15) and each value's type code, 3 bits a value from bit 16. A
/// site has at most [`MAX_KEYS`] keys, so an event's values — two name
/// parts at most, then its arguments — fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Shape(u64);

/// The most keys a [`Site`] declares: 13 values' type codes fill the
/// 39 bits a [`Shape`] has for them.
const MAX_KEYS: usize = 11;

impl Shape {
    fn flags(self) -> u8 {
        self.0 as u8
    }

    fn nargs(self) -> u8 {
        (self.0 >> 8) as u8
    }

    /// The type code of the event's `i`th value.
    fn code(self, i: usize) -> u8 {
        (self.0 >> (16 + 3 * i) & 0b111) as u8
    }

    /// How the shard's shape table holds this shape of an event of the
    /// shard's site `site`: the site's index in the top byte.
    pub(crate) fn entry(self, site: u8) -> u64 {
        self.0 | u64::from(site) << 56
    }

    /// A table entry's site index and shape.
    fn of_entry(entry: u64) -> (u8, Shape) {
        ((entry >> 56) as u8, Shape(entry & ((1 << 56) - 1)))
    }
}

/// `delta` read as signed, folded so small magnitudes of either sign
/// make short varints.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// What an event is written against and read back with: the previous
/// event's tid, and where it started and ended. Writer and reader keep
/// it alike — from the default at a shard's start, reset by each
/// process-name record — so an event carries a tid only when it
/// changes, and its timestamp as a short delta from whichever of the
/// two instants its shape names.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    tid: u32,
    start_us: u64,
    /// `start_us`, plus its duration for a complete span.
    end_us: u64,
}

impl Cursor {
    /// The state an event of `kind` is written against: a process-name
    /// record starts afresh.
    fn before(self, kind: EventKind) -> Self {
        match kind {
            EventKind::ProcessName => Cursor::default(),
            _ => self,
        }
    }

    /// The instant a timestamp of shape flags `flags` is a delta from.
    fn reference(&self, flags: u8) -> u64 {
        [self.end_us, self.start_us][usize::from(flags & FROM_START != 0)]
    }

    fn finish(&mut self, head: &Head) {
        self.tid = head.tid;
        self.start_us = head.ts_us;
        self.end_us = match head.kind {
            EventKind::Complete => head.ts_us.wrapping_add(head.payload),
            _ => head.ts_us,
        };
    }

    /// The shape `head`, an event whose values have the type codes
    /// `codes`, takes as the shard's next event: a tid when it changed,
    /// a payload when it is not zero, and its timestamp from the
    /// previous start when that delta is a shorter varint than the one
    /// from the previous end (a span nested in the one before it).
    pub(crate) fn shape(&self, head: &Head, codes: impl Iterator<Item = u8>) -> Shape {
        debug_assert!(head.name_parts <= 2);
        let at = self.before(head.kind);
        let mut flags = head.kind as u8 | head.name_parts << 3;
        if head.tid != at.tid {
            flags |= TID;
        }
        if head.payload != 0 {
            flags |= PAYLOAD;
        }
        // Branch-free, since the nearer instant changes event by event:
        // a varint of `z` takes `ilog2(z | 1) / 7 + 1` bytes.
        let bytes = |from: u64| (zigzag(head.ts_us.wrapping_sub(from)) | 1).ilog2() / 7;
        flags |= FROM_START * u8::from(bytes(at.start_us) < bytes(at.end_us));
        let (mut shape, mut shift) = (u64::from(flags) | u64::from(head.nargs) << 8, 16);
        for code in codes {
            shape |= u64::from(code) << shift;
            shift += 3;
        }
        Shape(shape)
    }

    /// Append `head` with its `values` (name parts, then arguments) as
    /// the shard's shape `index`, which is `shape` ([`Cursor::shape`]'s
    /// for it): the shape byte, then varints — the tid if it changed,
    /// the timestamp as a zigzag delta from the instant its shape
    /// names, a non-zero payload — then each value untagged.
    pub(crate) fn write<'v>(
        &mut self,
        out: &mut Vec<u8>,
        (index, shape): (u8, Shape),
        head: Head,
        values: impl Iterator<Item = Arg<'v>>,
        mut intern: impl FnMut(&str) -> u32,
    ) {
        *self = self.before(head.kind);
        out.push(index);
        let flags = shape.flags();
        if flags & TID != 0 {
            put_varint(out, head.tid.into());
        }
        let from = self.reference(flags);
        put_varint(out, zigzag(head.ts_us.wrapping_sub(from)));
        if flags & PAYLOAD != 0 {
            put_varint(out, head.payload);
        }
        for value in values {
            value.encode(out, &mut intern);
        }
        self.finish(&head);
    }

    /// Read the event [`Cursor::write`] put at the front of `bytes`,
    /// looking its shape up in `shapes` and its site in `sites`, and
    /// advance past it: its site, its head and shape, and its values'
    /// bytes.
    fn read<'a>(
        &mut self,
        bytes: &mut &'a [u8],
        sites: &[&'static Site],
        shapes: &[u64],
    ) -> (&'static Site, Head, Shape, &'a [u8]) {
        let (site, shape) = Shape::of_entry(shapes[usize::from(bytes[0])]);
        *bytes = &bytes[1..];
        let flags = shape.flags();
        let kind = EventKind::from_code(flags & 0b111);
        *self = self.before(kind);
        let tid = if flags & TID != 0 {
            u32::try_from(read_varint(bytes)).expect("a tid was a u32")
        } else {
            self.tid
        };
        let ts_us = self
            .reference(flags)
            .wrapping_add(unzigzag(read_varint(bytes)));
        let payload = if flags & PAYLOAD != 0 {
            read_varint(bytes)
        } else {
            0
        };
        let head = Head {
            kind,
            name_parts: flags >> 3 & 0b11,
            nargs: shape.nargs(),
            tid,
            ts_us,
            payload,
        };
        self.finish(&head);
        let values = *bytes;
        for i in 0..head.values() {
            *bytes = &bytes[Arg::encoded_len(shape.code(i), bytes)..];
        }
        let values = &values[..values.len() - bytes.len()];
        (sites[usize::from(site)], head, shape, values)
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
/// and tables they were read from.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    site: &'static Site,
    head: Head,
    pid: u64,
    /// The type code of each of the event's name parts and arguments.
    shape: Shape,
    /// Their values, as encoded.
    values: &'a [u8],
    strings: &'a Strings,
}

impl<'a> EventView<'a> {
    /// Read the event at the front of a shard's `bytes` and advance
    /// past it, under the logical process `pid` — which a process-name
    /// record sets to its payload, for itself and the events after it.
    pub(crate) fn read(
        bytes: &mut &'a [u8],
        cursor: &mut Cursor,
        pid: &mut u64,
        (sites, shapes, strings): (&[&'static Site], &[u64], &'a Strings),
    ) -> Self {
        let (site, head, shape, values) = cursor.read(bytes, sites, shapes);
        if head.kind == EventKind::ProcessName {
            *pid = head.payload;
        }
        EventView {
            site,
            head,
            pid: *pid,
            shape,
            values,
            strings,
        }
    }

    /// Event name (for metadata kinds: the process/thread label),
    /// rendered on demand.
    pub fn name(&self) -> impl fmt::Display + 'a {
        self.name_parts()
    }

    pub(crate) fn name_parts(&self) -> Name<'a> {
        let mut values = self.values();
        let mut part = || values.next().expect("a name part is a value");
        let site_name = self.site.name;
        match self.head.name_parts {
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
        self.head.ts_us
    }

    /// Logical process (site rank / visit key).
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Logical thread (0 = loader, `1+i` = pooled connection `i`).
    pub fn tid(&self) -> u32 {
        self.head.tid
    }

    /// Which trace-event phase this is.
    pub fn kind(&self) -> EventKind {
        self.head.kind
    }

    /// Span length of an [`EventKind::Complete`] event, in simulated
    /// microseconds.
    pub fn dur_us(&self) -> u64 {
        self.head.payload
    }

    /// Deterministic ID shared by the two ends of a flow arrow.
    pub fn flow_id(&self) -> u64 {
        self.head.payload
    }

    /// Every value the event holds, name parts first.
    fn values(&self) -> impl Iterator<Item = Arg<'a>> + 'a {
        let (mut values, strings, shape) = (self.values, self.strings, self.shape);
        (0..self.head.values()).map(move |i| Arg::decode(shape.code(i), &mut values, strings))
    }

    /// Key/value annotations, in the order they were recorded.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, Arg<'a>)> + 'a {
        let keys = &self.site.keys[..usize::from(self.head.nargs)];
        let values = self.values().skip(usize::from(self.head.name_parts));
        keys.iter().copied().zip(values)
    }
}

impl PartialEq for EventView<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.head, self.pid) == (other.head, other.pid)
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
