//! The event vocabulary: what a call site hands a [`super::Tracer`]
//! and what a reader gets back from [`super::Tracer::events`].

use std::fmt;
use std::net::IpAddr;

/// The static half of an event: its name, its category and the keys
/// of its arguments, in the order the call site passes the values.
/// Declared once per emission site (`static X: Site = Site::new(..)`),
/// so a shard keeps one pointer per site it has seen and an event
/// header carries an 8-bit index into that table instead of a name, a
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
    /// Append this value to a shard's byte stream: one tag byte, then
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
    fn skip(bytes: &mut &[u8], n: u8) {
        for _ in 0..n {
            *bytes = &bytes[Self::encoded_len(bytes)..];
        }
    }

    /// Read the value at the front of `bytes` and advance past it,
    /// looking strings up in the shard's table. The stream only ever
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

/// An event's fixed fields: what its header holds.
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

/// Header flag bits above the kind (bits 0–2) and the name parts
/// (bits 3–4): a tid, a payload or an argument count follows.
const TID: u8 = 1 << 5;
const PAYLOAD: u8 = 1 << 6;
const NARGS: u8 = 1 << 7;

/// `delta` read as signed, folded so small magnitudes of either sign
/// make short varints.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// What an event header is written against and read back with: the
/// previous event's tid and where it ended. Writer and reader keep it
/// alike — from the default at a shard's start, reset by each
/// process-name record — so a header carries a tid only when it
/// changes, and its timestamp as a short delta.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    tid: u32,
    /// The previous event's timestamp, plus its duration for a
    /// complete span.
    end_us: u64,
}

impl Cursor {
    fn start(&mut self, kind: EventKind) {
        if kind == EventKind::ProcessName {
            *self = Cursor::default();
        }
    }

    fn finish(&mut self, head: &Head) {
        self.tid = head.tid;
        self.end_us = match head.kind {
            EventKind::Complete => head.ts_us.wrapping_add(head.payload),
            _ => head.ts_us,
        };
    }

    /// Append the header of `head`, an event of the shard's site
    /// `site`, which has `keys` keys: the site byte, a flags byte, then
    /// the argument count when it differs from `keys`, the tid when it
    /// changed, the timestamp as a zigzag delta from the previous
    /// event's end and a non-zero payload, as varints.
    pub(crate) fn write(&mut self, out: &mut Vec<u8>, site: u8, keys: usize, head: Head) {
        debug_assert!(head.name_parts <= 2);
        self.start(head.kind);
        let mut flags = head.kind as u8 | head.name_parts << 3;
        if usize::from(head.nargs) != keys {
            flags |= NARGS;
        }
        if head.tid != self.tid {
            flags |= TID;
        }
        if head.payload != 0 {
            flags |= PAYLOAD;
        }
        out.extend_from_slice(&[site, flags]);
        if flags & NARGS != 0 {
            out.push(head.nargs);
        }
        if flags & TID != 0 {
            put_varint(out, head.tid.into());
        }
        put_varint(out, zigzag(head.ts_us.wrapping_sub(self.end_us)));
        if flags & PAYLOAD != 0 {
            put_varint(out, head.payload);
        }
        self.finish(&head);
    }

    /// Read the header [`Cursor::write`] put at the front of `bytes`,
    /// looking its site up in `sites`, and advance past it.
    fn read(&mut self, bytes: &mut &[u8], sites: &[&'static Site]) -> (&'static Site, Head) {
        let site = sites[usize::from(bytes[0])];
        let flags = bytes[1];
        *bytes = &bytes[2..];
        let kind = EventKind::from_code(flags & 0b111);
        self.start(kind);
        let nargs = if flags & NARGS != 0 {
            let n = bytes[0];
            *bytes = &bytes[1..];
            n
        } else {
            site.keys.len() as u8
        };
        let tid = if flags & TID != 0 {
            u32::try_from(read_varint(bytes)).expect("a tid was a u32")
        } else {
            self.tid
        };
        let ts_us = self.end_us.wrapping_add(unzigzag(read_varint(bytes)));
        let payload = if flags & PAYLOAD != 0 {
            read_varint(bytes)
        } else {
            0
        };
        let head = Head {
            kind,
            name_parts: flags >> 3 & 0b11,
            nargs,
            tid,
            ts_us,
            payload,
        };
        self.finish(&head);
        (site, head)
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
    head: Head,
    pid: u64,
    /// The event's name parts and arguments, as encoded.
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
        sites: &[&'static Site],
        strings: &'a Strings,
    ) -> Self {
        let (site, head) = cursor.read(bytes, sites);
        if head.kind == EventKind::ProcessName {
            *pid = head.payload;
        }
        let values = *bytes;
        Arg::skip(bytes, head.name_parts);
        Arg::skip(bytes, head.nargs);
        EventView {
            site,
            head,
            pid: *pid,
            values: &values[..values.len() - bytes.len()],
            strings,
        }
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
        let (mut values, strings) = (self.values, self.strings);
        let n = usize::from(self.head.name_parts) + usize::from(self.head.nargs);
        (0..n).map(move |_| Arg::decode(&mut values, strings))
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
