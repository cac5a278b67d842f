//! The event vocabulary: what a call site hands a [`crate::Tracer`]
//! and what a reader gets back from [`crate::Tracer::events`].

use std::fmt;
use std::net::IpAddr;

/// The static half of an event: its name, its category and the keys
/// of its arguments, in the order the call site passes the values.
/// Declared once per emission site (`static X: Site = Site::new(..)`),
/// so an event record carries one thin pointer instead of a name, a
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
/// the tracer's buffer when reading. Strings are copied into the
/// buffer at record time; nothing is formatted until export.
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

impl<'a> Arg<'a> {
    /// Append this value to a tracer's value arena: one tag byte, then
    /// the payload (strings as a `u32` length and their bytes).
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        let mut put = |tag, payload: &[u8]| {
            out.push(tag);
            out.extend_from_slice(payload);
        };
        match self {
            Arg::Str(s) => {
                let len = u32::try_from(s.len()).expect("trace string longer than 4 GiB");
                put(TAG_STR, &len.to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Arg::U64(v) => put(TAG_U64, &v.to_le_bytes()),
            Arg::F64(v) => put(TAG_F64, &v.to_le_bytes()),
            Arg::Bool(b) => put(if b { TAG_TRUE } else { TAG_FALSE }, &[]),
            Arg::Ip(IpAddr::V4(ip)) => put(TAG_V4, &ip.octets()),
            Arg::Ip(IpAddr::V6(ip)) => put(TAG_V6, &ip.octets()),
        }
    }

    /// Bytes the value at the front of `bytes` takes up, tag included.
    fn encoded_len(bytes: &[u8]) -> usize {
        1 + match bytes[0] {
            TAG_STR => 4 + u32::from_le_bytes(array(&bytes[1..5])) as usize,
            TAG_U64 | TAG_F64 => 8,
            TAG_FALSE | TAG_TRUE => 0,
            TAG_V4 => 4,
            TAG_V6 => 16,
            other => unreachable!("unknown value tag {other}"),
        }
    }

    /// Advance `bytes` past `n` values without reading them.
    pub(crate) fn skip(bytes: &mut &'a [u8], n: u8) {
        for _ in 0..n {
            *bytes = &bytes[Self::encoded_len(bytes)..];
        }
    }

    /// Read the value at the front of `bytes` and advance past it.
    /// The arena only ever holds what [`Arg::encode`] wrote.
    pub(crate) fn decode(bytes: &mut &'a [u8]) -> Self {
        let (value, rest) = bytes.split_at(Self::encoded_len(bytes));
        *bytes = rest;
        let (tag, payload) = (value[0], &value[1..]);
        match tag {
            TAG_STR => Arg::Str(
                std::str::from_utf8(&payload[4..]).expect("arena strings were copied from &str"),
            ),
            TAG_U64 => Arg::U64(u64::from_le_bytes(array(payload))),
            TAG_F64 => Arg::F64(f64::from_le_bytes(array(payload))),
            TAG_V4 => Arg::Ip(IpAddr::from(array::<4>(payload))),
            TAG_V6 => Arg::Ip(IpAddr::from(array::<16>(payload))),
            _ => Arg::Bool(tag == TAG_TRUE),
        }
    }
}

/// `bytes` as a fixed-size array; its length is the caller's invariant.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("payload length matches its tag")
}

/// What kind of trace-event an event is, mapping 1:1 onto the Chrome
/// trace-event phases the exporter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One fixed-size event record. Everything variable-length — name
/// parts, argument values — lives in the tracer's value arena, in
/// record order, so a record needs no offset into it; the logical
/// process lives once per visit, in the record that opens it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Record {
    pub(crate) ts_us: u64,
    /// Duration of a complete span, ID of a flow arrow, pid of the
    /// visit a process-name record opens; otherwise 0.
    pub(crate) payload: u64,
    pub(crate) site: &'static Site,
    pub(crate) tid: u32,
    pub(crate) kind: EventKind,
    /// Values ahead of the arguments that the name is put together
    /// from at export: none (the site's name as is), one (a label in
    /// its place) or two (`index`, `host`: `"<site name> 12 a.example"`).
    pub(crate) name_parts: u8,
    pub(crate) nargs: u8,
}

/// One buffered event, borrowed from the tracer that holds it.
///
/// `pid` is the *logical* process — the site visit's Tranco rank, not
/// the OS thread that happened to crawl it (worker identity would leak
/// the sharding and break byte-identical output across `--threads`).
/// `tid` is the connection lane inside the visit: 0 is the browser
/// loader itself, `1 + pool index` is each pooled connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventView<'a> {
    rec: &'a Record,
    pid: u64,
    /// The event's own slice of the value arena.
    values: &'a [u8],
}

impl<'a> EventView<'a> {
    /// View `rec`, whose values start at the front of `arena`; returns
    /// the view and the arena past this event.
    pub(crate) fn split(rec: &'a Record, pid: u64, arena: &'a [u8]) -> (Self, &'a [u8]) {
        let mut rest = arena;
        Arg::skip(&mut rest, rec.name_parts);
        Arg::skip(&mut rest, rec.nargs);
        let values = &arena[..arena.len() - rest.len()];
        (EventView { rec, pid, values }, rest)
    }

    /// Event name (for metadata kinds: the process/thread label),
    /// rendered on demand.
    pub fn name(&self) -> impl fmt::Display + 'a {
        self.name_parts()
    }

    pub(crate) fn name_parts(&self) -> Name<'a> {
        let mut values = self.values;
        let mut part = || Arg::decode(&mut values);
        let site_name = self.rec.site.name;
        match self.rec.name_parts {
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
        self.rec.site.cat
    }

    /// Simulated timestamp in microseconds.
    pub fn ts_us(&self) -> u64 {
        self.rec.ts_us
    }

    /// Logical process (site rank / visit key).
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Logical thread (0 = loader, `1+i` = pooled connection `i`).
    pub fn tid(&self) -> u32 {
        self.rec.tid
    }

    /// Which trace-event phase this is.
    pub fn kind(&self) -> EventKind {
        self.rec.kind
    }

    /// Span length of an [`EventKind::Complete`] event, in simulated
    /// microseconds.
    pub fn dur_us(&self) -> u64 {
        self.rec.payload
    }

    /// Deterministic ID shared by the two ends of a flow arrow.
    pub fn flow_id(&self) -> u64 {
        self.rec.payload
    }

    /// Key/value annotations, in the order they were recorded.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, Arg<'a>)> + 'a {
        let mut values = self.values;
        Arg::skip(&mut values, self.rec.name_parts);
        let keys = &self.rec.site.keys[..usize::from(self.rec.nargs)];
        keys.iter().map(move |&k| (k, Arg::decode(&mut values)))
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
