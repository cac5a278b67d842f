//! The per-worker trace buffer.

use super::event::{Arg, Cursor, EventKind, EventView, Head, Shape, Site, Strings};
use origin_netsim::hash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::Hasher;

/// The span-ID minting formula: pid (site rank) in the high bits, the
/// per-visit sequence in the low 24. Exposed as a pure function so
/// out-of-band consumers — sketch exemplars in `obs` — can name
/// a span in a visit's namespace without holding the tracer.
pub const fn span_ref(pid: u64, seq: u64) -> u64 {
    (pid << 24) | (seq & 0xFF_FFFF)
}

static PROCESS: Site = Site::new("process_name", "meta", &[]);
static LOADER: Site = Site::new("loader", "meta", &[]);
static CONN: Site = Site::new("conn", "meta", &[]);

/// Events a shard holds before the next visit opens a new one. A
/// bounded shard's stream is an allocation of some tens of KiB, which
/// the allocator hands back warm; one stream doubling through a whole
/// crawl is mapped afresh, and page-faulted in, on every run (+2–8% on
/// `crawl-mixed` when it was tried). Each shard stores its own shapes
/// and strings, so a shard of 1,024 events spent 1.06 bytes an event on
/// its tables where one of 4,096 spends 0.67.
const SHARD_EVENTS: usize = 4096;

/// One tracer's own stretch of the event stream: one byte stream in
/// which each event is a shape byte, a few varints and its untagged
/// values (see [`Cursor::write`]), and the three tables the events
/// index — the emission sites, the shapes (at most 256; each a site's
/// index and a [`Shape`] in one word) and the distinct strings the
/// shard has seen. An event holds no offset and — bar the process-name
/// record that opens each visit — no pid; its tid only when it changes
/// and its timestamp as a delta, so a shard reads front to back only.
/// A closed shard holds no spare capacity.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Logical process of the events ahead of the first visit.
    pid: u64,
    /// Events in `bytes`.
    len: usize,
    bytes: Vec<u8>,
    /// Never more than `shapes`: each site an event names is part of
    /// its shape.
    sites: Vec<&'static Site>,
    shapes: Vec<u64>,
    strings: Strings,
}

impl Shard {
    /// An empty shard for `pid`, sized to hold what `self` holds.
    fn sized_like(&self, pid: u64) -> Shard {
        let (strings, string_bytes) = self.strings.len();
        Shard {
            pid,
            len: 0,
            bytes: Vec::with_capacity(self.bytes.len()),
            sites: Vec::with_capacity(self.sites.len()),
            shapes: Vec::with_capacity(self.shapes.len()),
            strings: Strings::with_capacity(strings, string_bytes),
        }
    }

    /// Give back the spare capacity of a shard that takes no more
    /// events.
    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.sites.shrink_to_fit();
        self.shapes.shrink_to_fit();
        self.strings.shrink_to_fit();
    }

    fn events(&self) -> impl Iterator<Item = EventView<'_>> {
        let mut bytes = self.bytes.as_slice();
        let (mut cursor, mut pid) = (Cursor::default(), self.pid);
        let tables = (&self.sites[..], &self.shapes[..], &self.strings);
        (0..self.len).map(move |_| EventView::read(&mut bytes, &mut cursor, &mut pid, tables))
    }

    /// Bytes allocated for the event stream, for the site and shape
    /// tables and for the string table.
    fn footprint(&self) -> [usize; 3] {
        [
            self.bytes.capacity(),
            self.sites.capacity() * size_of::<&Site>() + self.shapes.capacity() * size_of::<u64>(),
            self.strings.capacity(),
        ]
    }
}

/// Where the open shard's shapes and strings sit in its tables: the
/// lookups recording needs and reading does not, so a closed shard does
/// not carry them.
#[derive(Debug, Clone, Default)]
struct Index {
    /// By the site's address and the shape; a site is found by a walk
    /// of its table, once per new shape.
    shapes: FxHashMap<(usize, Shape), u8>,
    /// By the string's hash. Two strings with one hash keep the first's
    /// index; the second is stored again each time it is met.
    strings: FxHashMap<u64, u32>,
}

impl Index {
    fn string(&mut self, s: &str, table: &mut Strings) -> u32 {
        match self.strings.entry(Self::hash(s)) {
            Entry::Occupied(seen) if table.get(u64::from(*seen.get())) == s => *seen.get(),
            Entry::Occupied(_) => table.push(s),
            Entry::Vacant(slot) => *slot.insert(table.push(s)),
        }
    }

    fn hash(s: &str) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(s.as_bytes());
        hasher.finish()
    }

    fn clear(&mut self) {
        self.shapes.clear();
        self.strings.clear();
    }
}

/// A buffer of trace events with the same merge discipline as the
/// metrics registry: each crawl worker owns one, and the driver merges
/// shards back in rank order, reproducing sequential event order.
/// Recording an event appends a few bytes to one stream and formats
/// nothing; names and numbers are rendered by the reader
/// ([`Tracer::events`], the exporter).
///
/// A tracer carries a *visit context* — the current logical process
/// ([`Tracer::begin_visit`]), logical thread ([`Tracer::set_tid`]) and
/// simulated-time cursor ([`Tracer::set_now_us`]) — so deep layers
/// (the DNS resolver, the h2 connection) can emit events without
/// knowing which site they are serving.
///
/// IDs are minted by [`Tracer::next_id`] from `(pid, per-visit
/// sequence)` alone. Because a visit is always traced start-to-finish
/// by one worker, the sequence — and therefore every ID — is a pure
/// function of the visit, independent of sharding.
///
/// Two tracers are equal when they buffer the same events; the visit
/// context is not compared.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Shards merged in so far; they precede `open` in the stream.
    merged: Vec<Shard>,
    /// The shard this tracer records into.
    open: Shard,
    /// The open shard's table lookups; cleared when it closes.
    index: Index,
    /// The open shard's header state as its last event left it.
    cursor: Cursor,
    pid: u64,
    tid: u32,
    now_us: u64,
    seq: u64,
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        self.events().eq(other.events())
    }
}

impl Tracer {
    /// New empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a visit: set the logical process to `pid` (the site's
    /// rank, or a reserved band for non-crawl phases), reset the
    /// per-visit ID sequence and time cursor, and emit process
    /// metadata plus a `loader` label for thread 0.
    pub fn begin_visit(&mut self, pid: u64, label: &str) {
        self.pid = pid;
        self.tid = 0;
        self.now_us = 0;
        self.seq = 0;
        if self.open.len >= SHARD_EVENTS {
            // The next shard will fill much as this one did: size its
            // stream and tables once instead of doubling up to there
            // again.
            self.close(self.open.sized_like(pid));
        }
        let process = (EventKind::ProcessName, pid);
        self.push(&PROCESS, process, 0, 0, &[Arg::Str(label)], &[]);
        self.push(&LOADER, (EventKind::ThreadName, 0), 0, 0, &[], &[]);
    }

    /// Label logical thread `tid` of the current visit as connection
    /// `conn_no` to `host` (shown as the track name `conn 3 host` in
    /// Perfetto).
    pub fn name_conn(&mut self, tid: u32, conn_no: u64, host: &str) {
        let name = [Arg::U64(conn_no), Arg::Str(host)];
        self.push(&CONN, (EventKind::ThreadName, 0), 0, tid, &name, &[]);
    }

    /// Switch the current logical thread (connection lane).
    pub fn set_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Move the simulated-time cursor used by [`Tracer::instant`].
    pub fn set_now_us(&mut self, us: u64) {
        self.now_us = us;
    }

    /// Mint the next deterministic ID for this visit: the pid in the
    /// high bits, the per-visit sequence in the low 24. No wall clock,
    /// no global counter — byte-identical across runs and shardings.
    pub fn next_id(&mut self) -> u64 {
        let id = span_ref(self.pid, self.seq);
        self.seq += 1;
        id
    }

    /// Record a complete span; `args` are the values of `site`'s keys,
    /// in order.
    pub fn complete(&mut self, site: &'static Site, ts_us: u64, dur_us: u64, args: &[Arg<'_>]) {
        let span = (EventKind::Complete, dur_us);
        self.push(site, span, ts_us, self.tid, &[], args);
    }

    /// Record a complete span named `"<site name> <index> <host>"`
    /// (`req 12 cdn.example`); the name is put together at export.
    pub fn complete_indexed(
        &mut self,
        site: &'static Site,
        (index, host): (u64, &str),
        ts_us: u64,
        dur_us: u64,
        args: &[Arg<'_>],
    ) {
        let name = [Arg::U64(index), Arg::Str(host)];
        let span = (EventKind::Complete, dur_us);
        self.push(site, span, ts_us, self.tid, &name, args);
    }

    /// Record an instant event at the current time cursor.
    pub fn instant(&mut self, site: &'static Site, args: &[Arg<'_>]) {
        self.instant_at(site, self.now_us, args);
    }

    /// Record an instant event at an explicit timestamp.
    pub fn instant_at(&mut self, site: &'static Site, ts_us: u64, args: &[Arg<'_>]) {
        self.push(site, (EventKind::Instant, 0), ts_us, self.tid, &[], args);
    }

    /// Record the producing end of a flow arrow on thread `tid` at
    /// `ts_us`; pair with [`Tracer::flow_end`] using the same `id`.
    pub fn flow_start(&mut self, id: u64, site: &'static Site, ts_us: u64, tid: u32) {
        self.push(site, (EventKind::FlowStart, id), ts_us, tid, &[], &[]);
    }

    /// Record the consuming end of a flow arrow on the current thread.
    pub fn flow_end(&mut self, id: u64, site: &'static Site, ts_us: u64) {
        self.push(site, (EventKind::FlowEnd, id), ts_us, self.tid, &[], &[]);
    }

    /// The open shard's index of the shape of `head`, an event of
    /// `site` whose values have the type codes `codes`, and the shape.
    fn shape(
        &mut self,
        site: &'static Site,
        head: &Head,
        codes: impl Iterator<Item = u8> + Clone,
    ) -> (u8, Shape) {
        let address = std::ptr::from_ref(site) as usize;
        let shape = self.cursor.shape(head, codes.clone());
        match self.index.shapes.get(&(address, shape)) {
            Some(&index) => (index, shape),
            None => self.new_shape(site, head, codes),
        }
    }

    /// [`Tracer::shape`] for a shape the open shard does not hold:
    /// added to its table — and the site to the site table, if new. A
    /// shape the full table has no room for closes the shard: it opens
    /// the next one, whose tables are empty. A new site is a new shape,
    /// so the site table fills no sooner than the shape table.
    #[cold]
    fn new_shape(
        &mut self,
        site: &'static Site,
        head: &Head,
        codes: impl Iterator<Item = u8>,
    ) -> (u8, Shape) {
        if self.open.shapes.len() > usize::from(u8::MAX) {
            self.close(self.open.sized_like(self.pid));
        }
        // The cursor may have started afresh with the shard.
        let shape = self.cursor.shape(head, codes);
        let address = std::ptr::from_ref(site) as usize;
        let Shard { sites, shapes, .. } = &mut self.open;
        let at = match sites.iter().position(|&s| std::ptr::eq(s, site)) {
            Some(at) => at,
            None => {
                sites.push(site);
                sites.len() - 1
            }
        };
        let at = u8::try_from(at).expect("a shard has no more sites than shapes");
        let index = u8::try_from(shapes.len()).expect("a full shape table was closed");
        shapes.push(shape.entry(at));
        self.index.shapes.insert((address, shape), index);
        (index, shape)
    }

    /// The one place an event enters the buffer: its shape, header
    /// fields and values, appended to the open shard's stream.
    fn push(
        &mut self,
        site: &'static Site,
        (kind, payload): (EventKind, u64),
        ts_us: u64,
        tid: u32,
        name: &[Arg<'_>],
        args: &[Arg<'_>],
    ) {
        assert!(
            args.len() <= site.keys.len(),
            "more arguments than {} has keys",
            site.name
        );
        let head = Head {
            kind,
            name_parts: name.len() as u8,
            nargs: args.len() as u8,
            tid,
            ts_us,
            payload,
        };
        let values = name.iter().chain(args).copied();
        let shape = self.shape(site, &head, values.clone().map(Arg::code));
        let Tracer {
            open,
            index,
            cursor,
            ..
        } = self;
        cursor.write(&mut open.bytes, shape, head, values, |s| {
            index.string(s, &mut open.strings)
        });
        open.len += 1;
    }

    /// Append another tracer's events. Merging rank-ordered shards in
    /// rank order reproduces the sequential event stream exactly — the
    /// same spine `metrics::Registry` and the crawl series ride.
    /// The other tracer's shards are moved in, not copied: a trace is
    /// written once, by the worker that recorded it.
    pub fn merge(&mut self, other: Tracer) {
        self.close(Shard {
            pid: self.pid,
            ..Shard::default()
        });
        let mut open = other.open;
        open.shrink_to_fit();
        let shards = other.merged.into_iter().chain([open]);
        self.merged.extend(shards.filter(|s| s.len > 0));
    }

    /// Close the open shard, trimmed to what it holds, and record into
    /// `next` from here on.
    fn close(&mut self, next: Shard) {
        let mut open = std::mem::replace(&mut self.open, next);
        self.index.clear();
        self.cursor = Cursor::default();
        if open.len > 0 {
            open.shrink_to_fit();
            self.merged.push(open);
        }
    }

    fn shards(&self) -> impl Iterator<Item = &Shard> {
        self.merged.iter().chain([&self.open])
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.shards().map(|s| s.len).sum()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> impl Iterator<Item = EventView<'_>> {
        self.shards().flat_map(Shard::events)
    }

    /// Bytes allocated for the shards' event streams, site and shape
    /// tables and string tables, spare capacity included: what the buffer costs,
    /// to divide by [`Tracer::len`].
    #[doc(hidden)]
    pub fn footprint(&self) -> [usize; 3] {
        self.shards()
            .map(Shard::footprint)
            .fold([0; 3], |total, shard| {
                [0, 1, 2].map(|i| total[i] + shard[i])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    impl Tracer {
        /// Count events whose name matches `name` exactly.
        fn count_named(&self, name: &str) -> usize {
            let mut rendered = String::new();
            self.events()
                .filter(|e| {
                    rendered.clear();
                    let _ = write!(rendered, "{}", e.name());
                    rendered == name
                })
                .count()
        }
    }

    static REQ: Site = Site::new("req", "request", &["k"]);
    static HIT: Site = Site::new("hit", "dns", &[]);
    static NOISE: Site = Site::new("noise", "dns", &[]);
    static COALESCE: Site = Site::new("coalesce", "flow", &[]);

    fn visit(pid: u64) -> Tracer {
        let mut t = Tracer::new();
        record_visit(&mut t, pid);
        t
    }

    fn record_visit(t: &mut Tracer, pid: u64) {
        t.begin_visit(pid, "site");
        t.complete(&REQ, 10, 5, &[Arg::U64(1)]);
        t.instant_at(&HIT, 12, &[]);
        let id = t.next_id();
        t.flow_start(id, &COALESCE, 1, 1);
        t.flow_end(id, &COALESCE, 10);
    }

    /// Every closed shard's stream and tables are exactly as large as
    /// what they hold.
    fn assert_closed_shards_are_trimmed(t: &Tracer) {
        for shard in &t.merged {
            assert_eq!(shard.bytes.capacity(), shard.bytes.len());
            assert_eq!(shard.sites.capacity(), shard.sites.len());
            assert_eq!(shard.shapes.capacity(), shard.shapes.len());
            assert!(shard.sites.len() <= shard.shapes.len());
            let (strings, bytes) = shard.strings.len();
            assert_eq!(shard.strings.capacity(), bytes + strings * size_of::<u32>());
        }
    }

    #[test]
    fn closed_shards_give_back_their_spare_capacity() {
        let mut t = Tracer::new();
        for pid in 0..1_600 {
            record_visit(&mut t, pid);
        }
        assert!(t.merged.len() >= 2, "begin_visit closed full shards");
        assert_closed_shards_are_trimmed(&t);
        let mut other = Tracer::new();
        for pid in 1_600..1_650 {
            record_visit(&mut other, pid);
        }
        t.merge(other);
        assert_closed_shards_are_trimmed(&t);
        let pids: Vec<u64> = t.events().map(|e| e.pid()).step_by(6).collect();
        assert_eq!(pids, (0..1_650).collect::<Vec<_>>());
    }

    #[test]
    fn a_header_carries_a_tid_only_when_it_changes() {
        let mut t = Tracer::new();
        t.begin_visit(1, "x");
        let mut sizes = Vec::new();
        for (tid, ts) in [(300, 5), (300, 6), (2, 7), (2, 8)] {
            let before = t.open.bytes.len();
            t.set_tid(tid);
            t.instant_at(&HIT, ts, &[]);
            sizes.push(t.open.bytes.len() - before);
        }
        // The shape, then tid 300 in two bytes and a 1-byte delta; the
        // same tid again is left out; tid 2 takes one byte.
        assert_eq!(sizes, [4, 2, 3, 2]);
        let seen: Vec<_> = t.events().skip(2).map(|e| (e.ts_us(), e.tid())).collect();
        assert_eq!(seen, [(5, 300), (6, 300), (7, 2), (8, 2)]);
    }

    #[test]
    fn a_timestamp_is_a_delta_from_the_previous_events_start_or_end() {
        let mut t = Tracer::new();
        t.begin_visit(1, "x");
        t.complete(&REQ, 1_000_000, 250_000, &[Arg::U64(1)]);
        let mut sizes = Vec::new();
        // 1,250,000 µs is where the span ended: a zero delta, and
        // a step back costs what a step forward does. A span nested
        // in the one before it counts from that one's start.
        for (ts, dur) in [
            (1_250_000, 0),
            (1_249_990, 0),
            (1_250_000, 100_000),
            (1_250_020, 0),
        ] {
            let before = t.open.bytes.len();
            match dur {
                0 => t.instant_at(&HIT, ts, &[]),
                _ => t.complete(&REQ, ts, dur, &[Arg::U64(2)]),
            }
            sizes.push(t.open.bytes.len() - before);
        }
        // Shape and delta; the span adds its 3-byte duration and value.
        assert_eq!(sizes, [2, 2, 6, 2]);
        assert_eq!(
            t.open.shapes.len(),
            5,
            "the last instant counts from the start"
        );
        let seen: Vec<_> = t.events().skip(2).map(|e| e.ts_us()).collect();
        assert_eq!(
            seen,
            [1_000_000, 1_250_000, 1_249_990, 1_250_000, 1_250_020]
        );
    }

    #[test]
    fn the_257th_site_of_a_shard_opens_the_next_one() {
        let sites: Vec<&'static Site> = (0..300)
            .map(|i| {
                let name: &'static str = String::leak(format!("s{i}"));
                &*Box::leak(Box::new(Site::new(name, "c", &["i"])))
            })
            .collect();
        let mut t = Tracer::new();
        t.begin_visit(7, "many");
        for (i, &site) in (0..).zip(&sites) {
            t.instant_at(site, i, &[Arg::U64(i)]);
        }
        assert_eq!(t.merged.len(), 1, "one shard closed mid-visit");
        assert_eq!(t.merged[0].sites.len(), 256);
        assert_eq!(t.merged[0].shapes.len(), 256);
        assert_closed_shards_are_trimmed(&t);
        let seen: Vec<_> = t
            .events()
            .skip(2)
            .map(|e| (e.name().to_string(), e.ts_us(), e.pid(), e.args().next()))
            .collect();
        let want: Vec<_> = (0..300)
            .map(|i| (format!("s{i}"), i, 7, Some(("i", Arg::U64(i)))))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn the_257th_shape_of_a_shard_opens_the_next_one() {
        static FOUR: Site = Site::new("four", "c", &["a", "b", "c", "d"]);
        let mut t = Tracer::new();
        t.begin_visit(7, "shapes");
        // Each of four values a string, a u64 or either bool: 256
        // patterns, the first 254 of them in the first shard beside
        // the two metadata shapes.
        let value = |n: u64| match n % 4 {
            0 => Arg::Str("s"),
            1 => Arg::U64(n),
            2 => Arg::Bool(false),
            _ => Arg::Bool(true),
        };
        for n in 0..256 {
            let args = [value(n), value(n / 4), value(n / 16), value(n / 64)];
            t.instant_at(&FOUR, n, &args);
        }
        assert_eq!(t.merged.len(), 1, "one shard closed mid-visit");
        assert_eq!(t.merged[0].shapes.len(), 256);
        assert_eq!(t.merged[0].sites.len(), 3);
        assert_eq!((t.merged[0].len, t.open.len), (256, 2));
        assert_closed_shards_are_trimmed(&t);
        let seen: Vec<_> = t.events().skip(2).map(|e| e.args().nth(3)).collect();
        let want: Vec<_> = (0..256).map(|n| Some(("d", value(n / 64)))).collect();
        assert_eq!(seen, want);
    }

    /// Two name parts and eleven arguments: thirteen type codes, the
    /// last beside the site index in its table entry.
    #[test]
    fn a_site_takes_eleven_keys_and_no_more() {
        static ELEVEN: Site = Site::new("eleven", "c", &["k"; 11]);
        let v6 = Arg::Ip("::1".parse().expect("an address"));
        let args = [v6, Arg::Bool(true), Arg::F64(0.5)].repeat(4);
        let mut t = Tracer::new();
        t.begin_visit(1, "wide");
        t.complete_indexed(&ELEVEN, (7, "h.example"), 5, 6, &args[..11]);
        t.instant_at(&ELEVEN, 9, &args[1..12]);
        let read: Vec<Vec<_>> = t
            .events()
            .skip(2)
            .map(|e| e.args().map(|(_, v)| v).collect())
            .collect();
        assert_eq!(read, [&args[..11], &args[1..12]]);
        let panicked = std::panic::catch_unwind(|| Site::new("twelve", "c", &["k"; 12]));
        assert!(panicked.is_err(), "a twelfth key is refused");
    }

    #[test]
    fn ids_derive_from_pid_and_sequence_only() {
        let mut a = Tracer::new();
        a.begin_visit(7, "x");
        let mut b = Tracer::new();
        b.begin_visit(7, "x");
        // Interleave unrelated work on b; IDs still match a's.
        b.instant_at(&NOISE, 1, &[]);
        assert_eq!(a.next_id(), b.next_id());
        assert_eq!(a.next_id(), b.next_id());
        // A different visit mints from a different namespace.
        let mut c = Tracer::new();
        c.begin_visit(8, "y");
        assert_ne!(a.next_id(), c.next_id());
    }

    #[test]
    fn begin_visit_resets_sequence() {
        let mut t = Tracer::new();
        t.begin_visit(1, "a");
        let first = t.next_id();
        t.begin_visit(1, "a");
        assert_eq!(t.next_id(), first, "sequence restarts per visit");
    }

    #[test]
    fn merge_preserves_order() {
        let mut merged = visit(1);
        merged.merge(visit(2));
        let seq = visit(1);
        let pids: Vec<u64> = merged.events().map(|e| e.pid()).collect();
        assert_eq!(pids[..seq.len()], vec![1; seq.len()]);
        assert_eq!(pids[seq.len()..], vec![2; seq.len()]);
        assert_eq!(merged.len(), 2 * seq.len());
        // Merging the same shards in the same order is reproducible.
        let mut again = visit(1);
        again.merge(visit(2));
        assert_eq!(merged, again);
        // Merging into an empty tracer is the identity.
        let mut from_empty = Tracer::new();
        from_empty.merge(visit(1));
        assert_eq!(from_empty, seq);
    }

    #[test]
    fn events_before_any_visit_keep_pid_zero_across_a_merge() {
        let mut tail = Tracer::new();
        tail.instant_at(&NOISE, 3, &[]);
        tail.begin_visit(9, "later");
        let mut merged = visit(4);
        merged.merge(tail);
        let pids: Vec<u64> = merged
            .events()
            .skip(visit(4).len())
            .map(|e| e.pid())
            .collect();
        assert_eq!(pids, [0, 9, 9]);
    }

    #[test]
    fn views_read_back_what_was_recorded() {
        let t = visit(3);
        let req = t
            .events()
            .nth(2)
            .expect("the span follows the two metadata events");
        assert_eq!(format!("{}", req.name()), "req");
        assert_eq!(
            (req.cat(), req.ts_us(), req.pid(), req.tid()),
            ("request", 10, 3, 0)
        );
        assert_eq!((req.kind(), req.dur_us()), (EventKind::Complete, 5));
        assert_eq!(req.args().collect::<Vec<_>>(), [("k", Arg::U64(1))]);
        let label = t.events().next().expect("process metadata comes first");
        assert_eq!(label.kind(), EventKind::ProcessName);
        assert_eq!(format!("{}", label.name()), "site");
    }

    #[test]
    fn values_past_32_bits_read_back_exactly() {
        let mut t = Tracer::new();
        t.begin_visit(u64::MAX, "huge");
        t.set_tid(u32::MAX);
        t.complete(&REQ, u64::MAX, 1 << 40, &[Arg::U64(u64::MAX)]);
        t.set_tid(70_000);
        t.instant_at(&HIT, 5, &[]);
        t.set_tid(3);
        t.flow_end(span_ref(1 << 20, 7), &COALESCE, 1 << 33);
        let seen: Vec<_> = t
            .events()
            .map(|e| (e.pid(), e.ts_us(), e.dur_us(), e.tid()))
            .collect();
        assert_eq!(
            seen,
            [
                (u64::MAX, 0, u64::MAX, 0),
                (u64::MAX, 0, 0, 0),
                (u64::MAX, u64::MAX, 1 << 40, u32::MAX),
                (u64::MAX, 5, 0, 70_000),
                (u64::MAX, 1 << 33, span_ref(1 << 20, 7), 3),
            ]
        );
        let req = t.events().nth(2).expect("the span");
        assert_eq!(req.args().collect::<Vec<_>>(), [("k", Arg::U64(u64::MAX))]);
    }

    #[test]
    fn a_string_whose_hash_is_taken_is_stored_again() {
        let (mut index, mut table) = (Index::default(), Strings::default());
        let a = index.string("a", &mut table);
        assert_eq!(index.string("a", &mut table), a, "a string is stored once");
        // Make "b" collide with "a": it must still read back as "b".
        index.strings.insert(Index::hash("b"), a);
        let b = index.string("b", &mut table);
        assert_ne!(b, a);
        assert_eq!((table.get(a.into()), table.get(b.into())), ("a", "b"));
        assert_eq!(index.string("a", &mut table), a);
    }

    #[test]
    fn count_named_counts_exact_matches() {
        let mut t = visit(3);
        t.name_conn(1, 0, "a.example");
        assert_eq!(t.count_named("coalesce"), 2);
        assert_eq!(t.count_named("req"), 1);
        assert_eq!(t.count_named("conn 0 a.example"), 1);
        assert_eq!(t.count_named("missing"), 0);
    }
}
