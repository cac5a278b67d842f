//! The per-worker trace buffer.

use super::event::{put_varint, Arg, EventKind, EventView, Record, Site, Strings};
use origin_netsim::hash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::fmt::Write as _;
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
/// bounded shard's arenas are allocations of tens of KiB, which the
/// allocator hands back warm; one arena doubling through a whole crawl
/// is mapped afresh, and page-faulted in, on every run (+2–8% on
/// `crawl-mixed` when it was tried).
const SHARD_EVENTS: usize = 1024;

/// One tracer's own stretch of the event stream: 16-byte records, the
/// values (name parts and arguments) those records own, in record
/// order, and the two tables the records and values index — the
/// emission sites and the distinct strings the shard has seen. A
/// record holds no offset and — bar the process-name record that opens
/// each visit — no pid, so a shard reads front to back.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Logical process of the events ahead of the first visit.
    pid: u64,
    events: Vec<Record>,
    values: Vec<u8>,
    sites: Vec<&'static Site>,
    strings: Strings,
}

impl Shard {
    /// An empty shard for `pid`, sized to hold what `self` holds.
    fn sized_like(&self, pid: u64) -> Shard {
        let (strings, string_bytes) = self.strings.len();
        Shard {
            pid,
            events: Vec::with_capacity(self.events.len()),
            values: Vec::with_capacity(self.values.len()),
            sites: Vec::with_capacity(self.sites.len()),
            strings: Strings::with_capacity(strings, string_bytes),
        }
    }

    fn events(&self) -> impl Iterator<Item = EventView<'_>> {
        let mut values = self.values.as_slice();
        let mut pid = self.pid;
        self.events.iter().map(move |rec| {
            let site = self.sites[usize::from(rec.site)];
            let (view, rest) = EventView::split(rec, site, &mut pid, values, &self.strings);
            values = rest;
            view
        })
    }

    /// Bytes held by the records, by the value arena and by the two
    /// tables.
    fn footprint(&self) -> [usize; 3] {
        let (strings, string_bytes) = self.strings.len();
        let tables = self.sites.len() * size_of::<&Site>() + string_bytes + strings * 4;
        [
            self.events.len() * size_of::<Record>(),
            self.values.len(),
            tables,
        ]
    }
}

/// Where the open shard's sites and strings sit in its tables: the
/// lookups recording needs and reading does not, so a closed shard
/// does not carry them.
#[derive(Debug, Clone, Default)]
struct Index {
    /// By the site's address.
    sites: FxHashMap<usize, u16>,
    /// By the string's hash. Two strings with one hash keep the first's
    /// index; the second is stored again each time it is met.
    strings: FxHashMap<u64, u32>,
}

impl Index {
    fn site(&mut self, site: &'static Site, table: &mut Vec<&'static Site>) -> u16 {
        let key = std::ptr::from_ref(site) as usize;
        *self.sites.entry(key).or_insert_with(|| {
            table.push(site);
            u16::try_from(table.len() - 1).expect("a program declares fewer than 2^16 sites")
        })
    }

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
        self.sites.clear();
        self.strings.clear();
    }
}

/// A buffer of trace events with the same merge discipline as the
/// metrics registry: each crawl worker owns one, and the driver merges
/// shards back in rank order, reproducing sequential event order.
/// Recording an event is a few stores into flat arenas and formats
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
        if self.open.events.len() >= SHARD_EVENTS {
            // The next shard will fill much as this one did: size its
            // arenas and tables once instead of doubling up to there
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

    /// The one place an event enters the buffer: a timestamp, payload
    /// or tid too large for its record field, then its name parts and
    /// argument values appended to the value arena, then its record.
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
        let Tracer { open, index, .. } = self;
        let narrow = (
            u32::try_from(ts_us),
            u32::try_from(payload),
            u16::try_from(tid),
        );
        let (wide, (ts_us, payload, tid)) = match narrow {
            (Ok(ts_us), Ok(payload), Ok(tid)) => (false, (ts_us, payload, tid)),
            _ => {
                for v in [ts_us, payload, u64::from(tid)] {
                    put_varint(&mut open.values, v);
                }
                (true, (0, 0, 0))
            }
        };
        for value in name.iter().chain(args) {
            value.encode(&mut open.values, |s| index.string(s, &mut open.strings));
        }
        open.events.push(Record {
            ts_us,
            payload,
            site: index.site(site, &mut open.sites),
            tid,
            kind,
            wide,
            name_parts: name.len() as u8,
            nargs: args.len() as u8,
        });
    }

    /// Append another tracer's events. Merging rank-ordered shards in
    /// rank order reproduces the sequential event stream exactly — the
    /// same spine `metrics::Registry` and the crawl series ride.
    /// The other tracer's arenas are moved in, not copied: a trace is
    /// written once, by the worker that recorded it.
    pub fn merge(&mut self, other: Tracer) {
        self.close(Shard {
            pid: self.pid,
            ..Shard::default()
        });
        let shards = other.merged.into_iter().chain([other.open]);
        self.merged.extend(shards.filter(|s| !s.events.is_empty()));
    }

    /// Close the open shard and record into `next` from here on.
    fn close(&mut self, next: Shard) {
        let open = std::mem::replace(&mut self.open, next);
        self.index.clear();
        if !open.events.is_empty() {
            self.merged.push(open);
        }
    }

    fn shards(&self) -> impl Iterator<Item = &Shard> {
        self.merged.iter().chain([&self.open])
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.shards().map(|s| s.events.len()).sum()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> impl Iterator<Item = EventView<'_>> {
        self.shards().flat_map(Shard::events)
    }

    /// Count events whose name matches `name` exactly.
    pub fn count_named(&self, name: &str) -> usize {
        let mut rendered = String::new();
        self.events()
            .filter(|e| {
                rendered.clear();
                let _ = write!(rendered, "{}", e.name());
                rendered == name
            })
            .count()
    }

    /// Bytes held by the event records, by the value arenas and by the
    /// shards' site and string tables: what the buffer costs, to divide
    /// by [`Tracer::len`].
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

    static REQ: Site = Site::new("req", "request", &["k"]);
    static HIT: Site = Site::new("hit", "dns", &[]);
    static NOISE: Site = Site::new("noise", "dns", &[]);
    static COALESCE: Site = Site::new("coalesce", "flow", &[]);

    fn visit(pid: u64) -> Tracer {
        let mut t = Tracer::new();
        t.begin_visit(pid, "site");
        t.complete(&REQ, 10, 5, &[Arg::U64(1)]);
        t.instant_at(&HIT, 12, &[]);
        let id = t.next_id();
        t.flow_start(id, &COALESCE, 1, 1);
        t.flow_end(id, &COALESCE, 10);
        t
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
    fn values_too_wide_for_a_record_read_back_exactly() {
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
