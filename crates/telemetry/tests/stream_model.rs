//! Seeded property test of the trace buffer's encoding against a plain
//! model: random streams are recorded into tracers and, beside them,
//! into a list of owned events; whatever an event's bytes leave to its
//! shape or its predecessor (a tid that did not change, a timestamp as
//! a delta from the previous start or end, a zero payload, an argument
//! count, every value's type, a bool's value) must read back, through
//! `events()` and through the Chrome JSON export, as the model holds
//! it.
//!
//! The streams cover every event kind, names of zero, one and two
//! parts, every argument type (NaN-bit floats and v6 addresses too),
//! timestamps at, near and behind the previous event's start and end,
//! timestamps, payloads and pids at and past 2^32 up to `u64::MAX`,
//! tids past 255, shards closed by their event budget, by their 257th
//! shape and by their 257th site, and merges at random cut points —
//! mid-visit and across shape-table boundaries included.

use origin_netsim::json;
use origin_telemetry::trace::{to_chrome_json, Arg, EventKind, Site, Tracer};
use std::fmt::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

const KEYS: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// An emission site and what the model needs to know of it.
struct Spot {
    site: &'static Site,
    name: &'static str,
    cat: &'static str,
    keys: &'static [&'static str],
}

/// 320 sites with 0–4 keys: more than one shard's table takes.
fn spots() -> Vec<Spot> {
    (0..320)
        .map(|i| {
            let name: &'static str = String::leak(format!("site{i}"));
            let cat = ["dns", "tls", "phase", "request", "h2"][i % 5];
            let keys = &KEYS[..i % 5];
            let site = Box::leak(Box::new(Site::new(name, cat, keys)));
            Spot {
                site,
                name,
                cat,
                keys,
            }
        })
        .collect()
}

/// xorshift64*: the test needs a reproducible stream, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A timestamp, payload or pid: small, at a field edge, or of any
    /// width.
    fn wide(&mut self) -> u64 {
        const EDGES: [u64; 8] = [
            0,
            1,
            255,
            256,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        match self.below(4) {
            0 => EDGES[self.below(8) as usize],
            1 => self.below(5_000),
            _ => self.next() >> self.below(64),
        }
    }

    fn tid(&mut self) -> u32 {
        match self.below(6) {
            0 => [255, 256, u32::MAX - 1, u32::MAX][self.below(4) as usize],
            1 => self.below(70_000) as u32,
            _ => self.below(4) as u32,
        }
    }

    /// Zero-length, plain, and escape-needing strings of varied length.
    fn string(&mut self) -> String {
        const ALPHABET: &[char] = &['a', 'z', '.', '-', '0', '"', '\\', '\n', '\u{1}', 'é'];
        (0..self.below(20))
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn float(&mut self) -> f64 {
        match self.below(4) {
            // Any bit pattern: NaNs with payloads, infinities,
            // subnormals and negative zero among them.
            0 => f64::from_bits(self.next()),
            1 => f64::NAN,
            _ => self.below(1 << 20) as f64 / 64.0,
        }
    }

    fn ip(&mut self) -> IpAddr {
        match self.below(2) {
            0 => IpAddr::V4(Ipv4Addr::from(self.next() as u32)),
            _ => IpAddr::V6(Ipv6Addr::from(
                u128::from(self.next()) << 64 | u128::from(self.next()),
            )),
        }
    }
}

/// An argument value, owned; a float by its bits.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    U64(u64),
    F64(u64),
    Bool(bool),
    Ip(IpAddr),
}

impl Value {
    fn of(arg: Arg<'_>) -> Self {
        match arg {
            Arg::Str(s) => Value::Str(s.to_owned()),
            Arg::U64(v) => Value::U64(v),
            Arg::F64(v) => Value::F64(v.to_bits()),
            Arg::Bool(b) => Value::Bool(b),
            Arg::Ip(ip) => Value::Ip(ip),
        }
    }

    fn random(rng: &mut Rng) -> Self {
        let kind = rng.below(5);
        Self::of_kind(rng, kind)
    }

    /// A random value of the `kind`th type: a string, a `u64`, a float,
    /// a bool or an address.
    fn of_kind(rng: &mut Rng, kind: u64) -> Self {
        match kind {
            0 => Value::Str(rng.string()),
            1 => Value::U64(rng.wide()),
            2 => Value::F64(rng.float().to_bits()),
            3 => Value::Bool(rng.below(2) == 0),
            _ => Value::Ip(rng.ip()),
        }
    }

    fn arg(&self) -> Arg<'_> {
        match self {
            Value::Str(s) => Arg::Str(s),
            Value::U64(v) => Arg::U64(*v),
            Value::F64(bits) => Arg::F64(f64::from_bits(*bits)),
            Value::Bool(b) => Arg::Bool(*b),
            Value::Ip(ip) => Arg::Ip(*ip),
        }
    }
}

/// One event as the model holds it.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    kind: EventKind,
    name: String,
    cat: &'static str,
    ts_us: u64,
    pid: u64,
    tid: u32,
    /// Duration or flow ID; 0 for the other kinds.
    payload: u64,
    args: Vec<(&'static str, Value)>,
}

impl Event {
    fn read(tracer: &Tracer) -> Vec<Event> {
        tracer
            .events()
            .map(|e| Event {
                kind: e.kind(),
                name: e.name().to_string(),
                cat: e.cat(),
                ts_us: e.ts_us(),
                pid: e.pid(),
                tid: e.tid(),
                payload: match e.kind() {
                    EventKind::Complete => e.dur_us(),
                    EventKind::FlowStart | EventKind::FlowEnd => e.flow_id(),
                    _ => 0,
                },
                args: e.args().map(|(k, v)| (k, Value::of(v))).collect(),
            })
            .collect()
    }

    /// The Chrome trace-event object the exporter must write for this
    /// event.
    fn render(&self, out: &mut String) {
        let (ph, meta) = match self.kind {
            EventKind::Complete => ("X", None),
            EventKind::Instant => ("i", None),
            EventKind::FlowStart => ("s", None),
            EventKind::FlowEnd => ("f", None),
            EventKind::ProcessName => ("M", Some("process_name")),
            EventKind::ThreadName => ("M", Some("thread_name")),
        };
        out.push_str("{\"name\":");
        match meta {
            Some(key) => json::push_str(out, key),
            None => json::push_str(out, &self.name),
        }
        out.push_str(",\"cat\":");
        json::push_str(out, self.cat);
        let (ts, pid, tid) = (self.ts_us, self.pid, self.tid);
        let _ = write!(
            out,
            ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
        );
        let id = self.payload;
        match self.kind {
            EventKind::Complete => {
                let _ = write!(out, ",\"dur\":{id}");
                self.render_args(out);
            }
            EventKind::Instant => {
                out.push_str(",\"s\":\"t\"");
                self.render_args(out);
            }
            EventKind::FlowStart => drop(write!(out, ",\"id\":{id}")),
            EventKind::FlowEnd => drop(write!(out, ",\"id\":{id},\"bp\":\"e\"")),
            EventKind::ProcessName | EventKind::ThreadName => {
                out.push_str(",\"args\":{\"name\":");
                json::push_str(out, &self.name);
                out.push('}');
            }
        }
        out.push('}');
    }

    fn render_args(&self, out: &mut String) {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, key);
            out.push(':');
            match value {
                Value::Str(s) => json::push_str(out, s),
                Value::U64(v) => json::push_u64(out, *v),
                Value::F64(bits) => json::push_f64(out, f64::from_bits(*bits)),
                Value::Bool(b) => json::push_bool(out, *b),
                Value::Ip(ip) => drop(write!(out, "\"{ip}\"")),
            }
        }
        out.push('}');
    }
}

fn render(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        e.render(&mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// A tracer and the model of what it holds, with the visit context the
/// model needs to know each event's pid, tid and instant.
#[derive(Default)]
struct Recorder {
    tracer: Tracer,
    model: Vec<Event>,
    pid: u64,
    tid: u32,
    now_us: u64,
    /// Each site's values take one type per key, and a site passes
    /// every key: few shapes, so shards close by their event budget.
    typed: bool,
}

impl Recorder {
    fn event(
        &mut self,
        kind: EventKind,
        name: String,
        cat: &'static str,
        ts_us: u64,
    ) -> &mut Event {
        self.model.push(Event {
            kind,
            name,
            cat,
            ts_us,
            pid: self.pid,
            tid: self.tid,
            payload: 0,
            args: Vec::new(),
        });
        self.model.last_mut().expect("just pushed")
    }

    /// A timestamp: of any width, or at, near or behind the previous
    /// event's start or end — the two instants a delta counts from.
    fn ts(&self, rng: &mut Rng) -> u64 {
        let Some(prev) = self.model.last() else {
            return rng.wide();
        };
        let end = match prev.kind {
            EventKind::Complete => prev.ts_us.wrapping_add(prev.payload),
            _ => prev.ts_us,
        };
        let at = if rng.below(2) == 0 { prev.ts_us } else { end };
        match rng.below(4) {
            0 => at,
            1 => at.wrapping_add(rng.below(300)).wrapping_sub(150),
            _ => rng.wide(),
        }
    }

    /// Record one random operation.
    fn step(&mut self, rng: &mut Rng, spots: &[Spot]) {
        let pick = rng.below(spots.len() as u64) as usize;
        let spot = &spots[pick];
        let values: Vec<Value> = if self.typed {
            (0..spot.keys.len())
                .map(|k| Value::of_kind(rng, ((pick + k) % 5) as u64))
                .collect()
        } else {
            (0..rng.below(spot.keys.len() as u64 + 1))
                .map(|_| Value::random(rng))
                .collect()
        };
        let args: Vec<Arg<'_>> = values.iter().map(Value::arg).collect();
        let keyed = || {
            spot.keys
                .iter()
                .copied()
                .zip(values.iter().cloned())
                .collect()
        };
        let ts = self.ts(rng);
        match rng.below(11) {
            0 => {
                let (pid, label) = (rng.wide(), rng.string());
                self.begin_visit(pid, &label);
            }
            1 => {
                self.tid = rng.tid();
                self.tracer.set_tid(self.tid);
            }
            2 => {
                let (tid, conn, host) = (rng.tid(), rng.wide(), rng.string());
                self.tracer.name_conn(tid, conn, &host);
                let name = format!("conn {conn} {host}");
                self.event(EventKind::ThreadName, name, "meta", 0).tid = tid;
            }
            3 => {
                self.now_us = ts;
                self.tracer.set_now_us(ts);
                self.tracer.instant(spot.site, &args);
                let now = self.now_us;
                self.event(EventKind::Instant, spot.name.into(), spot.cat, now)
                    .args = keyed();
            }
            4 | 5 => {
                self.tracer.instant_at(spot.site, ts, &args);
                self.event(EventKind::Instant, spot.name.into(), spot.cat, ts)
                    .args = keyed();
            }
            6 | 7 => {
                // Mostly short spans, so the next event often starts
                // before this one ends.
                let dur = if rng.below(3) == 0 {
                    rng.wide()
                } else {
                    rng.below(300)
                };
                self.tracer.complete(spot.site, ts, dur, &args);
                let span = self.event(EventKind::Complete, spot.name.into(), spot.cat, ts);
                (span.payload, span.args) = (dur, keyed());
            }
            8 => {
                let (index, host, dur) = (rng.wide(), rng.string(), rng.wide());
                self.tracer
                    .complete_indexed(spot.site, (index, &host), ts, dur, &args);
                let name = format!("{} {index} {host}", spot.name);
                let span = self.event(EventKind::Complete, name, spot.cat, ts);
                (span.payload, span.args) = (dur, keyed());
            }
            9 => {
                let (id, tid) = (rng.wide(), rng.tid());
                self.tracer.flow_start(id, spot.site, ts, tid);
                let start = self.event(EventKind::FlowStart, spot.name.into(), spot.cat, ts);
                (start.payload, start.tid) = (id, tid);
            }
            _ => {
                let id = match rng.below(2) {
                    0 => self.tracer.next_id(),
                    _ => rng.wide(),
                };
                self.tracer.flow_end(id, spot.site, ts);
                self.event(EventKind::FlowEnd, spot.name.into(), spot.cat, ts)
                    .payload = id;
            }
        }
    }

    fn merge(&mut self, other: Recorder) {
        self.tracer.merge(other.tracer);
        self.model.extend(other.model);
    }

    /// The tracer reads back, and exports, as the model holds it.
    fn check(&self, what: &str) {
        assert_eq!(self.tracer.len(), self.model.len(), "{what}");
        let read = Event::read(&self.tracer);
        if let Some(i) = (0..read.len()).find(|&i| read[i] != self.model[i]) {
            panic!(
                "{what}: event {i} reads back as {:#?}, recorded as {:#?}",
                read[i], self.model[i]
            );
        }
        assert_eq!(read.len(), self.model.len(), "{what}");
        assert!(
            to_chrome_json(&self.tracer) == render(&self.model),
            "{what}: the export differs from the model's"
        );
    }

    /// Open a visit, as the tracer's `begin_visit` records it.
    fn begin_visit(&mut self, pid: u64, label: &str) {
        self.tracer.begin_visit(pid, label);
        (self.pid, self.tid, self.now_us) = (pid, 0, 0);
        self.event(EventKind::ProcessName, label.into(), "meta", 0);
        self.event(EventKind::ThreadName, "loader".into(), "meta", 0);
    }

    fn instant(&mut self, spot: &Spot, ts: u64, values: &[Value]) {
        let args: Vec<Arg<'_>> = values.iter().map(Value::arg).collect();
        self.tracer.instant_at(spot.site, ts, &args);
        self.event(EventKind::Instant, spot.name.into(), spot.cat, ts)
            .args = spot
            .keys
            .iter()
            .copied()
            .zip(values.iter().cloned())
            .collect();
    }

    fn complete(&mut self, spot: &Spot, ts: u64, dur: u64, values: &[Value]) {
        let args: Vec<Arg<'_>> = values.iter().map(Value::arg).collect();
        self.tracer.complete(spot.site, ts, dur, &args);
        let span = self.event(EventKind::Complete, spot.name.into(), spot.cat, ts);
        span.payload = dur;
        span.args = spot
            .keys
            .iter()
            .copied()
            .zip(values.iter().cloned())
            .collect();
    }
}

#[test]
fn recorded_streams_read_back_as_the_model() {
    let spots = spots();
    for seed in 1..=24u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        // Eight typed sites fill a shard's event budget before its
        // shape table; forty with values of any type fill the shape
        // table first; all 320 also reach their 257th site.
        let (spots, typed) = match seed % 3 {
            0 => (&spots[..8], true),
            1 => (&spots[..40], false),
            _ => (&spots[..], false),
        };
        // Two recorders take turns: events go to either, and a merge
        // (of a part that may have begun mid-visit) lands at random
        // cut points, after which the merged tracer records on.
        let recorder = || Recorder {
            typed,
            ..Recorder::default()
        };
        let (mut whole, mut part) = (recorder(), recorder());
        let steps = 2_000 + rng.below(16_000);
        for _ in 0..steps {
            match rng.below(200) {
                0 => whole.merge(std::mem::replace(&mut part, recorder())),
                1..=40 => whole.step(&mut rng, spots),
                _ => part.step(&mut rng, spots),
            }
        }
        whole.merge(part);
        whole.check(&format!("seed {seed}"));
    }
}

/// One site whose four values take 300 distinct type patterns in one
/// visit: the 257th shape closes the shard mid-visit, and the events on
/// both sides of the cut read back — recorded whole, and merged from
/// two tracers cut at, before and after the shape-table boundary.
#[test]
fn the_257th_distinct_shape_closes_the_shard() {
    let spots = spots();
    let spot = &spots[4];
    assert_eq!(spot.keys.len(), 4);
    let mut rng = Rng(7);
    let patterns: Vec<Vec<Value>> = (0..300u64)
        .map(|i| {
            (0..4)
                .map(|k| match Value::of_kind(&mut rng, i / 5u64.pow(k) % 5) {
                    // Both values in each bool position.
                    Value::Bool(_) => Value::Bool(i % 2 == 0),
                    v => v,
                })
                .collect()
        })
        .collect();
    for cut in [0, 1, 254, 255, 256, 257, 300] {
        let (mut head, mut tail) = (Recorder::default(), Recorder::default());
        head.begin_visit(3, "shapes");
        for (i, values) in (0..).zip(&patterns) {
            let into = if i < cut { &mut head } else { &mut tail };
            into.instant(spot, 10 * i, values);
        }
        head.merge(tail);
        head.check(&format!("cut {cut}"));
    }
}

/// A bool's value lives in its event's shape, not its bytes: every
/// pattern of three bools, beside the other types, reads back.
#[test]
fn bool_valued_shapes_read_back() {
    let spots = spots();
    let spot = &spots[3];
    assert_eq!(spot.keys.len(), 3);
    let mut rng = Rng(11);
    let mut rec = Recorder::default();
    rec.begin_visit(5, "bools");
    for round in 0..4u64 {
        for bits in 0..8u64 {
            let values: Vec<Value> = (0..3).map(|k| Value::Bool(bits >> k & 1 == 1)).collect();
            rec.instant(spot, round * 100 + bits, &values);
            let mixed = [
                Value::Bool(bits & 1 == 1),
                Value::of_kind(&mut rng, bits % 3),
                Value::Bool(bits & 2 == 0),
            ];
            rec.complete(spot, round * 100 + bits, bits, &mixed);
        }
    }
    rec.check("bools");
}

/// Timestamps at the previous event's start, at its end, between them
/// and behind both, near 0 and near `u64::MAX` — where a span's end
/// wraps — each read back from whichever instant the writer chose.
#[test]
fn timestamps_at_the_previous_start_end_and_behind_read_back() {
    let spots = spots();
    let (req, hit) = (&spots[1], &spots[0]);
    let v = [Value::U64(1)];
    let mut rec = Recorder::default();
    rec.begin_visit(9, "ts");
    for base in [1_000_000, u64::MAX - 1_000, u64::MAX] {
        rec.complete(req, base, 500_000, &v);
        // Nested spans start at their parent's start and just after.
        rec.complete(req, base, 20, &v);
        rec.complete(req, base.wrapping_add(3), 7, &v);
        // At the previous start, at its end, behind both.
        rec.instant(hit, base.wrapping_add(3), &[]);
        rec.complete(req, base, 1_000, &v);
        rec.instant(hit, base.wrapping_add(1_000), &[]);
        rec.instant(hit, base.wrapping_sub(1), &[]);
        rec.complete(req, base.wrapping_sub(90_000), u64::MAX, &v);
        rec.instant(hit, base.wrapping_sub(90_000), &[]);
        rec.instant(hit, u64::MAX, &[]);
        rec.instant(hit, 0, &[]);
        rec.complete(req, u64::MAX, u64::MAX, &v);
        rec.instant(hit, u64::MAX - 1, &[]);
        rec.instant(hit, u64::MAX, &[]);
    }
    rec.check("timestamps");
}
