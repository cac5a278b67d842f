//! Seeded property test of the buffer's two structural promises:
//! merging shards cut at visit boundaries reproduces the sequential
//! stream, and a clone exports the same bytes.

use origin_trace::{to_chrome_json, Arg, EventKind, Site, Tracer};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

static SPAN: Site = Site::new("span", "request", &["s", "n", "f", "b", "ip", "t"]);
static MARK: Site = Site::new("mark", "dns", &["s", "n"]);
static BARE: Site = Site::new("bare", "phase", &[]);
static REQ: Site = Site::new("req", "request", &["host"]);
static FLOW: Site = Site::new("arrow", "flow", &[]);

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

    /// Zero-length, plain, and escape-needing strings of varied length.
    fn string(&mut self) -> String {
        const ALPHABET: &[char] = &['a', 'z', '.', '-', '0', '"', '\\', '\n', '\u{1}', 'é'];
        (0..self.below(24))
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }
}

/// Record one random visit. Draws depend on `rng` alone, so the same
/// seed records the same visit into whichever tracer it is handed.
fn record_visit(t: &mut Tracer, pid: u64, rng: &mut Rng) {
    t.begin_visit(pid, &rng.string());
    for _ in 0..rng.below(40) {
        let (ts, host) = (rng.below(1 << 40), rng.string());
        match rng.below(7) {
            0 => {
                let ip = match rng.below(2) {
                    0 => IpAddr::V4(Ipv4Addr::from(rng.next() as u32)),
                    _ => IpAddr::V6(Ipv6Addr::from(u128::from(rng.next()) << 64 | 1)),
                };
                let args = [
                    Arg::Str(&host),
                    Arg::U64(rng.next()),
                    Arg::F64(rng.below(1 << 20) as f64 / 64.0),
                    Arg::Bool(rng.below(2) == 0),
                    Arg::Ip(ip),
                    Arg::Str("static"),
                ];
                // Any prefix of the keys, the empty one included.
                let n = rng.below(args.len() as u64 + 1) as usize;
                t.complete(&SPAN, ts, rng.below(1 << 30), &args[..n]);
            }
            1 => t.instant_at(&MARK, ts, &[Arg::Str(&host), Arg::U64(rng.below(9))]),
            2 => t.complete(&BARE, ts, rng.below(500), &[]),
            3 => t.complete_indexed(&REQ, (rng.below(300), &host), ts, 7, &[Arg::Str(&host)]),
            4 => {
                let tid = 1 + rng.below(12) as u32;
                t.name_conn(tid, u64::from(tid) - 1, &host);
                t.set_tid(tid);
            }
            5 => {
                t.set_now_us(ts);
                t.instant(&MARK, &[]);
            }
            _ => {
                let id = t.next_id();
                t.flow_start(id, &FLOW, ts, rng.below(4) as u32);
                t.flow_end(id, &FLOW, ts + 1);
            }
        }
    }
}

#[test]
fn shards_merged_in_order_equal_the_sequential_trace() {
    for seed in 1..=40u64 {
        let visits = 1 + Rng(seed).below(60);
        let mut rng = Rng(seed ^ 0x5EED);
        let mut sequential = Tracer::new();
        for pid in 0..visits {
            record_visit(&mut sequential, pid, &mut rng);
        }

        // The same visits into 1–5 tracers cut at random boundaries.
        let mut cut = Rng(seed ^ 0xC07);
        let shards = 1 + cut.below(5);
        let mut rng = Rng(seed ^ 0x5EED);
        let mut merged = Tracer::new();
        let mut shard = Tracer::new();
        for pid in 0..visits {
            if cut.below(visits) < shards {
                merged.merge(std::mem::take(&mut shard));
            }
            record_visit(&mut shard, pid, &mut rng);
        }
        merged.merge(shard);

        assert_eq!(merged.len(), sequential.len(), "seed {seed}");
        assert!(merged == sequential, "seed {seed}: merged != sequential");
        let json = to_chrome_json(&sequential);
        assert_eq!(to_chrome_json(&merged), json, "seed {seed}");
        assert_eq!(to_chrome_json(&sequential.clone()), json, "seed {seed}");

        // Every flow start is followed by its end, and the views agree
        // with the export on what was recorded.
        let flows: Vec<(EventKind, u64)> = sequential
            .events()
            .map(|e| (e.kind(), e.flow_id()))
            .filter(|(k, _)| matches!(k, EventKind::FlowStart | EventKind::FlowEnd))
            .collect();
        for pair in flows.chunks(2) {
            let [(EventKind::FlowStart, id), (EventKind::FlowEnd, end)] = pair else {
                panic!("seed {seed}: unpaired flow {pair:?}");
            };
            assert_eq!(id, end);
        }
        assert_eq!(json.matches("\"ph\":").count(), sequential.len());
    }
}

#[test]
fn a_tracer_differs_from_one_with_another_event() {
    let mut rng = Rng(9);
    let mut a = Tracer::new();
    record_visit(&mut a, 1, &mut rng);
    let mut b = a.clone();
    assert!(a == b);
    b.instant_at(&MARK, 0, &[]);
    assert!(a != b);
    // Same events under another pid are another trace.
    let (mut c, mut d) = (Tracer::new(), Tracer::new());
    c.begin_visit(1, "x");
    d.begin_visit(2, "x");
    assert!(c != d);
}
