//! Tumbling-window aggregation over the crawl's simulated timeline.
//!
//! The crawl is open-loop: visit `rank` begins at the deterministic
//! epoch `rank × spacing` on a shared simulated timeline, and every
//! event inside the visit lands at `epoch + offset` where `offset` is
//! the event's sim-time offset within the visit. The timeline is thus
//! a pure function of the site list — independent of thread count,
//! shard boundaries, and wall clock.
//!
//! Windows are tumbling: window `i` covers `[i·W, (i+1)·W)` simulated
//! time. An open window holds a fixed array of counters plus five
//! bounded [`QuantileSketch`]es, however many visits stream through.
//! Merging two timelines is a window-keyed union with commutative cell
//! addition: associative and shard-order-invariant by construction
//! (pinned by property tests in `tests/`).
//!
//! A visit records only at or after its own epoch, so a crawl merging
//! its chunks in rank order knows which windows no rank left can
//! touch, and seals them ([`Timeline::seal_before`]): a sealed window
//! keeps its counters, its PLT sketch and the five numbers and one
//! exemplar the export prints of each sketch, and its whole cell is
//! folded into the timeline's running totals.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io;

use origin_netsim::{json, SimDuration, SimTime};

use super::sketch::{Exemplar, QuantileSketch};

// Counter slots within a window cell. Kept private: producers fill the
// named fields of `VisitObs`; only the cell maps them to slots.
const C_VISITS: usize = 0;
const C_REQUESTS: usize = 1;
const C_COALESCED: usize = 2;
const C_CONNS: usize = 3;
const C_DNS_QUERIES: usize = 4;
const C_DNS_HITS: usize = 5;
const C_DNS_MISSES: usize = 6;
const C_MEASURED_TLS: usize = 7;
const C_MODEL_IP_TLS: usize = 8;
const C_MODEL_ORIGIN_TLS: usize = 9;
const C_FAULT_421: usize = 10;
const C_FAULT_EVENTS: usize = 11;
const C_FAULT_RECOVERIES: usize = 12;
const C_H1_CONNS: usize = 13;
const C_H1_REQUESTS: usize = 14;
const C_H1_RED: usize = 15; // 5 slots, one per policy
const C_BYTES_TOTAL: usize = 20;
const N_COUNTERS: usize = 21;

const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "visits",
    "requests",
    "coalesced_requests",
    "connections_opened",
    "dns_queries",
    "dns_cache_hits",
    "dns_cache_misses",
    "measured_tls",
    "model_ip_tls",
    "model_origin_tls",
    "fault_misdirected_421",
    "fault_events",
    "fault_recoveries",
    "h1_connections",
    "h1_requests",
    "h1_redundant_chromium",
    "h1_redundant_firefox",
    "h1_redundant_firefox_origin",
    "h1_redundant_ideal_ip",
    "h1_redundant_ideal_origin",
    "bytes_total",
];

/// Everything one visit contributes to the timeline, filled by the
/// crawl harness and consumed by [`Timeline::record_visit`]. Reused
/// across visits via [`VisitObs::clear`] so the per-visit obs path
/// allocates only when an event vector has to grow.
#[derive(Debug, Default, Clone)]
pub struct VisitObs {
    /// Site rank of the visit (fixes its epoch on the timeline).
    pub rank: u32,
    /// Measured page load time, µs.
    pub plt_us: u64,
    /// Modelled ideal-IP page load time, µs.
    pub plt_ideal_ip_us: u64,
    /// Modelled ideal-ORIGIN page load time, µs.
    pub plt_ideal_origin_us: u64,
    /// Trace span ID of the request that determined `plt_us`.
    pub plt_span: u64,
    /// Subresource requests issued.
    pub requests: u64,
    /// Requests served over a coalesced connection.
    pub coalesced_requests: u64,
    /// Connections opened (including forced extras).
    pub connections_opened: u64,
    /// DNS queries issued.
    pub dns_queries: u64,
    /// Resolver cache hits.
    pub dns_cache_hits: u64,
    /// Resolver cache misses (network queries).
    pub dns_cache_misses: u64,
    /// Measured TLS connections.
    pub measured_tls: u64,
    /// Modelled ideal-IP TLS connections.
    pub model_ip_tls: u64,
    /// Modelled ideal-ORIGIN TLS connections.
    pub model_origin_tls: u64,
    /// Injected 421 Misdirected Request responses.
    pub fault_misdirected_421: u64,
    /// Total injected fault events of all classes.
    pub fault_events: u64,
    /// Fault events the client recovered from within bounded retries.
    pub fault_recoveries: u64,
    /// Legacy HTTP/1.1 connections opened.
    pub h1_connections: u64,
    /// Requests served over HTTP/1.1.
    pub h1_requests: u64,
    /// Of the h1 connections, how many each policy would have coalesced
    /// away under h2 (order of `origin_browser::REDUNDANCY_KINDS`).
    pub h1_redundant: [u64; 5],
    /// TLS handshakes: `(visit-relative start µs, duration µs, span)`.
    pub handshakes: Vec<(u64, u64, u64)>,
    /// Response bodies: `(visit-relative end µs, size bytes, span)`.
    pub bytes: Vec<(u64, u64, u64)>,
}

/// The observability sinks an observed page load writes into. Both
/// are optional so one entry point serves flight-only, timeline-only,
/// and fully observed loads.
#[derive(Default)]
pub struct VisitSinks<'a> {
    /// Flight recorder receiving the load's notable events as they
    /// happen.
    pub flight: Option<&'a mut super::flight::FlightRecorder>,
    /// Per-visit observation derived from the completed load.
    pub visit: Option<&'a mut VisitObs>,
}

impl VisitObs {
    /// Reset for the next visit, keeping event-vector capacity.
    pub fn clear(&mut self) {
        let mut handshakes = std::mem::take(&mut self.handshakes);
        let mut bytes = std::mem::take(&mut self.bytes);
        handshakes.clear();
        bytes.clear();
        *self = VisitObs::default();
        self.handshakes = handshakes;
        self.bytes = bytes;
    }
}

/// What the dashboard reads of a window — its counter array and its
/// measured-PLT sketch — and, beside the summaries the export prints,
/// all a sealed window keeps. [`WindowCell`] dereferences to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    counters: [u64; N_COUNTERS],
    plt: QuantileSketch,
}

/// One tumbling window's aggregate: the counters and PLT sketch of its
/// [`WindowStats`], plus the four sketches only its export reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCell {
    stats: WindowStats,
    plt_ideal_ip: QuantileSketch,
    plt_ideal_origin: QuantileSketch,
    handshake: QuantileSketch,
    bytes: QuantileSketch,
}

impl std::ops::Deref for WindowCell {
    type Target = WindowStats;

    fn deref(&self) -> &WindowStats {
        &self.stats
    }
}

/// What the export prints of one sketch: its count, three quantiles,
/// its max and the exemplar of its p99 bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    count: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    p99_exemplar: Option<Exemplar>,
}

impl Summary {
    fn of(s: &QuantileSketch) -> Self {
        Summary {
            count: s.count(),
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            p99: s.quantile(0.99),
            max: s.max(),
            p99_exemplar: s.quantile_exemplar(0.99),
        }
    }
}

/// A window no rank left to merge can touch: its [`WindowStats`] and
/// the [`Summary`] of each of its five sketches, in export order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SealedWindow {
    stats: WindowStats,
    summaries: [Summary; 5],
}

/// Divide, returning 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl WindowStats {
    /// Visits whose epoch fell in this window.
    pub fn visits(&self) -> u64 {
        self.counters[C_VISITS]
    }

    /// Share of requests served over a coalesced connection.
    pub fn coalesce_rate(&self) -> f64 {
        ratio(self.counters[C_COALESCED], self.counters[C_REQUESTS])
    }

    /// Connections opened per visit.
    pub fn connections_per_visit(&self) -> f64 {
        ratio(self.counters[C_CONNS], self.counters[C_VISITS])
    }

    /// Resolver cache hit rate.
    pub fn dns_cache_hit_rate(&self) -> f64 {
        ratio(
            self.counters[C_DNS_HITS],
            self.counters[C_DNS_HITS] + self.counters[C_DNS_MISSES],
        )
    }

    /// Share of injected fault events the client recovered from.
    pub fn fault_recovery_rate(&self) -> f64 {
        ratio(
            self.counters[C_FAULT_RECOVERIES],
            self.counters[C_FAULT_EVENTS],
        )
    }

    /// Injected fault events per visit.
    pub fn fault_events_per_visit(&self) -> f64 {
        ratio(self.counters[C_FAULT_EVENTS], self.counters[C_VISITS])
    }

    /// TLS connections saved by the ideal-IP model, as a share of
    /// measured TLS connections.
    pub fn tls_reduction_ideal_ip(&self) -> f64 {
        if self.counters[C_MEASURED_TLS] == 0 {
            return 0.0;
        }
        1.0 - ratio(self.counters[C_MODEL_IP_TLS], self.counters[C_MEASURED_TLS])
    }

    /// TLS connections saved by the ideal-ORIGIN model, as a share of
    /// measured TLS connections.
    pub fn tls_reduction_ideal_origin(&self) -> f64 {
        if self.counters[C_MEASURED_TLS] == 0 {
            return 0.0;
        }
        1.0 - ratio(
            self.counters[C_MODEL_ORIGIN_TLS],
            self.counters[C_MEASURED_TLS],
        )
    }

    /// Share of h1 connections policy `i` (order of
    /// `origin_browser::REDUNDANCY_KINDS`)
    /// would have coalesced away under h2.
    pub fn h1_redundant_share(&self, i: usize) -> f64 {
        ratio(self.counters[C_H1_RED + i], self.counters[C_H1_CONNS])
    }

    /// The measured-PLT sketch.
    pub fn plt(&self) -> &QuantileSketch {
        &self.plt
    }

    /// Fold another window's stats in (commutative, associative).
    pub fn merge(&mut self, other: &WindowStats) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        self.plt.merge(&other.plt);
    }

    /// `"counters":…,"rates":…,"sketches":…` — the body every cell of
    /// the export (window, folded tail, totals) shares, the sketches
    /// given by their summaries.
    fn json(&self, summaries: &[Summary; 5], out: &mut String) {
        out.push_str("\"counters\":");
        self.counters_json(out);
        out.push_str(",\"rates\":");
        self.rates_json(out);
        out.push_str(",\"sketches\":");
        sketches_json(summaries, out);
    }

    fn counters_json(&self, out: &mut String) {
        let counters = COUNTER_NAMES.into_iter().zip(self.counters);
        object(out, counters, json::push_u64);
        out.push('}');
    }

    fn rates_json(&self, out: &mut String) {
        let rates: [(&str, f64); 12] = [
            ("coalesce_rate", self.coalesce_rate()),
            ("connections_per_visit", self.connections_per_visit()),
            ("dns_cache_hit_rate", self.dns_cache_hit_rate()),
            ("fault_recovery_rate", self.fault_recovery_rate()),
            ("fault_events_per_visit", self.fault_events_per_visit()),
            ("tls_reduction_ideal_ip", self.tls_reduction_ideal_ip()),
            (
                "tls_reduction_ideal_origin",
                self.tls_reduction_ideal_origin(),
            ),
            ("h1_redundant_chromium_share", self.h1_redundant_share(0)),
            ("h1_redundant_firefox_share", self.h1_redundant_share(1)),
            (
                "h1_redundant_firefox_origin_share",
                self.h1_redundant_share(2),
            ),
            ("h1_redundant_ideal_ip_share", self.h1_redundant_share(3)),
            (
                "h1_redundant_ideal_origin_share",
                self.h1_redundant_share(4),
            ),
        ];
        object(out, rates, |out, v| json::push_fixed(out, v, 6));
        out.push('}');
    }
}

/// `{"name":value,…` — a cell's compact object layout, left open for
/// the caller to close.
fn object<T>(
    out: &mut String,
    members: impl IntoIterator<Item = (&'static str, T)>,
    value: impl Fn(&mut String, T),
) {
    out.push('{');
    json::push_joined(out, members, ",", |out, (name, v)| {
        json::push_str(out, name);
        out.push(':');
        value(out, v);
    });
}

fn sketches_json(summaries: &[Summary; 5], out: &mut String) {
    let names = [
        "plt_us",
        "plt_ideal_ip_us",
        "plt_ideal_origin_us",
        "handshake_us",
        "bytes",
    ];
    object(out, names.into_iter().zip(summaries), |out, s| {
        let quantiles = [
            ("count", s.count),
            ("p50", s.p50),
            ("p90", s.p90),
            ("p99", s.p99),
            ("max", s.max),
        ];
        object(out, quantiles, json::push_u64);
        if let Some(e) = s.p99_exemplar {
            out.push_str(",\"p99_exemplar\":");
            let exemplar = [
                ("value", e.value),
                ("rank", u64::from(e.rank)),
                ("span_id", e.span_id),
            ];
            object(out, exemplar, json::push_u64);
            out.push('}');
        }
        out.push('}');
    });
    out.push('}');
}

impl WindowCell {
    /// The response-body-size sketch.
    pub fn bytes(&self) -> &QuantileSketch {
        &self.bytes
    }

    /// An empty cell whose five sketch runs have room for what
    /// `self`'s hold.
    fn sized_like(&self) -> Self {
        WindowCell {
            stats: WindowStats {
                counters: [0; N_COUNTERS],
                plt: self.plt.sized_like(),
            },
            plt_ideal_ip: self.plt_ideal_ip.sized_like(),
            plt_ideal_origin: self.plt_ideal_origin.sized_like(),
            handshake: self.handshake.sized_like(),
            bytes: self.bytes.sized_like(),
        }
    }

    /// Fold another cell in (commutative, associative).
    pub fn merge(&mut self, other: &WindowCell) {
        self.stats.merge(&other.stats);
        self.plt_ideal_ip.merge(&other.plt_ideal_ip);
        self.plt_ideal_origin.merge(&other.plt_ideal_origin);
        self.handshake.merge(&other.handshake);
        self.bytes.merge(&other.bytes);
    }

    /// The summary of each sketch, in export order.
    fn summaries(&self) -> [Summary; 5] {
        [
            &self.stats.plt,
            &self.plt_ideal_ip,
            &self.plt_ideal_origin,
            &self.handshake,
            &self.bytes,
        ]
        .map(Summary::of)
    }

    /// The export body of this cell (see [`WindowStats::json`]).
    fn json(&self, out: &mut String) {
        self.stats.json(&self.summaries(), out);
    }
}

/// The streaming aggregate of a whole crawl: tumbling windows over the
/// open-loop simulated timeline.
///
/// For long serving horizons the live window map can be bounded with
/// [`Timeline::with_retention`]: once more than `retain` windows have
/// been seen, windows falling behind the retention horizon are evicted
/// and folded into a single committed tail cell. Folding is cell
/// merge — commutative and associative — and the horizon is derived
/// from the *maximum* window index seen (itself a max over shards), so
/// a retained timeline merged from any sharding folds exactly the same
/// window set and stays byte-identical at any thread count.
///
/// A crawl that records visits in rank order instead *seals* windows
/// ([`Timeline::seal_before`]): a sealed window keeps every number the
/// export prints, and its cell is folded into the same tail cell,
/// which then holds the sealed windows' totals. Sealing and retention
/// are exclusive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    window: SimDuration,
    spacing: SimDuration,
    /// Open windows: every one at or past `folded_before`.
    windows: BTreeMap<u64, WindowCell>,
    /// Sealed windows in index order, every one below `folded_before`
    /// (empty unless sealed).
    sealed: Vec<(u64, SealedWindow)>,
    /// Maximum live windows to keep (`None` = unbounded, the crawl
    /// default; the committed reference exports never retain).
    retain: Option<u64>,
    /// Highest window index ever touched (recorded or merged in).
    max_seen: u64,
    /// Every cell behind `folded_before`, folded into one: what
    /// retention evicted, or the cells of the sealed windows.
    folded: WindowCell,
    /// First window index neither folded nor sealed (0 = none yet).
    folded_before: u64,
}

/// Default visit spacing on the open-loop timeline (one visit epoch
/// per second of simulated time).
pub const DEFAULT_SPACING: SimDuration = SimDuration::from_millis(1_000);

/// Default window width.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(4_000);

impl Timeline {
    /// A timeline with the given tumbling-window width and visit
    /// spacing (both must be nonzero).
    pub fn new(window: SimDuration, spacing: SimDuration) -> Self {
        assert!(window.as_micros() > 0, "window width must be nonzero");
        assert!(spacing.as_micros() > 0, "visit spacing must be nonzero");
        Timeline {
            window,
            spacing,
            ..Timeline::default()
        }
    }

    /// Bound the live window map to at most `max_windows` cells:
    /// older windows are evicted and folded into the committed tail
    /// summary (see the type docs for why this stays deterministic
    /// under sharding). Panics on zero.
    pub fn with_retention(mut self, max_windows: u64) -> Self {
        assert!(max_windows > 0, "retention must keep at least one window");
        self.retain = Some(max_windows);
        self
    }

    /// The tumbling-window width.
    pub fn window_width(&self) -> SimDuration {
        self.window
    }

    /// The visit spacing.
    pub fn spacing(&self) -> SimDuration {
        self.spacing
    }

    /// The epoch of visit `rank` on the shared timeline.
    pub fn epoch(&self, rank: u32) -> SimTime {
        SimTime::from_micros(rank as u64 * self.spacing.as_micros())
    }

    /// The cell events of window `idx` are filed in.
    fn cell(&mut self, idx: u64) -> &mut WindowCell {
        if idx > self.max_seen {
            self.max_seen = idx;
        }
        // Behind the horizon the live window is gone: retention folded
        // it into the tail cell, which takes its contribution, or it
        // was sealed, which takes none.
        if idx < self.folded_before {
            return self.tail(idx);
        }
        // A window past the last one fills much as the last one did:
        // size its sketches once instead of growing them up to there
        // again. (The last entry is found without comparing keys.)
        let sized = match self.windows.last_key_value() {
            Some((&last, cell)) if last < idx => Some(cell.sized_like()),
            _ => None,
        };
        self.windows
            .entry(idx)
            .or_insert_with(|| sized.unwrap_or_default())
    }

    /// The tail cell window `idx`, behind the horizon, folds into. A
    /// sealed window takes nothing more: that would break the rule
    /// that sealed it, so it panics in every build.
    fn tail(&mut self, idx: u64) -> &mut WindowCell {
        assert!(
            self.retain.is_some(),
            "window {idx} is sealed: nothing may be recorded or merged into it"
        );
        &mut self.folded
    }

    /// Evict-and-fold every live window behind the retention horizon
    /// (`max_seen − retain + 1`). A no-op without retention.
    fn enforce_retention(&mut self) {
        if self.retain.is_none() {
            return;
        }
        let retain = self.retain.unwrap();
        let boundary = (self.max_seen + 1).saturating_sub(retain);
        if boundary > self.folded_before {
            self.folded_before = boundary;
        }
        // Sweep unconditionally: merge() can raise `folded_before` past
        // live windows of this shard without moving the boundary here.
        while let Some(entry) = self.windows.first_entry() {
            if *entry.key() >= self.folded_before {
                break;
            }
            self.folded.merge(&entry.remove());
        }
    }

    /// Fold one visit's contribution into the timeline. Counters and
    /// PLT sketches land in the window of the visit's epoch; handshake
    /// and byte events land in the window of their own timeline
    /// instant (`epoch + visit-relative offset`).
    pub fn record_visit(&mut self, v: &VisitObs) {
        self.record_visit_at(self.epoch(v.rank), v);
    }

    /// [`Timeline::record_visit`] with an explicit timeline instant
    /// instead of the rank-derived epoch — the open-loop serving
    /// engine records visits at their simulated arrival time.
    pub fn record_visit_at(&mut self, epoch: SimTime, v: &VisitObs) {
        let window = self.window;
        // A visit's events almost always share its epoch's window, so
        // an event is divided into its window, and the map walked
        // again, only when it falls outside the current window's
        // `[start, end)` µs.
        let bounds = |idx: u64| {
            let start = idx * window.as_micros();
            start..start.saturating_add(window.as_micros())
        };
        let idx = epoch.window_index(window);
        let mut current = bounds(idx);
        let mut cell = self.cell(idx);
        let counters = &mut cell.stats.counters;
        counters[C_VISITS] += 1;
        counters[C_REQUESTS] += v.requests;
        counters[C_COALESCED] += v.coalesced_requests;
        counters[C_CONNS] += v.connections_opened;
        counters[C_DNS_QUERIES] += v.dns_queries;
        counters[C_DNS_HITS] += v.dns_cache_hits;
        counters[C_DNS_MISSES] += v.dns_cache_misses;
        counters[C_MEASURED_TLS] += v.measured_tls;
        counters[C_MODEL_IP_TLS] += v.model_ip_tls;
        counters[C_MODEL_ORIGIN_TLS] += v.model_origin_tls;
        counters[C_FAULT_421] += v.fault_misdirected_421;
        counters[C_FAULT_EVENTS] += v.fault_events;
        counters[C_FAULT_RECOVERIES] += v.fault_recoveries;
        counters[C_H1_CONNS] += v.h1_connections;
        counters[C_H1_REQUESTS] += v.h1_requests;
        for (i, r) in v.h1_redundant.iter().enumerate() {
            counters[C_H1_RED + i] += r;
        }
        cell.stats.plt.record(
            v.plt_us,
            Some(Exemplar {
                value: v.plt_us,
                rank: v.rank,
                span_id: v.plt_span,
            }),
        );
        cell.plt_ideal_ip.record(v.plt_ideal_ip_us, None);
        cell.plt_ideal_origin.record(v.plt_ideal_origin_us, None);
        for &(t_us, dur_us, span) in &v.handshakes {
            let at = epoch + SimDuration::from_micros(t_us);
            if !current.contains(&at.as_micros()) {
                let idx = at.window_index(window);
                current = bounds(idx);
                cell = self.cell(idx);
            }
            cell.handshake.record(
                dur_us,
                Some(Exemplar {
                    value: dur_us,
                    rank: v.rank,
                    span_id: span,
                }),
            );
        }
        for &(t_us, size, span) in &v.bytes {
            let at = epoch + SimDuration::from_micros(t_us);
            if !current.contains(&at.as_micros()) {
                let idx = at.window_index(window);
                current = bounds(idx);
                cell = self.cell(idx);
            }
            cell.bytes.record(
                size,
                Some(Exemplar {
                    value: size,
                    rank: v.rank,
                    span_id: span,
                }),
            );
            cell.stats.counters[C_BYTES_TOTAL] += size;
        }
        self.enforce_retention();
    }

    /// Window-keyed union with cell merge: commutative and
    /// associative, so shards may combine in any order. Retained
    /// timelines re-fold against the merged (global) horizon, so the
    /// folded set is the same for any partition of the inputs.
    ///
    /// `other` is consumed: a window this timeline lacks is moved in
    /// whole, and only windows both hold are merged cell by cell.
    /// Merging into a sealed window, or merging a sealed timeline in,
    /// panics.
    pub fn merge(&mut self, other: Timeline) {
        // A mismatch would mis-bin silently; checked once per merge.
        assert_eq!(
            (self.window, self.spacing, self.retain),
            (other.window, other.spacing, other.retain),
            "merged timelines must share (window, spacing, retention)"
        );
        assert!(
            other.retain.is_some() || other.folded_before == 0,
            "a sealed timeline merges into nothing"
        );
        self.folded.merge(&other.folded);
        self.folded_before = self.folded_before.max(other.folded_before);
        for (idx, cell) in other.windows {
            if idx < self.folded_before {
                self.tail(idx).merge(&cell);
                continue;
            }
            match self.windows.entry(idx) {
                Entry::Vacant(slot) => {
                    slot.insert(cell);
                }
                Entry::Occupied(mut mine) => mine.get_mut().merge(&cell),
            }
        }
        self.max_seen = self.max_seen.max(other.max_seen);
        self.enforce_retention();
    }

    /// Seal every window that ends at or before the epoch of `rank`.
    ///
    /// Visit `r` records only at `epoch(r) + offset`, `offset ≥ 0`, so
    /// once every visit below `rank` has been recorded or merged in —
    /// and visits of `rank` and up are all that is left — no event can
    /// land in a window `[i·W, (i+1)·W)` with `(i+1)·W ≤ epoch(rank)`:
    /// those are the windows below `epoch(rank)`'s own. Sealing one
    /// folds its cell into the tail cell (which then holds the sealed
    /// windows' totals) and keeps only its [`WindowStats`] and the
    /// summary of each sketch: every number the export prints. A
    /// later record or merge into it panics. Panics on a retained
    /// timeline: retention drops windows from the export, sealing
    /// keeps every exported number.
    pub fn seal_before(&mut self, rank: u32) {
        self.seal_windows_before(self.epoch(rank).window_index(self.window));
    }

    /// Seal every window: the timeline takes no more visits. Its value
    /// is then the same whatever the order and grouping of the
    /// records, merges and seals that built it.
    pub fn seal_all(&mut self) {
        self.seal_windows_before(u64::MAX);
    }

    /// Seal every window below `boundary` (clamped past the last window
    /// touched, so a sealed timeline's horizon is a function of its
    /// windows alone).
    fn seal_windows_before(&mut self, boundary: u64) {
        assert!(
            self.retain.is_none(),
            "a retained timeline is never sealed: retention drops windows from the export, \
             sealing keeps every exported number"
        );
        let boundary = boundary.min(self.max_seen + 1);
        if boundary <= self.folded_before {
            return;
        }
        self.folded_before = boundary;
        // Sealing happens a few times a crawl: reserve exactly, rather
        // than leave a doubled run's slack behind the last seal.
        self.sealed
            .reserve_exact(self.windows.range(..boundary).count());
        while let Some(entry) = self.windows.first_entry() {
            if *entry.key() >= boundary {
                break;
            }
            let (idx, cell) = entry.remove_entry();
            self.folded.merge(&cell);
            let window = SealedWindow {
                summaries: cell.summaries(),
                stats: cell.stats,
            };
            self.sealed.push((idx, window));
        }
    }

    /// Number of windows, open and sealed (retention's folded ones
    /// are not counted).
    pub fn num_windows(&self) -> usize {
        self.sealed.len() + self.windows.len()
    }

    /// Total visits recorded, including visits folded into the tail.
    pub fn total_visits(&self) -> u64 {
        self.folded.visits() + self.windows.values().map(|c| c.visits()).sum::<u64>()
    }

    /// Iterate windows, sealed and open, in time order as
    /// `(index, stats)`.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &WindowStats)> {
        let sealed = self.sealed.iter().map(|(i, w)| (*i, &w.stats));
        sealed.chain(self.windows.iter().map(|(&i, c)| (i, &c.stats)))
    }

    /// The whole-crawl aggregate: every window cell — live, folded
    /// and sealed — folded together.
    pub fn totals(&self) -> WindowCell {
        let mut total = self.folded.clone();
        for cell in self.windows.values() {
            total.merge(cell);
        }
        total
    }

    /// Deterministic JSON export: window list in time order plus a
    /// `totals` section with the same cell shape. A retained timeline
    /// additionally carries a `folded` tail-summary section; without
    /// retention the export is byte-identical to what it was before
    /// retention existed, which is what keeps the committed reference
    /// timelines valid. Sealed and open windows print alike, open ones
    /// from the summaries of their sketches.
    ///
    /// Windows are rendered one at a time into a reused buffer, so the
    /// document is never held whole.
    pub fn write_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        let window_us = self.window.as_micros();
        let mut head = String::from("{\n  \"window_ms\": ");
        json::push_u64(&mut head, window_us / 1_000);
        head.push_str(",\n  \"spacing_ms\": ");
        json::push_u64(&mut head, self.spacing.as_micros() / 1_000);
        head.push_str(",\n");
        if let Some(retain) = self.retain {
            head.push_str("  \"retain_windows\": ");
            json::push_u64(&mut head, retain);
            head.push_str(",\n  \"folded\": {\"before_index\":");
            json::push_u64(&mut head, self.folded_before);
            head.push(',');
            self.folded.json(&mut head);
            head.push_str("},\n");
        }
        head.push_str("  \"windows\": [\n");
        out.write_all(head.as_bytes())?;

        let sealed = self.sealed.iter().map(|(i, w)| (*i, &w.stats, w.summaries));
        let open = self
            .windows
            .iter()
            .map(|(&i, c)| (i, &c.stats, c.summaries()));
        json::write_joined(
            out,
            sealed.chain(open),
            ",\n",
            |out, (idx, stats, summaries)| {
                out.push_str("    {\"index\":");
                json::push_u64(out, idx);
                out.push_str(",\"start_ms\":");
                json::push_u64(out, idx * window_us / 1_000);
                out.push(',');
                stats.json(&summaries, out);
                out.push('}');
            },
        )?;

        // Once every window is folded or sealed, the tail cell is the
        // totals: render it without a copy.
        let merged;
        let totals = if self.windows.is_empty() {
            &self.folded
        } else {
            merged = self.totals();
            &merged
        };
        let mut tail = String::from("\n  ],\n  \"totals\": {");
        totals.json(&mut tail);
        tail.push_str("}\n}\n");
        out.write_all(tail.as_bytes())
    }

    /// [`Timeline::write_json`] into a `String`.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(4096 + 1024 * self.num_windows());
        self.write_json(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the exporter writes UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(rank: u32, plt: u64) -> VisitObs {
        VisitObs {
            rank,
            plt_us: plt,
            plt_ideal_ip_us: plt / 2,
            plt_ideal_origin_us: plt / 3,
            plt_span: (rank as u64) << 24,
            requests: 10,
            coalesced_requests: 4,
            connections_opened: 5,
            dns_queries: 3,
            dns_cache_hits: 1,
            dns_cache_misses: 2,
            measured_tls: 5,
            model_ip_tls: 3,
            model_origin_tls: 2,
            handshakes: vec![(100, 30_000, 1), (500_000, 40_000, 2)],
            bytes: vec![(900_000, 4096, 3)],
            ..VisitObs::default()
        }
    }

    #[test]
    fn epochs_are_pure_functions_of_rank() {
        let t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        assert_eq!(t.epoch(0), SimTime::ZERO);
        assert_eq!(t.epoch(7).as_micros(), 7_000_000);
    }

    #[test]
    fn record_then_merge_equals_single_timeline() {
        let mk = || Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        let mut whole = mk();
        for r in 0..20 {
            whole.record_visit(&visit(r, 1_000_000 + r as u64 * 10_000));
        }
        let (mut a, mut b) = (mk(), mk());
        for r in 0..20 {
            let v = visit(r, 1_000_000 + r as u64 * 10_000);
            if r % 2 == 0 {
                a.record_visit(&v)
            } else {
                b.record_visit(&v)
            }
        }
        b.merge(a);
        assert_eq!(whole.to_json(), b.to_json());
    }

    #[test]
    fn totals_match_counter_sums() {
        let mut t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        for r in 0..32 {
            t.record_visit(&visit(r, 2_000_000));
        }
        let totals = t.totals();
        assert_eq!(totals.visits(), 32);
        assert_eq!(t.total_visits(), 32);
        assert_eq!(totals.plt().count(), 32);
        assert_eq!(totals.handshake.count(), 64);
        assert!((totals.coalesce_rate() - 0.4).abs() < 1e-9);
    }

    /// A cheap visit for the high-volume retention tests: no
    /// handshake/byte events, so each record touches one window.
    fn light_visit(rank: u32, plt: u64) -> VisitObs {
        VisitObs {
            rank,
            plt_us: plt,
            requests: 3,
            coalesced_requests: 1,
            connections_opened: 1,
            measured_tls: 1,
            ..VisitObs::default()
        }
    }

    #[test]
    fn retention_bounds_live_windows_over_a_million_visits() {
        // A serving horizon: one visit every 10 ms of simulated time,
        // a million visits → 10,000 one-second windows, of which only
        // the trailing 64 stay live; everything older folds into the
        // tail summary and no visit is lost.
        let mut t = Timeline::new(SimDuration::from_secs(1), DEFAULT_SPACING).with_retention(64);
        for i in 0..1_000_000u64 {
            t.record_visit_at(
                SimTime::from_micros(i * 10_000),
                &light_visit((i % 1000) as u32, 1_000 + i % 7),
            );
            assert!(t.num_windows() <= 64);
        }
        assert_eq!(t.total_visits(), 1_000_000);
        assert_eq!(t.totals().visits(), 1_000_000);
        assert!(t.folded.visits() > 900_000, "tail absorbed the horizon");
        let json = t.to_json();
        assert!(json.contains("\"retain_windows\": 64"));
        assert!(json.contains("\"folded\""));
    }

    #[test]
    fn retained_merge_is_partition_invariant() {
        // Sharding a retained timeline must fold exactly the window
        // set a sequential pass folds: the horizon is a max over
        // shards and cell merge is commutative.
        let mk = || Timeline::new(SimDuration::from_secs(1), DEFAULT_SPACING).with_retention(8);
        let mut whole = mk();
        for i in 0..2_000u64 {
            whole.record_visit_at(
                SimTime::from_micros(i * 400_000),
                &light_visit(i as u32, 5_000 + i),
            );
        }
        for shards in [2usize, 3, 8] {
            let mut parts: Vec<Timeline> = (0..shards).map(|_| mk()).collect();
            for i in 0..2_000u64 {
                parts[i as usize % shards].record_visit_at(
                    SimTime::from_micros(i * 400_000),
                    &light_visit(i as u32, 5_000 + i),
                );
            }
            let mut merged = mk();
            for p in parts {
                merged.merge(p);
            }
            assert_eq!(merged.to_json(), whole.to_json(), "{shards} shards");
        }
    }

    #[test]
    fn unretained_export_has_no_folded_section() {
        let mut t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        for r in 0..10 {
            t.record_visit(&visit(r, 1_000_000));
        }
        let json = t.to_json();
        assert!(!json.contains("folded"));
        assert!(!json.contains("retain_windows"));
    }

    #[test]
    fn event_behind_the_horizon_lands_in_the_tail() {
        let mut t = Timeline::new(SimDuration::from_secs(1), DEFAULT_SPACING).with_retention(4);
        // Drive the horizon far ahead, then record a straggler at t=0.
        t.record_visit_at(SimTime::from_secs(100), &light_visit(1, 1_000));
        t.record_visit_at(SimTime::ZERO, &light_visit(2, 2_000));
        assert_eq!(t.total_visits(), 2);
        assert_eq!(t.folded.visits(), 1, "straggler folded, not revived");
        assert!(t.num_windows() <= 4);
    }

    #[test]
    fn events_hopping_between_windows_land_in_their_own_cells() {
        let secs = |s: f64| (s * 1e6) as u64;
        let mut t = Timeline::new(SimDuration::from_secs(1), DEFAULT_SPACING).with_retention(2);
        // Horizon at window 10: windows below 9 are already folded.
        t.record_visit_at(SimTime::from_secs(10), &light_visit(1, 1_000));
        // One visit whose epoch (7.2 s) is behind the horizon and whose
        // events hop, out of order, over windows 7 and 8 (folded) and
        // 9 and 10 (live).
        let v = VisitObs {
            handshakes: vec![
                (secs(3.0), 10, 1), // w10
                (secs(0.1), 20, 2), // w7
                (secs(2.0), 30, 3), // w9
                (secs(3.1), 40, 4), // w10
                (secs(1.0), 50, 5), // w8
            ],
            bytes: vec![
                (secs(2.1), 100, 6), // w9
                (secs(0.2), 200, 7), // w7
                (secs(3.2), 400, 8), // w10
                (secs(2.2), 800, 9), // w9
            ],
            ..light_visit(2, 2_000)
        };
        t.record_visit_at(SimTime::from_micros(secs(7.2)), &v);
        let shape = |c: &WindowCell| {
            (
                c.visits(),
                c.handshake.count(),
                c.bytes().count(),
                c.stats.counters[C_BYTES_TOTAL],
            )
        };
        let live: Vec<_> = t.windows.iter().map(|(&i, c)| (i, shape(c))).collect();
        assert_eq!(live, [(9, (0, 1, 2, 900)), (10, (1, 2, 1, 400))]);
        assert_eq!(shape(&t.folded), (1, 2, 1, 200));
        assert_eq!(t.folded.handshake.max(), 50);

        // Moving the horizon to window 11 folds window 9 behind it.
        t.record_visit_at(SimTime::from_secs(11), &light_visit(3, 3_000));
        let live: Vec<_> = t.windows.iter().map(|(&i, c)| (i, shape(c))).collect();
        assert_eq!(live, [(10, (1, 2, 1, 400)), (11, (1, 0, 0, 0))]);
        assert_eq!(shape(&t.folded), (1, 3, 3, 1_100));
    }

    #[test]
    #[should_panic(expected = "must share (window, spacing, retention)")]
    fn merging_differently_configured_timelines_panics() {
        let mut a = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        let b = Timeline::new(SimDuration::from_secs(1), DEFAULT_SPACING);
        a.merge(b);
    }

    #[test]
    fn record_visit_at_epoch_matches_record_visit() {
        let mk = || Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        let (mut a, mut b) = (mk(), mk());
        for r in 0..20 {
            let v = visit(r, 1_500_000);
            a.record_visit(&v);
            let epoch = b.epoch(r);
            b.record_visit_at(epoch, &v);
        }
        assert_eq!(a.to_json(), b.to_json());
    }

    /// `record_visit_at` as it was when every handshake and byte event
    /// divided its instant into a window index.
    fn record_visit_dividing(t: &mut Timeline, epoch: SimTime, v: &VisitObs) {
        let window = t.window;
        let mut idx = epoch.window_index(window);
        let mut cell = t.cell(idx);
        let counters = &mut cell.stats.counters;
        counters[C_VISITS] += 1;
        counters[C_REQUESTS] += v.requests;
        counters[C_COALESCED] += v.coalesced_requests;
        counters[C_CONNS] += v.connections_opened;
        counters[C_DNS_QUERIES] += v.dns_queries;
        counters[C_DNS_HITS] += v.dns_cache_hits;
        counters[C_DNS_MISSES] += v.dns_cache_misses;
        counters[C_MEASURED_TLS] += v.measured_tls;
        counters[C_MODEL_IP_TLS] += v.model_ip_tls;
        counters[C_MODEL_ORIGIN_TLS] += v.model_origin_tls;
        counters[C_FAULT_421] += v.fault_misdirected_421;
        counters[C_FAULT_EVENTS] += v.fault_events;
        counters[C_FAULT_RECOVERIES] += v.fault_recoveries;
        counters[C_H1_CONNS] += v.h1_connections;
        counters[C_H1_REQUESTS] += v.h1_requests;
        for (i, r) in v.h1_redundant.iter().enumerate() {
            counters[C_H1_RED + i] += r;
        }
        cell.stats.plt.record(
            v.plt_us,
            Some(Exemplar {
                value: v.plt_us,
                rank: v.rank,
                span_id: v.plt_span,
            }),
        );
        cell.plt_ideal_ip.record(v.plt_ideal_ip_us, None);
        cell.plt_ideal_origin.record(v.plt_ideal_origin_us, None);
        for &(t_us, dur_us, span) in &v.handshakes {
            let at = (epoch + SimDuration::from_micros(t_us)).window_index(window);
            if at != idx {
                idx = at;
                cell = t.cell(idx);
            }
            cell.handshake.record(
                dur_us,
                Some(Exemplar {
                    value: dur_us,
                    rank: v.rank,
                    span_id: span,
                }),
            );
        }
        for &(t_us, size, span) in &v.bytes {
            let at = (epoch + SimDuration::from_micros(t_us)).window_index(window);
            if at != idx {
                idx = at;
                cell = t.cell(idx);
            }
            cell.bytes.record(
                size,
                Some(Exemplar {
                    value: size,
                    rank: v.rank,
                    span_id: span,
                }),
            );
            cell.stats.counters[C_BYTES_TOTAL] += size;
        }
        t.enforce_retention();
    }

    #[test]
    fn filing_by_window_bounds_equals_dividing_every_event() {
        // xorshift64*: reproducible offsets, not quality.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        for retain in [None, Some(1), Some(3)] {
            let mk = || {
                let t = Timeline::new(SimDuration::from_millis(500), DEFAULT_SPACING);
                match retain {
                    Some(n) => t.with_retention(n),
                    None => t,
                }
            };
            let (mut bounded, mut dividing) = (mk(), mk());
            for rank in 0..200 {
                let mut v = visit(rank, 1 + next(5_000_000));
                // Offsets up to 6 s: a visit's events land in up to a
                // dozen windows, in any order.
                v.handshakes = (0..next(8))
                    .map(|i| (next(6_000_000), next(90_000), i))
                    .collect();
                v.bytes = (0..next(12))
                    .map(|i| (next(6_000_000), next(1 << 20), i))
                    .collect();
                let epoch = SimTime::from_micros(u64::from(rank) * 700_000 + next(400_000));
                bounded.record_visit_at(epoch, &v);
                record_visit_dividing(&mut dividing, epoch, &v);
            }
            assert_eq!(bounded.to_json(), dividing.to_json(), "retain {retain:?}");
        }
    }

    #[test]
    fn visit_obs_clear_keeps_capacity() {
        let mut v = visit(3, 1_000);
        let cap = v.handshakes.capacity();
        v.clear();
        assert_eq!(v.rank, 0);
        assert!(v.handshakes.is_empty());
        assert!(v.handshakes.capacity() >= cap);
    }
}
