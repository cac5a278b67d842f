//! In-memory spans around calls into a layer.
//!
//! The benchmark records spans from its own files: a traced run wraps
//! every call into a layer's public functions in [`SpanLog::enter`] /
//! [`SpanLog::exit`], keeps the spans in memory, and reduces them to
//! per-name self times once the measured work is over. Untraced runs
//! use [`SpanLog::off`], which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `browser.load_observed`.
    pub name: &'static str,
    /// Identifier shared by the spans of one unit of work (site rank
    /// for the crawl; 0 for whole-run spans).
    pub shared_id: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start and end, ns since the log was created.
    pub start_ns: u64,
    /// See `start_ns`; equals it until the span is closed.
    pub end_ns: u64,
}

/// Per-name reduction of a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part direct children cover.
    pub self_ns: u64,
}

/// Span recorder with stack discipline: `exit` closes the most
/// recently entered open span, whose index is the parent of anything
/// entered in between.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A recording log.
    pub fn on() -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A log that ignores every call (tracing off).
    pub fn off() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, shared_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            shared_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the most recently opened span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Run `f` inside a span. For calls that do not themselves record
    /// spans; nested recording uses `enter`/`exit` directly.
    pub fn wrap<R>(&mut self, name: &'static str, shared_id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, shared_id);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Reduce the log to per-name totals; see [`self_times`].
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        assert!(self.open.is_empty(), "span still open at reduction");
        self_times(&self.spans)
    }
}

/// Per-name count, total and self time. A span's self time is its
/// duration minus the part of its interval that its *direct* children
/// cover: overlapping children are merged first so shared coverage is
/// subtracted once, and a grandchild is subtracted from its own parent
/// only, never a second time from the grandparent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            shared_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn child_coverage_is_subtracted_from_the_parent() {
        let t = self_times(&[
            span("site", None, 0, 100),
            span("page", Some(0), 10, 30),
            span("load", Some(0), 40, 90),
        ]);
        assert_eq!(t["site"].total_ns, 100);
        assert_eq!(t["site"].self_ns, 30);
        assert_eq!(t["page"].self_ns, 20);
        assert_eq!(t["load"].self_ns, 50);
    }

    #[test]
    fn nested_spans_are_not_double_counted() {
        // site ⊃ load ⊃ dns: dns comes off load, and only load comes
        // off site — the self times add up to the root's duration.
        let t = self_times(&[
            span("site", None, 0, 100),
            span("load", Some(0), 20, 80),
            span("dns", Some(1), 30, 50),
        ]);
        assert_eq!(t["site"].self_ns, 40);
        assert_eq!(t["load"].self_ns, 40);
        assert_eq!(t["dns"].self_ns, 20);
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_cover_their_union_once() {
        let t = self_times(&[
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
        ]);
        assert_eq!(t["root"].self_ns, 30);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let t = self_times(&[
            span("load", None, 0, 10),
            span("load", None, 20, 50),
            span("load", None, 60, 65),
        ]);
        assert_eq!(
            t["load"],
            NameTotals {
                count: 3,
                total_ns: 45,
                self_ns: 45
            }
        );
    }

    #[test]
    fn log_records_parents_by_stack_and_off_records_nothing() {
        let mut log = SpanLog::on();
        log.enter("crawl", 0);
        log.enter("site", 7);
        log.wrap("load", 7, || std::hint::black_box(1 + 1));
        log.exit();
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].shared_id, 7);
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
        assert_eq!(log.totals()["site"].count, 1);

        let mut off = SpanLog::off();
        off.enter("crawl", 0);
        assert_eq!(off.wrap("load", 0, || 5), 5);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
