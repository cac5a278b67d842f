//! ASCII dashboard renderer for a [`Timeline`].
//!
//! Renders the windows covering a site-rank range as fixed-width rows
//! (one per window) plus sparkline strips for coalesce rate and p99
//! PLT. Output is a pure function of the timeline: deterministic and
//! diff-friendly, suitable for CI artifacts.

use std::fmt::Write as _;

use super::window::{Timeline, WindowCell};

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const BAR_WIDTH: usize = 10;

fn spark_of(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARK[0]
            } else {
                let i = ((v / max) * 7.0).round() as usize;
                SPARK[i.min(7)]
            }
        })
        .collect()
}

fn bar_of(fraction: f64) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * BAR_WIDTH as f64).round() as usize;
    let mut s = String::with_capacity(BAR_WIDTH * 3);
    for _ in 0..filled {
        s.push('█');
    }
    for _ in filled..BAR_WIDTH {
        s.push('·');
    }
    s
}

fn window_row(out: &mut String, idx: u64, start_ms: u64, cell: &WindowCell) {
    let _ = writeln!(
        out,
        "w{:>4} {:>8}ms  visits {:>4}  coal {:.3} {}  plt p50/p99 {:>6}/{:>6}ms  conn/v {:>5.2}  dns-hit {:.3}  fault/v {:>5.3}  h1-red {:.3}",
        idx,
        start_ms,
        cell.visits(),
        cell.coalesce_rate(),
        bar_of(cell.coalesce_rate()),
        cell.plt().quantile(0.50) / 1_000,
        cell.plt().quantile(0.99) / 1_000,
        cell.connections_per_visit(),
        cell.dns_cache_hit_rate(),
        cell.fault_events_per_visit(),
        cell.h1_redundant_share(4),
    );
}

/// Render the dashboard for the windows that cover visit ranks
/// `rank_lo..=rank_hi` (epochs plus the following spacing interval).
pub fn render(timeline: &Timeline, rank_lo: u32, rank_hi: u32) -> String {
    let width = timeline.window_width();
    let lo = timeline.epoch(rank_lo).window_index(width);
    let hi = (timeline.epoch(rank_hi) + timeline.spacing()).window_index(width);
    let window_ms = width.as_micros() / 1_000;

    let mut rows: Vec<(u64, &WindowCell)> = Vec::new();
    let mut coal = Vec::new();
    let mut p99 = Vec::new();
    for (idx, cell) in timeline.windows() {
        if idx < lo || idx > hi {
            continue;
        }
        rows.push((idx, cell));
        coal.push(cell.coalesce_rate());
        p99.push(cell.plt().quantile(0.99) as f64);
    }

    let mut out = String::with_capacity(256 + 160 * rows.len());
    let _ = writeln!(
        out,
        "timeline dashboard  sites {}..={}  window {}ms  spacing {}ms  ({} windows)",
        rank_lo,
        rank_hi,
        window_ms,
        timeline.spacing().as_micros() / 1_000,
        rows.len()
    );
    let _ = writeln!(out, "coalesce rate  {}", spark_of(&coal));
    let _ = writeln!(out, "p99 PLT        {}", spark_of(&p99));
    out.push('\n');
    for (idx, cell) in &rows {
        window_row(&mut out, *idx, idx * window_ms, cell);
    }

    let totals = {
        let mut t = WindowCell::default();
        for (_, cell) in &rows {
            t.merge(cell);
        }
        t
    };
    out.push('\n');
    let _ = writeln!(
        out,
        "range totals: visits {}  coalesce {:.3}  plt p50/p99 {}/{}ms  tls-saved origin {:.3}  fault-recovery {:.3}",
        totals.visits(),
        totals.coalesce_rate(),
        totals.plt().quantile(0.50) / 1_000,
        totals.plt().quantile(0.99) / 1_000,
        totals.tls_reduction_ideal_origin(),
        totals.fault_recovery_rate(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::window::{VisitObs, DEFAULT_SPACING, DEFAULT_WINDOW};

    #[test]
    fn render_is_deterministic_and_scoped() {
        let mut t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        for rank in 0..40u32 {
            t.record_visit(&VisitObs {
                rank,
                plt_us: 1_000_000 + rank as u64 * 5_000,
                requests: 12,
                coalesced_requests: 5,
                connections_opened: 6,
                measured_tls: 6,
                model_origin_tls: 2,
                ..VisitObs::default()
            });
        }
        let a = render(&t, 8, 23);
        let b = render(&t, 8, 23);
        assert_eq!(a, b);
        assert!(a.contains("sites 8..=23"));
        // 4 visits per 4s window; ranks 8..=23 span windows 2..=6.
        assert!(a.contains("visits    4"));
        assert!(!a.contains("w   0"));
    }

    #[test]
    fn sparkline_handles_flat_zero_series() {
        assert_eq!(spark_of(&[0.0, 0.0]), "▁▁");
        assert_eq!(bar_of(0.0).chars().filter(|&c| c == '█').count(), 0);
        assert_eq!(bar_of(1.0).chars().filter(|&c| c == '█').count(), BAR_WIDTH);
    }
}
