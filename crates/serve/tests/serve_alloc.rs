//! Counting-allocator proof that serving memory is O(sites)+O(windows),
//! not O(visits).
//!
//! Two runs over the same plans — 60k visits and 120k visits — differ
//! only in steady-state serving work. If per-visit state leaked (a
//! `Vec<VisitResult>`, un-recycled sessions, unbounded windows), the
//! longer run would allocate proportionally more. The test asserts the
//! *marginal* allocations of the extra 60k visits stay under a small
//! per-visit ceiling: the only allowed growth is new timeline windows
//! (O(sim horizon)), sketch buckets (bounded), and slab warm-up.
//!
//! Allocation counts are only meaningful if no other test mutates the
//! counters concurrently, so this file holds exactly one `#[test]`.

use origin_serve::plan::compile_dataset;
use origin_serve::{engine::run_serve_on, ServeConfig};
use origin_webgen::{Dataset, DatasetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every operation to `System`; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Marginal allocations per steady-state visit. Measured well under 1
/// (the hot path is allocation-free; the only growth is new timeline
/// windows amortized over thousands of visits, each bringing its
/// sketches' bucket runs); the ceiling leaves room for window-map
/// nodes and `Vec` growth, not for per-visit state.
const MAX_MARGINAL_ALLOCS_PER_VISIT: f64 = 4.0;

fn run(plans: &[origin_serve::SitePlan], visits: u64) -> u64 {
    let cfg = ServeConfig {
        dataset: DatasetConfig {
            sites: 2_000,
            ..DatasetConfig::default()
        },
        visits,
        retain_windows: Some(256),
        ..ServeConfig::default()
    };
    let before = allocs();
    let report = run_serve_on(&cfg, plans);
    assert_eq!(report.visits, visits);
    allocs() - before
}

#[test]
fn steady_state_serving_allocations_stay_flat() {
    let dataset = Dataset::generate(DatasetConfig {
        sites: 2_000,
        ..DatasetConfig::default()
    });
    let plans = compile_dataset(&dataset);

    // Warm up once so one-time lazy init (service host interning etc.)
    // doesn't land in either measurement.
    run(&plans, 1_000);

    let short = run(&plans, 60_000);
    let long = run(&plans, 120_000);
    let marginal = long.saturating_sub(short) as f64 / 60_000.0;
    assert!(
        marginal <= MAX_MARGINAL_ALLOCS_PER_VISIT,
        "steady-state serving allocated {marginal:.2} allocs/visit \
         (short run {short}, long run {long}); per-visit state is leaking"
    );
}
