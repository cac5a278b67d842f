//! Event-queue scheduler throughput: the calendar queue that powers
//! [`origin_netsim::EventQueue`], over workloads shaped like the
//! simulator's (clustered handshake timers, FIFO bursts at one instant,
//! and a steady schedule/pop churn with a bounded horizon).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use origin_netsim::event::EventQueue;
use origin_netsim::{SimRng, SimTime};

/// One deterministic churn workload: seed events, then repeatedly pop
/// one and schedule a few more at bounded offsets, like a connection
/// posting its next timer from an event handler. Returns a checksum
/// so the work cannot be optimized away.
fn churn_calendar(events: u32, rng: &mut SimRng) -> u64 {
    let mut q = EventQueue::new();
    let mut sum = 0u64;
    for i in 0..64u32 {
        q.schedule(SimTime::from_micros(rng.range_u64(0, 5_000)), i);
    }
    let mut id = 64u32;
    while q.processed() < u64::from(events) {
        let (t, e) = q.next().expect("queue seeded non-empty");
        sum = sum.wrapping_add(t.as_micros()).wrapping_add(u64::from(e));
        // Same-instant FIFO burst every few pops, plus a spread timer.
        let burst = if e % 5 == 0 { 2 } else { 1 };
        for _ in 0..burst {
            let dt = rng.range_u64(0, 3_000);
            q.schedule(SimTime::from_micros(t.as_micros() + dt), id);
            id += 1;
        }
    }
    sum
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &events in &[1_000u32, 20_000] {
        g.throughput(Throughput::Elements(u64::from(events)));
        g.bench_with_input(
            BenchmarkId::new("calendar", events),
            &events,
            |b, &events| b.iter(|| churn_calendar(events, &mut SimRng::seed_from_u64(0xE0E))),
        );
    }
    g.finish();
}

fn bench_fifo_burst(c: &mut Criterion) {
    // Everything at one instant: the calendar pops sequentially from
    // one sorted bucket.
    let mut g = c.benchmark_group("event_queue_fifo_burst");
    let n = 4_096u32;
    g.throughput(Throughput::Elements(u64::from(n)));
    g.bench_function("calendar", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let t = SimTime::from_micros(1_000);
            for i in 0..n {
                q.schedule(t, i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.next() {
                sum = sum.wrapping_add(u64::from(e));
            }
            sum
        })
    });
    g.finish();
}

criterion_group!(benches, bench_churn, bench_fifo_burst);
criterion_main!(benches);
