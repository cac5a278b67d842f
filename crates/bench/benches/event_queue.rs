//! Event-queue scheduler throughput: [`origin_netsim::EventQueue`]
//! under a steady schedule/pop churn with a bounded horizon, the shape
//! `repro serve`'s workers post (each pop schedules one or two
//! successors a few milliseconds out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use origin_netsim::event::EventQueue;
use origin_netsim::{SimRng, SimTime};

/// One deterministic churn workload: seed events, then repeatedly pop
/// one and schedule a few more at bounded offsets, like a connection
/// posting its next timer from an event handler. Returns a checksum
/// so the work cannot be optimized away.
fn churn(events: u32, rng: &mut SimRng) -> u64 {
    let mut q = EventQueue::new();
    let mut sum = 0u64;
    for i in 0..64u32 {
        q.schedule(SimTime::from_micros(rng.range_u64(0, 5_000)), i);
    }
    let mut id = 64u32;
    while q.processed() < u64::from(events) {
        let (t, e) = q.next().expect("queue seeded non-empty");
        sum = sum.wrapping_add(t.as_micros()).wrapping_add(u64::from(e));
        // Two successors every fifth pop, one otherwise.
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
        g.bench_with_input(BenchmarkId::new("churn", events), &events, |b, &events| {
            b.iter(|| churn(events, &mut SimRng::seed_from_u64(0xE0E)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
