//! §5 deployment benches: sample setup (Figure 6), active measurement
//! (Figures 7a/7b), passive pipeline (§5.2/§5.3), longitudinal series
//! (Figure 8), and the §6.7 incident.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use origin_cdn::{
    ActiveMeasurement, DeploymentMode, LongitudinalRun, MiddleboxIncident, PassivePipeline,
    SampleGroup, Treatment,
};
use origin_netsim::SimRng;

fn group(n: u32) -> SampleGroup {
    let mut rng = SimRng::seed_from_u64(0xBE9C);
    SampleGroup::build(n, &mut rng)
}

fn bench_sample_setup(c: &mut Criterion) {
    // Figure 6: 5000-cert reissue with equal-byte additions.
    let mut g = c.benchmark_group("sample_setup");
    g.sample_size(10);
    g.bench_function("build_5000", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(0xF16);
            let g = SampleGroup::build(5_000, &mut rng);
            assert!(g.equal_byte_check());
            g.sites.len()
        })
    });
    g.finish();
}

fn bench_active(c: &mut Criterion) {
    let g = group(800);
    let mut grp = c.benchmark_group("active_measurement");
    grp.sample_size(10);
    for (label, m) in [
        ("fig7a_ip", ActiveMeasurement::ip_experiment()),
        ("fig7b_origin", ActiveMeasurement::origin_experiment()),
    ] {
        grp.bench_with_input(BenchmarkId::from_parameter(label), &m, |b, m| {
            b.iter(|| {
                let r = m.run_threads(&g, Treatment::Experiment, 42, 1);
                r.new_connections.total()
            })
        });
    }
    grp.finish();
}

fn bench_passive(c: &mut Criterion) {
    let g = group(800);
    let mut grp = c.benchmark_group("passive_pipeline");
    grp.sample_size(10);
    for (label, mode) in [
        ("ip_aligned", DeploymentMode::IpAligned),
        ("origin_frames", DeploymentMode::OriginFrames),
    ] {
        grp.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                let mut p = PassivePipeline::new(mode);
                p.config.visits = 20_000;
                p.run(&g, 7).sampled_records
            })
        });
    }
    grp.finish();
}

fn bench_longitudinal(c: &mut Criterion) {
    let g = group(800);
    let mut grp = c.benchmark_group("longitudinal");
    grp.sample_size(10);
    grp.bench_function("fig8_window", |b| {
        let run = LongitudinalRun {
            days: 28,
            deploy_start_day: 7,
            deploy_end_day: 21,
            visits_per_day: 1_000,
        };
        b.iter(|| {
            let s = run.run(&g, DeploymentMode::OriginFrames, 9);
            s.experiment.total() + s.control.total()
        })
    });
    grp.finish();
}

fn bench_incident(c: &mut Criterion) {
    let g = group(400);
    c.bench_function("incident_50k_connections", |b| {
        let inc = MiddleboxIncident::default();
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(11);
            let (e, ctl) = inc.simulate(&g, 50_000, true, &mut rng);
            e.torn_down + ctl.torn_down
        })
    });
}

criterion_group!(
    benches,
    bench_sample_setup,
    bench_active,
    bench_passive,
    bench_longitudinal,
    bench_incident
);
criterion_main!(benches);
