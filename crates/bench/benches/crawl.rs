//! Tables 1–7 / Figure 1 regeneration benches: dataset generation,
//! page materialization, and the measured crawl.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use origin_bench::{crawl_stages, CrawlSpec, ObsConfig, STAGES};
use origin_browser::{BrowserKind, PageLoader, UniverseEnv};
use origin_netsim::{FaultProfile, SimRng};
use origin_telemetry::trace::Sampler;
use origin_webgen::{Dataset, DatasetConfig};
use std::time::Instant;

fn bench_dataset_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataset_generate");
    g.sample_size(10);
    for &sites in &[100u32, 500] {
        g.bench_with_input(BenchmarkId::from_parameter(sites), &sites, |b, &sites| {
            b.iter(|| {
                Dataset::generate(DatasetConfig {
                    sites,
                    ..Default::default()
                })
                .sites()
                .len()
            })
        });
    }
    g.finish();
}

fn bench_page_materialization(c: &mut Criterion) {
    let d = Dataset::generate(DatasetConfig {
        sites: 200,
        ..Default::default()
    });
    let sites: Vec<_> = d.successful_sites().cloned().collect();
    c.bench_function("page_materialize", |b| {
        let mut i = 0;
        b.iter(|| {
            let site = &sites[i % sites.len()];
            i += 1;
            d.page_for(site).resources.len()
        })
    });
}

fn bench_page_load(c: &mut Criterion) {
    // The per-page cost of the full measured crawl (Table 1 unit).
    let mut g = c.benchmark_group("page_load");
    g.sample_size(20);
    for kind in [
        BrowserKind::Chromium,
        BrowserKind::Firefox,
        BrowserKind::IdealOrigin,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                let d = Dataset::generate(DatasetConfig {
                    sites: 60,
                    ..Default::default()
                });
                let sites: Vec<_> = d.successful_sites().cloned().collect();
                let loader = PageLoader::new(kind);
                let mut i = 0;
                b.iter(|| {
                    let site = &sites[i % sites.len()];
                    i += 1;
                    let page = d.page_for(site);
                    let mut env = UniverseEnv::new(&d);
                    env.flush_dns();
                    let mut rng = SimRng::seed_from_u64(site.page_seed);
                    loader.load(&page, &mut env, &mut rng).request_count()
                })
            },
        );
    }
    g.finish();
}

fn bench_full_characterization(c: &mut Criterion) {
    // One small but complete Tables 1–7 regeneration (the repro
    // binary's --sites 150 path).
    let mut g = c.benchmark_group("crawl_characterize");
    g.sample_size(10);
    g.bench_function("sites_150", |b| {
        b.iter(|| {
            let r = CrawlSpec::new(150, 0x0516).run();
            (r.characterization.pages, r.plan.total_sites)
        })
    });
    g.finish();
}

/// The whole crawl along each axis of [`CrawlSpec`]. Every variant is
/// the same call with one field changed, so the groups are data:
///
/// - `crawl_scaling`: thread-scaling of the sharded crawl (fixed sites
///   and seed, so every thread count computes the byte-identical result
///   and the ratio of times is pure parallel speedup);
/// - `crawl_faulted`: `none` measures the pure plumbing overhead of
///   threading a zero profile through every page load (must be within
///   noise of `clean`); `mixed` is the acceptance profile with all
///   three fault classes firing;
/// - `crawl_mixed` / `crawl_h3`: `share_0.00` again is plumbing only;
///   the nonzero legacy shares add the h1 cycle count, ALPN
///   bookkeeping and the per-connection redundancy probes, the nonzero
///   h3 shares Alt-Svc learning, QUIC handshakes, QPACK encoding and
///   CID rotation on every upgraded connection.
fn bench_crawl_variants(c: &mut Criterion) {
    use origin_netsim::FaultProfile;
    let base = CrawlSpec {
        threads: 2,
        ..CrawlSpec::new(150, 0x0516)
    };
    let mixed = FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap();
    let faults = [
        ("clean", None),
        ("none", Some(FaultProfile::none())),
        ("mixed", Some(mixed)),
    ];
    let share = |s: f64| format!("share_{s:.2}");
    let mut group = |name: &str, variants: Vec<(String, CrawlSpec)>| {
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        for (id, spec) in variants {
            g.bench_with_input(BenchmarkId::from_parameter(id), &spec, |b, spec| {
                b.iter(|| {
                    let r = spec.run();
                    (r.characterization.pages, r.plan.total_sites)
                })
            });
        }
        g.finish();
    };
    let scaling = [1, 2, 4, 8].map(|threads| {
        let spec = CrawlSpec::new(400, 0x0516);
        (threads.to_string(), CrawlSpec { threads, ..spec })
    });
    group("crawl_scaling", scaling.into());
    let faulted = faults.map(|(label, faults)| {
        (
            label.into(),
            CrawlSpec {
                faults,
                ..base.clone()
            },
        )
    });
    group("crawl_faulted", faulted.into());
    let legacy = [0.0, 0.25, 0.5].map(|legacy_share| {
        let spec = base.clone();
        (
            share(legacy_share),
            CrawlSpec {
                legacy_share,
                ..spec
            },
        )
    });
    group("crawl_mixed", legacy.into());
    let h3 = [0.0, 0.5, 1.0].map(|h3_share| {
        let spec = base.clone();
        (share(h3_share), CrawlSpec { h3_share, ..spec })
    });
    group("crawl_h3", h3.into());
}

/// One single-thread pass over `spec`'s universe through
/// `origin_bench::crawl_stages` — the crawl's own worker, with one
/// `Instant` lap per stage. Returns µs per site for each of
/// [`STAGES`].
fn crawl_stages_pass(spec: &CrawlSpec) -> [f64; 6] {
    // `lap(stage)` charges the time since the previous lap to `stage`;
    // slot 6 takes what belongs to none (worker set-up).
    let mut spent = [0.0f64; 7];
    let mut clock = Instant::now();
    let crawled = crawl_stages(spec, |stage| {
        let now = Instant::now();
        spent[stage] += (now - clock).as_secs_f64() * 1e6;
        clock = now;
    });
    let per = |stage| {
        if stage == 0 {
            f64::from(spec.sites)
        } else {
            crawled as f64
        }
    };
    std::array::from_fn(|stage| spent[stage] / per(stage))
}

/// The crawl's stage ledger (DESIGN.md §12): µs per site spent in each
/// stage of `crawl_site`, each stage's best over the passes, one
/// thread, 2,000 ranks. Two rows: the pure-h2 `crawl-small` universe,
/// and the `crawl-mixed` configuration of `BENCHMARK.json` (h1 and h3
/// machines, fault recovery, every telemetry sink), whose `load` cell
/// is where a protocol-machine change shows. A third row times
/// `generate` alone at 20,000 ranks.
fn bench_crawl_stages(c: &mut Criterion) {
    let pure = CrawlSpec::new(2_000, 0x0516);
    let mixed = CrawlSpec {
        sampler: Some(Sampler::new(4)),
        faults: Some(FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap()),
        legacy_share: 0.25,
        h3_share: 0.5,
        obs: Some(ObsConfig::default()),
        ..pure.clone()
    };
    let mut g = c.benchmark_group("crawl_stages");
    g.sample_size(25);
    for (label, row, spec) in [
        ("sites_2000", "crawl_stages", pure),
        ("mixed_2000", "crawl_stages mixed", mixed),
    ] {
        let mut best = [f64::INFINITY; 6];
        g.bench_function(label, |b| {
            b.iter(|| {
                for (best, pass) in best.iter_mut().zip(crawl_stages_pass(&spec)) {
                    *best = best.min(pass);
                }
            })
        });
        if best[0].is_finite() {
            let cells: Vec<String> = STAGES
                .iter()
                .zip(best)
                .map(|(stage, us)| format!("{stage} {us:.1}"))
                .collect();
            println!("{row} µs/site: {}", cells.join(" · "));
        }
    }
    // Generation alone at crawl-large's 20,000 ranks (the default
    // world), where the world outgrows cache: its best pass.
    let large = DatasetConfig::default();
    let mut best = f64::INFINITY;
    g.sample_size(12);
    g.bench_function("generate_20000", |b| {
        b.iter(|| {
            let start = Instant::now();
            let dataset = Dataset::generate(large);
            best = best.min(start.elapsed().as_secs_f64() * 1e6 / f64::from(large.sites));
            dataset
        })
    });
    if best.is_finite() {
        println!("crawl_stages 20000 µs/site: generate {best:.1}");
    }
    g.finish();
}

fn bench_pool_decide(c: &mut Criterion) {
    // The per-request coalescing decision across pool sizes: a walk of
    // the pool, so it grows with the connections a page opened.
    use origin_browser::pool::ReuseDecision;
    use origin_browser::{ConnectionPool, PoolPartition, PooledConnection};
    use origin_dns::name::name;
    use origin_web::Protocol;
    use std::net::{IpAddr, Ipv4Addr};

    let mut g = c.benchmark_group("pool_decide");
    for &conns in &[16usize, 64, 256] {
        let mut pool = ConnectionPool::new();
        for i in 0..conns {
            let host = format!("h{i}.svc{}.example", i % 17);
            let ip = IpAddr::V4(Ipv4Addr::new(10, 1, (i / 251) as u8, (i % 251) as u8));
            let mut b = origin_tls::CertificateBuilder::new(name(&host));
            b = b.san(name(&format!("*.svc{}.example", i % 17)));
            pool.insert(PooledConnection {
                host: name(&host),
                ip,
                available_set: vec![ip].into(),
                cert: std::sync::Arc::new(b.build()),
                origin_set: None,
                protocol: Protocol::H2,
                partition: PoolPartition::Default,
                bytes_transferred: 0,
                in_flight: 0,
                busy_until: 0.0,
                closed: false,
                quic: false,
            });
        }
        // A host only a wildcard SAN covers, resolving to an address
        // no connection holds: the decision walks every connection
        // before answering.
        let host = name("new.svc3.example");
        let answer = [IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))];
        g.bench_with_input(BenchmarkId::new("walk", conns), &conns, |b, _| {
            b.iter(|| {
                let d = pool.decide(
                    BrowserKind::Chromium,
                    &host,
                    &answer,
                    PoolPartition::Default,
                    6,
                    0.0,
                    |_| true,
                );
                matches!(d, ReuseDecision::New)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_dataset_generation,
    bench_page_materialization,
    bench_page_load,
    bench_full_characterization,
    bench_crawl_variants,
    bench_crawl_stages,
    bench_pool_decide
);
criterion_main!(benches);
