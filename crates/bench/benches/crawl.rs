//! Tables 1–7 / Figure 1 regeneration benches: dataset generation,
//! page materialization, and the measured crawl.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use origin_bench::{CrawlSpec, SeriesSamples, DEPLOYMENT_CDN_ASN};
use origin_browser::{BrowserKind, PageLoader, UniverseEnv, VisitArena};
use origin_core::certplan::{plan_site, EffectiveChanges, PlanSummary};
use origin_core::characterize::Characterization;
use origin_core::model::predict_counts3;
use origin_netsim::SimRng;
use origin_webgen::{Dataset, DatasetConfig, PageScratch, PROVIDERS};
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
///   the nonzero legacy shares add the h1 machine drive, ALPN
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

/// The stages of one crawled site, in `Worker::crawl_site`'s order
/// (`generate` is the dataset build, charged per generated rank).
const STAGES: [&str; 6] = [
    "generate",
    "page",
    "load",
    "characterize",
    "model",
    "certplan",
];

/// One single-thread pass over a pure-h2 universe of `sites` ranks,
/// replaying `Worker::crawl_site`'s call sequence (crates/bench/src/
/// lib.rs — keep the two in step) with one `Instant` pair per stage.
/// Returns µs per site for each of [`STAGES`]. `characterize` includes
/// the measured-series pushes, `model` the two ideal series', and
/// `certplan` the plan and Table 9 aggregation, as in `crawl_site`.
fn crawl_stages_pass(sites: u32) -> [f64; 6] {
    // `lap(stage)` charges the time since the previous lap to `stage`;
    // slot 6 takes what belongs to none (worker set-up).
    let mut spent = [0.0f64; 7];
    let mut clock = Instant::now();
    let mut lap = |stage: usize| {
        let now = Instant::now();
        spent[stage] += (now - clock).as_secs_f64() * 1e6;
        clock = now;
    };
    let config = DatasetConfig {
        sites,
        seed: 0x0516,
        ..Default::default()
    };
    let dataset = Dataset::generate(config);
    lap(0);
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();
    let mut characterization = Characterization::new(sites, config.tranco_total);
    let mut series: [SeriesSamples; 3] = Default::default();
    let mut model_cdn_plt = Vec::new();
    let mut plan = PlanSummary::default();
    let mut effective = EffectiveChanges::new();
    let mut metrics = origin_metrics::Registry::new();
    let universe = &dataset.universe;
    let mut crawled = 0u32;
    lap(6);
    for site in dataset.successful_sites() {
        crawled += 1;
        let page = dataset.page_for_with(site, &mut scratch);
        lap(1);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            None,
            Some(&mut metrics),
            None,
            &mut arena,
            origin_obs::VisitSinks::default(),
        );
        env.take_resolver_stats().record_into(&mut metrics);
        lap(2);
        let totals = characterization.add(&page, &load);
        series[0].push(totals.dns_queries, totals.tls_connections, totals.plt_ms);
        lap(3);
        let [ip, origin, cdn] = predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN);
        series[1].push(ip.dns_queries, ip.tls_connections, ip.plt_ms);
        series[2].push(origin.dns_queries, origin.tls_connections, origin.plt_ms);
        model_cdn_plt.push(cdn.plt_ms);
        lap(4);
        let cert = universe.cert_for(&site.root_host);
        let root_reg = site.root_host.registrable_str();
        let root_asn = universe.asn_of_host(&site.root_host);
        let site_plan = plan_site(&page, cert, |_, b| {
            root_reg == b.registrable_str()
                || (root_asn != 0 && root_asn == universe.asn_of_host(b))
        });
        plan.add(&site_plan);
        let provider = site.provider.map_or("Self-hosted", |i| PROVIDERS[i].org);
        effective.add(provider, &site_plan);
        scratch.recycle(page);
        arena.recycle(load);
        lap(5);
    }
    criterion::black_box((
        &characterization.pages,
        &series,
        &model_cdn_plt,
        &plan.total_sites,
        &effective,
    ));
    std::array::from_fn(|stage| spent[stage] / f64::from(if stage == 0 { sites } else { crawled }))
}

/// The crawl's stage ledger (DESIGN.md §10): µs per site spent in each
/// stage of `crawl_site`, each stage's best over the passes, one
/// thread, 2,000 ranks — the `crawl-small` universe.
fn bench_crawl_stages(c: &mut Criterion) {
    let mut best = [f64::INFINITY; 6];
    let mut g = c.benchmark_group("crawl_stages");
    g.sample_size(25);
    g.bench_function("sites_2000", |b| {
        b.iter(|| {
            for (best, pass) in best.iter_mut().zip(crawl_stages_pass(2_000)) {
                *best = best.min(pass);
            }
        })
    });
    g.finish();
    if best[0].is_finite() {
        let cells: Vec<String> = STAGES
            .iter()
            .zip(best)
            .map(|(stage, us)| format!("{stage} {us:.1}"))
            .collect();
        println!("crawl_stages µs/site: {}", cells.join(" · "));
    }
}

fn bench_pool_decide(c: &mut Criterion) {
    // The per-request coalescing decision, indexed vs. the linear
    // reference scan, across pool sizes. The indexed path should be
    // flat in pool size; the linear path grows with it.
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
        // no connection holds: the decision must consult the SAN
        // indexes (or scan everything) before answering.
        let host = name("new.svc3.example");
        let answer = [IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))];
        for (label, linear) in [("indexed", false), ("linear", true)] {
            g.bench_with_input(BenchmarkId::new(label, conns), &linear, |b, &linear| {
                b.iter(|| {
                    let d = if linear {
                        pool.decide_linear(
                            BrowserKind::Chromium,
                            &host,
                            &answer,
                            PoolPartition::Default,
                            6,
                            0.0,
                            |_| true,
                        )
                    } else {
                        pool.decide(
                            BrowserKind::Chromium,
                            &host,
                            &answer,
                            PoolPartition::Default,
                            6,
                            0.0,
                            |_| true,
                        )
                    };
                    matches!(d, ReuseDecision::New)
                })
            });
        }
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
