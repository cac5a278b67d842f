//! End-to-end integration: dataset → crawl → model → certificate plan
//! → deployment, asserting the paper's headline orderings hold across
//! the whole pipeline.

use respect_origin::browser::{BrowserKind, PageLoader, UniverseEnv};
use respect_origin::cdn::{
    ActiveMeasurement, DeploymentMode, PassivePipeline, SampleGroup, Treatment,
};
use respect_origin::model::certplan::{plan_site, PlanSummary};
use respect_origin::model::model::{predict, CoalescingGrouping};
use respect_origin::netsim::SimRng;
use respect_origin::webgen::{Dataset, DatasetConfig};

const SITES: u32 = 600;

type CrawlSeries = (
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    PlanSummary,
);

fn crawl() -> CrawlSeries {
    let dataset = Dataset::generate(DatasetConfig {
        sites: SITES,
        ..Default::default()
    });
    let cfgs: Vec<_> = dataset.successful_sites().cloned().collect();
    let loader = PageLoader::new(BrowserKind::Chromium);
    let (mut m_dns, mut m_tls, mut m_plt) = (vec![], vec![], vec![]);
    let (mut o_dns, mut o_tls, mut o_plt) = (vec![], vec![], vec![]);
    let mut plan = PlanSummary::default();
    for site in &cfgs {
        let page = dataset.page_for(site);
        let mut env = UniverseEnv::new(&dataset);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let load = loader.load(&page, &mut env, &mut rng);
        m_dns.push(load.dns_queries() as f64);
        m_tls.push(load.tls_connections() as f64);
        m_plt.push(load.plt());
        let (origin, recon) = predict(&page, &load, CoalescingGrouping::ByAs);
        o_dns.push(origin.dns_queries as f64);
        o_tls.push(origin.tls_connections as f64);
        o_plt.push(origin.plt_ms);
        // Reconstruction invariants per page.
        assert!(
            origin.plt_ms <= load.plt() + 1e-9,
            "reconstruction must not slow pages"
        );
        assert!(origin.tls_connections <= load.tls_connections());
        assert!(origin.dns_queries <= load.dns_queries());
        assert_eq!(recon.requests.len(), load.requests.len());

        let cert = dataset.universe.cert_for(&site.root_host).cloned();
        let universe = &dataset.universe;
        let p = plan_site(&page, cert.as_ref(), |a, b| {
            a.registrable() == b.registrable()
                || (universe.asn_of_host(a) != 0
                    && universe.asn_of_host(a) == universe.asn_of_host(b))
        });
        plan.add(&p);
    }
    (m_dns, m_tls, m_plt, o_dns, o_tls, o_plt, plan)
}

#[test]
fn headline_shape_reproduction() {
    let (m_dns, m_tls, m_plt, o_dns, o_tls, o_plt, plan) = crawl();
    let med = |v: &[f64]| respect_origin::stats::median(v).unwrap();

    // Table 1 medians, within tolerance bands of (14, 16, 5746ms).
    assert!(
        (11.0..=17.0).contains(&med(&m_dns)),
        "measured DNS median {}",
        med(&m_dns)
    );
    assert!(
        (12.0..=19.0).contains(&med(&m_tls)),
        "measured TLS median {}",
        med(&m_tls)
    );
    assert!(
        (3_000.0..=8_000.0).contains(&med(&m_plt)),
        "measured PLT median {}",
        med(&m_plt)
    );

    // Figure 3: ORIGIN-ideal medians near 5, with ≥50% reductions.
    assert!(
        (4.0..=7.0).contains(&med(&o_dns)),
        "origin DNS median {}",
        med(&o_dns)
    );
    assert!(
        (4.0..=7.0).contains(&med(&o_tls)),
        "origin TLS median {}",
        med(&o_tls)
    );
    let dns_red = 1.0 - med(&o_dns) / med(&m_dns);
    let tls_red = 1.0 - med(&o_tls) / med(&m_tls);
    assert!(dns_red > 0.45, "DNS reduction {dns_red}");
    assert!(tls_red > 0.55, "TLS reduction {tls_red}");

    // Figure 9: the model predicts faster, by a visible margin.
    let plt_red = 1.0 - med(&o_plt) / med(&m_plt);
    assert!(plt_red > 0.05, "PLT reduction {plt_red}");

    // §4.3: most sites need few changes (paper: 62.4% none, 92.7% ≤10).
    assert!(
        plan.unchanged_fraction() > 0.5,
        "unchanged {}",
        plan.unchanged_fraction()
    );
    assert!(
        plan.within_changes(10) > 0.9,
        "within 10 {}",
        plan.within_changes(10)
    );
    // The ideal SAN distribution shifts right.
    let (existing, ideal) = plan.figure4();
    assert!(ideal.median().unwrap() >= existing.median().unwrap());
}

#[test]
fn deployment_consistent_with_model() {
    // The §5 deployment should show what the §4 model promised:
    // experiment coalesces, control does not, both arms' PLT similar.
    let mut rng = SimRng::seed_from_u64(0xE2E);
    let group = SampleGroup::build(2_000, &mut rng);
    assert!(group.equal_byte_check());

    let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both_threads(&group, 1, 1);
    assert!(exp.fraction_with(0) > 0.5);
    assert!(ctl.fraction_with(0) < 0.2);

    let passive = PassivePipeline::new(DeploymentMode::OriginFrames).run(&group, 2);
    let red = passive.tp_connection_reduction();
    assert!((0.35..=0.7).contains(&red), "passive reduction {red}");

    // Active and passive must agree on direction and rough size: the
    // zero-connection share in active ≈ coalesced share in passive.
    let active_coalesce_share = exp.fraction_with(0);
    assert!(
        (active_coalesce_share - red).abs() < 0.25,
        "active {active_coalesce_share} vs passive {red}"
    );

    // Control arm never coalesces in either measurement.
    let exp_visits = group.arm(Treatment::Experiment).count();
    assert!(exp_visits > 0);
}

#[test]
fn privacy_accounting_plaintext_queries_drop() {
    // §6.2: every coalesced connection hides at least one plaintext
    // DNS query. Compare resolver plaintext counters between a
    // Chromium run and an ideal-ORIGIN run on the same pages.
    let dataset = Dataset::generate(DatasetConfig {
        sites: 120,
        ..Default::default()
    });
    let cfgs: Vec<_> = dataset.successful_sites().take(40).cloned().collect();
    let count = |kind: BrowserKind, dataset: &Dataset| -> u64 {
        let loader = PageLoader::new(kind);
        let mut total = 0;
        for site in &cfgs {
            let page = dataset.page_for(site);
            let mut env = UniverseEnv::new(dataset);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed);
            let _ = loader.load(&page, &mut env, &mut rng);
            total += env.resolver_stats().plaintext_queries;
        }
        total
    };
    let measured = count(BrowserKind::Chromium, &dataset);
    let ideal = count(BrowserKind::IdealOrigin, &dataset);
    assert!(
        (ideal as f64) < measured as f64 * 0.7,
        "plaintext queries: measured {measured}, ideal-ORIGIN {ideal}"
    );
}

#[test]
fn crawl_is_reproducible() {
    let a = crawl();
    let b = crawl();
    assert_eq!(a.0, b.0);
    assert_eq!(a.2, b.2);
    assert_eq!(a.6.total_sites, b.6.total_sites);
}

#[test]
fn trusting_origin_without_dns_removes_render_blocking_queries() {
    // §6.8: "the Firefox browser conservatively continues to make new
    // and subrequest-blocking DNS requests to hostnames in the ORIGIN
    // Frame … These additional queries could be avoided". Compare
    // stock Firefox+ORIGIN against the recommended behaviour.
    use respect_origin::browser::loader::BrowserConfig;
    use respect_origin::browser::PageLoader as Loader;
    use respect_origin::cdn::CdnEnv;

    let mut rng = SimRng::seed_from_u64(0x68);
    let group = SampleGroup::build(800, &mut rng);

    let run = |trust: bool| -> (u64, u64) {
        let mut env = CdnEnv::new(&group, DeploymentMode::OriginFrames);
        let mut config = BrowserConfig::new(BrowserKind::FirefoxOrigin);
        config.trust_origin_without_dns = trust;
        let loader = Loader { config };
        let mut dns = 0;
        let mut zero_conn_visits = 0;
        for site in group.arm(Treatment::Experiment) {
            let page = site.page();
            let mut r = SimRng::seed_from_u64(site.page_seed);
            let load = loader.load(&page, &mut env, &mut r);
            dns += load.dns_queries();
            let tp = origin_dns_name("cdnjs.cloudflare.com");
            if load.new_connections_to(&tp) == 0 {
                zero_conn_visits += 1;
            }
        }
        (dns, zero_conn_visits)
    };
    let (dns_stock, coalesced_stock) = run(false);
    let (dns_trusting, coalesced_trusting) = run(true);
    // Same coalescing outcome…
    assert!(
        (coalesced_stock as i64 - coalesced_trusting as i64).abs() <= 2,
        "stock {coalesced_stock} vs trusting {coalesced_trusting}"
    );
    // …but the trusting client issues measurably fewer DNS queries.
    assert!(
        dns_trusting < dns_stock,
        "dns: stock {dns_stock}, trusting {dns_trusting}"
    );
}

fn origin_dns_name(s: &str) -> respect_origin::dns::DnsName {
    respect_origin::dns::DnsName::parse(s).unwrap()
}
