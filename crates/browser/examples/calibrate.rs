//! Dev calibration check: medians vs paper targets.
use origin_browser::{BrowserKind, PageLoader, UniverseEnv};
use origin_core::model::{predict, CoalescingGrouping};
use origin_netsim::SimRng;
use origin_webgen::{Dataset, DatasetConfig};

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);
    let d = Dataset::generate(DatasetConfig {
        sites: n,
        ..Default::default()
    });
    let sites: Vec<_> = d.sites().iter().filter(|s| !s.failed).cloned().collect();
    for kind in [
        BrowserKind::Chromium,
        BrowserKind::IdealIp,
        BrowserKind::IdealOrigin,
    ] {
        let mut reqs = vec![];
        let mut dns = vec![];
        let mut tls = vec![];
        let mut ases = vec![];
        let mut plt = vec![];
        let mut hosts = vec![];
        let mut plt_ip = vec![];
        let mut plt_as = vec![];
        let mut plt_cdn = vec![];
        let mut dns_ip = vec![];
        let mut tls_ip = vec![];
        let mut dns_as = vec![];
        let mut tls_as = vec![];
        for site in &sites {
            let page = d.page_for(site);
            let mut env = UniverseEnv::new(&d);
            env.flush_dns();
            let loader = PageLoader::new(kind);
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xbeef);
            let pl = loader.load(&page, &mut env, &mut rng);
            reqs.push(pl.request_count() as f64);
            dns.push(pl.dns_queries() as f64);
            tls.push(pl.tls_connections() as f64);
            ases.push(pl.distinct_ases() as f64);
            plt.push(pl.plt());
            hosts.push(page.hosts.len() as f64);
            if kind == BrowserKind::Chromium {
                let (p_ip, _) = predict(&page, &pl, CoalescingGrouping::ByIp);
                let (p_as, _) = predict(&page, &pl, CoalescingGrouping::ByAs);
                let (p_cdn, _) = predict(&page, &pl, CoalescingGrouping::BySingleAs(13335));
                plt_ip.push(p_ip.plt_ms);
                plt_as.push(p_as.plt_ms);
                plt_cdn.push(p_cdn.plt_ms);
                dns_ip.push(p_ip.dns_queries as f64);
                tls_ip.push(p_ip.tls_connections as f64);
                dns_as.push(p_as.dns_queries as f64);
                tls_as.push(p_as.tls_connections as f64);
            }
        }
        let med = |v: &[f64]| origin_core::stats::median(v).unwrap();
        println!(
            "{:?}: reqs={:.0} hosts={:.0} dns={:.1} tls={:.1} ases={:.1} plt={:.0}ms",
            kind,
            med(&reqs),
            med(&hosts),
            med(&dns),
            med(&tls),
            med(&ases),
            med(&plt)
        );
        if kind == BrowserKind::Chromium {
            let m = med(&plt);
            println!("  model(recon): IP dns={:.1} tls={:.1} plt={:.0} ({:+.1}%) | ORIGIN dns={:.1} tls={:.1} plt={:.0} ({:+.1}%) | CDN plt={:.0} ({:+.1}%)",
                med(&dns_ip), med(&tls_ip), med(&plt_ip), (med(&plt_ip)-m)/m*100.0,
                med(&dns_as), med(&tls_as), med(&plt_as), (med(&plt_as)-m)/m*100.0,
                med(&plt_cdn), (med(&plt_cdn)-m)/m*100.0);
        }
    }
    println!("paper: reqs=82 dns=14 tls=16 ases=6 plt=5746 | model IP 13/13 plt-10% | ORIGIN 5/5 plt-27% | CDN plt-1.5%");
}
