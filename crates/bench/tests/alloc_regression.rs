//! Allocation-count regression gate for the steady-state crawl path,
//! and memory gates on the world it crawls and on an observed crawl.
//!
//! A counting global allocator measures per-visit heap allocations in
//! the three phases of a crawled site — page materialization through a
//! recycled [`PageScratch`], the simulated load through a recycled
//! [`VisitArena`], and the §3/§4 analysis of the result
//! (`Characterization::add`, `predict_counts3`, `plan_site`,
//! `PlanSummary::add`) — and asserts they stay under recorded
//! ceilings. It also counts bytes and keeps their high-water mark, so
//! it measures what the generated world holds before the first visit
//! and the most an observed, traced crawl ever holds at once.
//!
//! The ceilings document the arena work this crate's crawl loop
//! relies on: before scratch/arena recycling the same loop averaged
//! ~306 allocations per page build and ~206 per load; the recycled
//! path measured ~6 and ~94 when it landed, 2 and 74 before the pool
//! and the resolver cache stopped interning hostnames, 2 and 45 while
//! a page still carried a rendered path `String` per resource and
//! every new connection cloned its certificate's issuer text, and
//! measured 0 and 29 until the world stored each of its facts once
//! (below); the load now measures 0.13. The analysis measured 14.2 when it built a
//! `Vec` of ASes, two hash sets and two `Vec`s of end times per page,
//! and measures 3.8: what is left is the crawl meeting new keys (a
//! self-hosted site is a new AS, a tail service a new hostname), the
//! plan's additions and amortised growth of the sample vectors. The
//! bounds below carry headroom for allocator-placement jitter, not
//! for regressions — an accidental per-visit `Vec`/`String` revival
//! trips them immediately.
//!
//! A traced load adds nothing to that on a warm tracer: recording an
//! event is a few stores into arenas that already grew, where the
//! owned-`String`, `Vec`-of-args buffer it replaced allocated ~1,750
//! times per traced visit. The same loop with `Some(&mut tracer)`
//! must stay within [`MAX_TRACED_EXTRA_ALLOCS_PER_VISIT`] of the
//! untraced count.
//!
//! The §5 active measurement is held to the same rule. Its world —
//! sites, certificates, host index — is the `SampleGroup`'s; a worker
//! owns a `CdnEnv` view, a `VisitArena` and one `Page` it writes every
//! site's page over. When each worker's `CdnEnv` rebuilt two host maps
//! per arm, every connection deep-cloned its certificate, every DNS
//! answer was a fresh `Arc` and every visit built its page from
//! nothing, a visit allocated 31 / 38 / 32 times (IP-aligned / ORIGIN
//! / baseline, whole `run_both_threads` ÷ visits); with the world
//! shared it measured 4.1 / 11.8 / 11.0, then 0.1 / 7.8 / 6.6 once
//! neither an issuer string nor a path string was built per request,
//! and measures 0.1 / 0.1 / 6.6 now that an ORIGIN-mode connection
//! shares one of its environment's two origin sets instead of building
//! its own. What is left: baseline's one-address answer per query.
//!
//! So are the protocol machines of the mixed universe. While a QPACK
//! request owned its four fields twice over, both dynamic tables keyed
//! their index by cloned strings and an h1 cycle built its heads and
//! its wire bytes on the heap, a load allocated 842 times on a
//! universe where every page is h3 and 471 where every page is legacy;
//! with borrowed fields and heads, wire buffers the machines keep,
//! tables that reuse the strings they evict and the machines
//! themselves kept by the [`VisitArena`], it measures 55 and 29 — the
//! legacy load allocates what the pure-h2 one does, and the h3 load's
//! remainder is its session's ticket and Alt-Svc memory.
//!
//! The world itself, and what a load asks of it. While every hostname
//! was copied again as a `String` key of the universe's host and
//! certificate maps, every certificate left three copies of its issuer
//! name in the CT ledger, a shard on its root's addresses got its own
//! `Vec`, each generated name was formatted, lowercased and then
//! shared, and a page's services were picked through a fresh `Vec`,
//! hash set and candidate list, `Dataset::generate` held 1,946 live
//! bytes a rank and allocated 47.8 times a rank at 2,000 ranks (1,712
//! and 45.1 at 20,000). With each name, address set and CT record
//! stored once and handed out by handle, and the generator's buffers
//! reused from rank to rank, it measures 1,419 and 12.4 (1,234 and
//! 11.3 at 20,000). The same change took the loads from 29.5 (pure),
//! 55.3 (h3) and 29.6 (legacy) allocations to 0.13, 25.9 and 0.16: a
//! DNS miss hands out the zone's own address set, a refcount bump,
//! unless round-robin rotates it off its first address, and the crawl
//! environment stopped copying each new hostname into an intern table.
//! Counting each CT log's entries instead of keeping three 40-byte
//! records per certificate, reading a host's AS off its addresses
//! instead of a map of its own, and keying addresses by `Ipv4Addr`
//! took generation to 1,038 bytes a rank.
//!
//! Allocation counts are only meaningful if no other test mutates the
//! counters concurrently, so this file holds exactly one `#[test]`.

use origin_bench::{CrawlSpec, ObsConfig, DEPLOYMENT_CDN_ASN};
use origin_browser::{BrowserKind, PageLoader, UniverseEnv, VisitArena};
use origin_cdn::{ActiveMeasurement, DeploymentMode, SampleGroup};
use origin_core::certplan::{plan_site, PlanSummary};
use origin_core::characterize::Characterization;
use origin_core::model::predict_counts3;
use origin_netsim::{FaultProfile, SimRng};
use origin_serve::plan::compile_dataset;
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::VisitSinks;
use origin_telemetry::trace::{Sampler, Tracer};
use origin_webgen::{Dataset, DatasetConfig, PageScratch, SiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most bytes live at once since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Add `n` live bytes and raise the high-water mark to match.
fn grow(n: usize) {
    let live = LIVE.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: delegates every operation to `System`; the counters are a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(l.size());
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // A moving realloc holds both blocks for a moment.
        grow(n);
        LIVE.fetch_sub(l.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Ranks of the world whose generation is measured, and its ceilings
/// per rank: live bytes once generated, and allocations made on the
/// way. Measured 1,038 and 12.3.
const GEN_SITES: u32 = 2_000;
const MAX_GEN_BYTES_PER_SITE: f64 = 1_150.0;
const MAX_GEN_ALLOCS_PER_SITE: f64 = 15.0;

/// Per-visit allocation ceilings on the steady-state (warm scratch /
/// warm arena) crawl path. Measured 0 page / 0.13 load / 3.8 analysis;
/// the margin absorbs hash-map growth timing, not behaviour change.
const MAX_PAGE_ALLOCS_PER_VISIT: u64 = 4;
const MAX_LOAD_ALLOCS_PER_VISIT: u64 = 2;
const MAX_ANALYSIS_ALLOCS_PER_VISIT: f64 = 8.0;
/// The same load ceiling where every page drives the QPACK and
/// connection-ID machines (`h3_share` 1.0) or the HTTP/1.1 machine
/// (`legacy_share` 1.0). Measured 25.9 and 0.16.
const MAX_H3_LOAD_ALLOCS_PER_VISIT: u64 = 30;
const MAX_LEGACY_LOAD_ALLOCS_PER_VISIT: u64 = 2;
/// What tracing a visit may add to its load's allocations.
const MAX_TRACED_EXTRA_ALLOCS_PER_VISIT: u64 = 8;
/// Per-visit ceilings on a whole single-thread §5 `run_both_threads`
/// (worker set-up and result merge included) over the paper's
/// 5,000-candidate group, by deployment.
const MAX_S5_ALLOCS_PER_VISIT: [(DeploymentMode, BrowserKind, u64); 3] = [
    (DeploymentMode::IpAligned, BrowserKind::Firefox, 2),
    (DeploymentMode::OriginFrames, BrowserKind::FirefoxOrigin, 2),
    (DeploymentMode::Baseline, BrowserKind::Firefox, 9),
];
/// Ranks of the observed crawl whose peak is measured — `crawl-mixed`'s
/// universe, every sink on, one site in four traced, one thread — and
/// its ceiling on peak live bytes per rank, the dataset included. While
/// the fold kept every chunk's result until the last chunk finished,
/// timelines merged by copy and a trace event took 55 bytes, it peaked
/// at 14,066 bytes a rank; it measures 7,874.
const OBSERVED_SITES: u32 = 2_000;
const MAX_OBSERVED_PEAK_BYTES_PER_SITE: f64 = 8_700.0;
/// Ranks of the serving set-up whose peak is measured — the world
/// generated and its serve plans compiled, what `serve-*` builds before
/// its first visit — and its ceiling on peak live bytes per rank. While
/// every certificate left three CT records, every host had an AS entry
/// of its own and a host plan took 32 bytes in a `Vec`, it peaked at
/// 1,736; it measures 1,277.
const SERVE_SITES: u32 = 2_000;
const MAX_SERVE_PEAK_BYTES_PER_SITE: f64 = 1_600.0;

/// Allocations per load, metrics on, over the last three quarters of
/// `config`'s universe, after the first quarter warmed the arena and
/// the environment.
fn warm_load_allocs(config: DatasetConfig) -> u64 {
    let dataset = Dataset::generate(config);
    let sites: Vec<&SiteConfig> = dataset.successful_sites().collect();
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    let mut metrics = Registry::new();
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();
    let warm_up = sites.len() / 4;
    let mut spent = 0;
    for (i, site) in sites.iter().enumerate() {
        let page = dataset.page_for_with(site, &mut scratch);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let before = allocs();
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            None,
            Some(&mut metrics),
            None,
            &mut arena,
            VisitSinks::default(),
        );
        if i >= warm_up {
            spent += allocs() - before;
        }
        scratch.recycle(page);
        arena.recycle(load);
    }
    spent / (sites.len() - warm_up) as u64
}

#[test]
fn steady_state_crawl_allocations_stay_bounded() {
    let (a0, b0) = (allocs(), live_bytes());
    let world = Dataset::generate(DatasetConfig {
        sites: GEN_SITES,
        seed: 0x516,
        ..Default::default()
    });
    let sites = f64::from(GEN_SITES);
    let gen_allocs = (allocs() - a0) as f64 / sites;
    let gen_bytes = (live_bytes() - b0) as f64 / sites;
    drop(world);
    println!("generation per site: {gen_bytes:.0} live bytes, {gen_allocs:.1} allocations");
    assert!(
        gen_bytes <= MAX_GEN_BYTES_PER_SITE,
        "the generated world holds {gen_bytes:.0} bytes a site (ceiling {MAX_GEN_BYTES_PER_SITE}): \
         a name, an address set or a CT record is stored twice"
    );
    assert!(
        gen_allocs <= MAX_GEN_ALLOCS_PER_SITE,
        "generating a site allocates {gen_allocs:.1} times (ceiling {MAX_GEN_ALLOCS_PER_SITE}): a \
         fact of the world is copied instead of shared by handle"
    );

    let dataset = Dataset::generate(DatasetConfig {
        sites: 400,
        seed: 0x516,
        ..Default::default()
    });
    let site_cfgs: Vec<SiteConfig> = dataset.successful_sites().cloned().collect();
    assert!(site_cfgs.len() > 200, "dataset too small to average over");
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(&dataset);
    let mut metrics = Registry::new();
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();
    let mut characterization = Characterization::new(400, 500_000);
    let mut plan = PlanSummary::default();

    // One visit; returns the allocations of its page build, of its
    // load (with `begin_visit`, when traced: the label is borrowed, as
    // every value a call site hands the tracer is) and of its analysis.
    let mut visit = |site: &SiteConfig, mut tracer: Option<&mut Tracer>| {
        let a0 = allocs();
        let page = dataset.page_for_with(site, &mut scratch);
        let a1 = allocs();
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_visit(u64::from(site.rank), site.root_host.as_str());
        }
        let load = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            None,
            Some(&mut metrics),
            tracer,
            &mut arena,
            VisitSinks::default(),
        );
        let a2 = allocs();
        env.take_resolver_stats().record_into(&mut metrics);
        let a3 = allocs();
        characterization.add(&page, &load);
        std::hint::black_box(predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN));
        let universe = &dataset.universe;
        let root_asn = universe.asn_of_host(&site.root_host);
        let site_plan = plan_site(&page, universe.cert_for(&site.root_host), |a, b| {
            a.registrable_str() == b.registrable_str()
                || (root_asn != 0 && root_asn == universe.asn_of_host(b))
        });
        plan.add(&site_plan);
        drop(site_plan);
        let a4 = allocs();
        scratch.recycle(page);
        arena.recycle(load);
        (a1 - a0, a2 - a1, a4 - a3)
    };

    // Warm-up: let every recycled buffer and cache reach its
    // steady-state capacity before counting.
    let (head, tail) = site_cfgs.split_at(site_cfgs.len() / 4);
    for site in head {
        visit(site, None);
    }
    let mut page_allocs = 0u64;
    let mut load_allocs = 0u64;
    let mut analysis_allocs = 0u64;
    for site in tail {
        let (page, load, analysis) = visit(site, None);
        page_allocs += page;
        load_allocs += load;
        analysis_allocs += analysis;
    }

    // The same two passes traced, so the tracer is warm too: the
    // head's visits are already in it when counting starts.
    let mut tracer = Tracer::new();
    for site in head {
        visit(site, Some(&mut tracer));
    }
    let traced_allocs: u64 = tail.iter().map(|s| visit(s, Some(&mut tracer)).1).sum();

    let n = tail.len() as u64;
    let per_page = page_allocs / n;
    let per_load = load_allocs / n;
    let per_traced_load = traced_allocs / n;
    let per_analysis = analysis_allocs as f64 / n as f64;
    println!(
        "allocations per visit: page {per_page}, load {per_load}, traced load {per_traced_load}, \
         analysis {per_analysis:.1}"
    );
    assert!(
        per_page <= MAX_PAGE_ALLOCS_PER_VISIT,
        "page build allocates {per_page}/visit (ceiling {MAX_PAGE_ALLOCS_PER_VISIT}): \
         a PageScratch buffer stopped being recycled"
    );
    assert!(
        per_load <= MAX_LOAD_ALLOCS_PER_VISIT,
        "page load allocates {per_load}/visit (ceiling {MAX_LOAD_ALLOCS_PER_VISIT}): \
         a VisitArena buffer stopped being recycled"
    );
    assert!(
        per_analysis <= MAX_ANALYSIS_ALLOCS_PER_VISIT,
        "the analysis of a visit allocates {per_analysis:.1} times (ceiling \
         {MAX_ANALYSIS_ALLOCS_PER_VISIT}): `Characterization::add`, `predict_counts3` or \
         `plan_site` went back to building a per-page collection on the heap"
    );
    assert!(
        per_traced_load <= per_load + MAX_TRACED_EXTRA_ALLOCS_PER_VISIT,
        "a traced load allocates {per_traced_load}/visit against {per_load} untraced \
         (allowed extra {MAX_TRACED_EXTRA_ALLOCS_PER_VISIT}): an emission site went back to \
         building a `String` or a `Vec` per event"
    );

    // The protocol machines: every page h3, then every page legacy,
    // each through its own warm arena.
    for (what, legacy_share, h3_share, ceiling) in [
        ("an h3", 0.0, 1.0, MAX_H3_LOAD_ALLOCS_PER_VISIT),
        ("a legacy", 1.0, 0.0, MAX_LEGACY_LOAD_ALLOCS_PER_VISIT),
    ] {
        let per_load = warm_load_allocs(DatasetConfig {
            sites: 400,
            seed: 0x516,
            legacy_share,
            h3_share,
            ..Default::default()
        });
        println!("allocations per visit: load of {what} page {per_load}");
        assert!(
            per_load <= ceiling,
            "the load of {what} page allocates {per_load}/visit (ceiling {ceiling}): a protocol \
             machine went back to owning its header strings or its wire buffers, or the \
             VisitArena stopped keeping it"
        );
    }

    let group = SampleGroup::build(5_000, &mut SimRng::seed_from_u64(0x516));
    for (mode, browser, ceiling) in MAX_S5_ALLOCS_PER_VISIT {
        let a0 = allocs();
        let (exp, ctl) = ActiveMeasurement { mode, browser }.run_both_threads(&group, 42, 1);
        let spent = allocs() - a0;
        let visits = exp.new_connections.total() + ctl.new_connections.total();
        assert_eq!(visits, group.sites.len() as u64);
        let per_visit = spent as f64 / visits as f64;
        println!("allocations per §5 visit, {mode:?}: {per_visit:.1}");
        assert!(
            per_visit <= ceiling as f64,
            "a {mode:?} visit allocates {per_visit:.1} times (ceiling {ceiling}): the worker \
             rebuilt part of the sample world, or stopped recycling its page"
        );
    }

    let base = live_bytes();
    PEAK.store(base, Ordering::Relaxed);
    let plans = compile_dataset(&Dataset::generate(DatasetConfig {
        sites: SERVE_SITES,
        ..Default::default()
    }));
    let serve_peak = (PEAK.load(Ordering::Relaxed) - base) as f64 / f64::from(SERVE_SITES);
    drop(plans);
    println!("serve set-up: {serve_peak:.0} peak live bytes per site");
    assert!(
        serve_peak <= MAX_SERVE_PEAK_BYTES_PER_SITE,
        "generating the world and compiling its serve plans peaks at {serve_peak:.0} live bytes \
         a site (ceiling {MAX_SERVE_PEAK_BYTES_PER_SITE}): the world keeps a fact no run reads, \
         or a host plan grew"
    );

    let observed = CrawlSpec {
        threads: 1,
        sampler: Some(Sampler::new(4)),
        faults: Some(FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap()),
        legacy_share: 0.25,
        h3_share: 0.5,
        obs: Some(ObsConfig::default()),
        ..CrawlSpec::new(OBSERVED_SITES, 0x516)
    };
    let base = live_bytes();
    PEAK.store(base, Ordering::Relaxed);
    let crawl = observed.run();
    let peak = (PEAK.load(Ordering::Relaxed) - base) as f64 / f64::from(OBSERVED_SITES);
    assert!(
        crawl.trace.len() > 10_000,
        "the observed crawl traced too little"
    );
    drop(crawl);
    println!("observed crawl: {peak:.0} peak live bytes per site");
    assert!(
        peak <= MAX_OBSERVED_PEAK_BYTES_PER_SITE,
        "the observed crawl peaks at {peak:.0} live bytes a site (ceiling \
         {MAX_OBSERVED_PEAK_BYTES_PER_SITE}): a chunk's result outlives its merge, a merge \
         copies what it could move, or a trace event grew"
    );
}
