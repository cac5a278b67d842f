//! The six workloads, and what an untraced and a traced run of each
//! does.

use crate::crawl::{self, CrawlSpec};
use crate::harness::{measure, Checked, Untraced};
use crate::report::PER_LAYER;
use crate::spans::SpanLog;
use crate::stats::{derive_seed, median};
use crate::{deploy, probes, serve};
use origin_serve::engine::run_serve_on;
use origin_serve::ServeConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Universe sizes of the crawl workloads.
const SMALL_SITES: u32 = 2_000;
const LARGE_SITES: u32 = 20_000;
const MIXED_SITES: u32 = 5_000;
/// Traffic of the serve workloads (the BENCH_6 shape).
const SERVE_VISITS: u64 = 1_000_000;
const SERVE_SITES: u32 = 20_000;
/// Reference slices: what a traced run uses to fill the ledger rows
/// of the pipelines its own workload does not call, [`SLICE_PASSES`]
/// times each.
const SLICE_CRAWL_SITES: u32 = 500;
const SLICE_SERVE_VISITS: u64 = 100_000;
const SLICE_SERVE_SITES: u32 = 2_000;
const SLICE_PASSES: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pure-h2 crawl, 2,000 sites: cache-resident.
    CrawlSmall,
    /// Pure-h2 crawl, 20,000 sites: working set outgrows cache.
    CrawlLarge,
    /// 5,000 sites with h1/h3 shares, faults and all telemetry sinks.
    CrawlMixed,
    /// The §5 deployment pipeline over a 5,000-candidate sample group.
    DeployS5,
    /// 1M visits over 20,000 sites, default (reuse-heavy) pool.
    ServeSteady,
    /// Same traffic, starved pool under a live rollout.
    ServeChurn,
}

/// Which pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Crawl,
    Deploy,
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::CrawlSmall,
        Workload::CrawlLarge,
        Workload::CrawlMixed,
        Workload::DeployS5,
        Workload::ServeSteady,
        Workload::ServeChurn,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrawlSmall => "crawl-small",
            Workload::CrawlLarge => "crawl-large",
            Workload::CrawlMixed => "crawl-mixed",
            Workload::DeployS5 => "deploy-s5",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `units_per_s` counts, and how many one rep processes.
    pub fn units(self) -> (u64, &'static str) {
        match self {
            Workload::CrawlSmall => (u64::from(SMALL_SITES), "sites"),
            Workload::CrawlLarge => (u64::from(LARGE_SITES), "sites"),
            Workload::CrawlMixed => (u64::from(MIXED_SITES), "sites"),
            Workload::DeployS5 => (u64::from(deploy::CANDIDATES), "candidates"),
            Workload::ServeSteady | Workload::ServeChurn => (SERVE_VISITS, "visits"),
        }
    }

    fn family(self) -> Family {
        match self {
            Workload::CrawlSmall | Workload::CrawlLarge | Workload::CrawlMixed => Family::Crawl,
            Workload::DeployS5 => Family::Deploy,
            Workload::ServeSteady | Workload::ServeChurn => Family::Serve,
        }
    }

    fn crawl_spec(self) -> CrawlSpec {
        match self {
            Workload::CrawlSmall => CrawlSpec::pure(SMALL_SITES),
            Workload::CrawlLarge => CrawlSpec::pure(LARGE_SITES),
            Workload::CrawlMixed => CrawlSpec::mixed(MIXED_SITES),
            _ => CrawlSpec::pure(SLICE_CRAWL_SITES),
        }
    }

    fn serve_config(self, seed: u64) -> ServeConfig {
        match self {
            Workload::ServeSteady => serve::steady(seed, SERVE_VISITS, SERVE_SITES),
            Workload::ServeChurn => serve::churn(seed, SERVE_VISITS, SERVE_SITES),
            _ => serve::steady(seed, SLICE_SERVE_VISITS, SLICE_SERVE_SITES),
        }
    }

    /// Traced passes over the workload's own pipeline; each per-layer
    /// metric is the median over them. Sized so a traced run costs
    /// about what an untraced one does.
    fn traced_passes(self) -> usize {
        match self {
            Workload::CrawlSmall | Workload::DeployS5 => 5,
            Workload::CrawlMixed => 3,
            Workload::CrawlLarge | Workload::ServeSteady | Workload::ServeChurn => 1,
        }
    }

    /// Whether `family` is this workload's own pipeline, and how many
    /// traced passes it gets: the workload's own count, or the
    /// reference slice's.
    fn native_and_passes(self, family: Family) -> (bool, usize) {
        if self.family() == family {
            (true, self.traced_passes())
        } else {
            (false, SLICE_PASSES)
        }
    }
}

/// The seeds one `--seed` fans out into. The program under test sees
/// only these derived values, never the benchmark seed itself.
fn dataset_seed(seed: u64) -> u64 {
    derive_seed(seed, 0xDA7A)
}

fn deploy_seed(seed: u64) -> u64 {
    derive_seed(seed, 0x5EC5)
}

/// The end-to-end metric values of one untraced run.
pub fn end_to_end(workload: Workload, run: &Untraced) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("units_per_s", workload.units().0 as f64 / run.rep_best_s()),
        ("setup_s", run.setup_best_s()),
        ("peak_rss_mib", run.peak_rss_mib),
    ])
}

/// Run `workload` untraced for about `budget`.
pub fn run_untraced(workload: Workload, seed: u64, budget: Duration) -> Result<Untraced, String> {
    match workload.family() {
        Family::Crawl => {
            let spec = workload.crawl_spec();
            let ds = dataset_seed(seed);
            let with_paper = workload == Workload::CrawlSmall;
            measure(
                budget,
                || spec.generate(ds).sites().len(),
                |_| spec.run(ds, 1),
                |r| spec.verify(r, with_paper),
            )
        }
        Family::Deploy => {
            let ps = deploy_seed(seed);
            measure(
                budget,
                || deploy::build_group(seed),
                |group| deploy::run_pipeline(group, ps, &mut SpanLog::off()),
                deploy::verify,
            )
        }
        Family::Serve => {
            let cfg = workload.serve_config(seed);
            measure(
                budget,
                || serve::compile(&cfg, &mut SpanLog::off()),
                |plans| run_serve_on(&cfg, plans),
                |report| serve::verify(&cfg, report),
            )
        }
    }
}

/// One traced run: the full per-layer ledger.
pub struct TracedReport {
    /// Checks made (invariants, digest agreement, replay-vs-run).
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Every per-layer metric of the catalogue.
    pub values: BTreeMap<&'static str, f64>,
}

/// Samples per metric across passes, and the checks made on the way.
#[derive(Default)]
struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, metrics: BTreeMap<&'static str, f64>) {
        for (name, value) in metrics {
            self.sample(name, value);
        }
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Count one check; `what` names it in the failure line.
    fn check<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| self.failures.push(format!("{what}: {why}")))
            .ok()
    }

    /// Check that `got` repeats the digest of `want`.
    fn check_same(&mut self, what: &str, want: Option<Checked>, got: Result<Checked, String>) {
        let outcome = got.and_then(|g| match want {
            Some(w) if w.digest != g.digest => Err(format!(
                "sim_digest {:#018x} differs from {:#018x}",
                g.digest, w.digest
            )),
            _ => Ok(()),
        });
        self.check(what, outcome);
    }
}

/// Wall time of `f`, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Relative cost of `with` over `without`, in percent.
fn overhead_pct(with: f64, without: f64) -> f64 {
    (with - without) / without * 100.0
}

/// Crawl rows of the ledger: per pass, one untraced
/// `run_crawl_observed`, then the traced replay, which must reproduce
/// its registry and digest. On a crawl workload it adds the
/// measurements that only mean something at the workload's own size: thread scaling, the
/// 20k÷2k flatness ratio, and the telemetry overheads on the mixed
/// universe.
fn crawl_rows(workload: Workload, seed: u64, ledger: &mut Ledger) {
    let spec = workload.crawl_spec();
    let ds = dataset_seed(seed);
    let (native, passes) = workload.native_and_passes(Family::Crawl);
    for pass in 0..passes {
        let (run_wall, run) = timed(|| spec.run(ds, 1));
        let verdict = spec.verify(&run, native && workload == Workload::CrawlSmall);
        let run_json = run.metrics.to_json();
        drop(run);
        let checked = ledger.check(&format!("crawl pass {pass}"), verdict);

        let mut log = SpanLog::on();
        let replay = crawl::replay(&spec, ds, &mut log);
        let same = if replay.metrics.to_json() != run_json {
            Err("replay registry differs from run_crawl_observed's".to_string())
        } else if checked.is_some_and(|c| c.digest != replay.digest) {
            Err("replay digest differs from run_crawl_observed's".to_string())
        } else {
            Ok(())
        };
        ledger.check(&format!("crawl replay {pass}"), same);
        ledger.record(crawl::layer_metrics(&spec, &replay, &log, run_wall));
        if !native {
            continue;
        }

        ledger.sample(
            "bench.trace_overhead_pct",
            overhead_pct(replay.wall_s, run_wall),
        );
        if let Some(err) = checked.and_then(|c| c.paper_abs_err_pct) {
            ledger.sample("paper_abs_err_pct", err);
        }
        let (t2_wall, t2) = timed(|| spec.run(ds, 2));
        ledger.check_same(
            &format!("crawl 2 threads {pass}"),
            checked,
            spec.verify(&t2, false),
        );
        drop(t2);
        ledger.sample("bench.crawl_speedup_t2", run_wall / t2_wall);
        if workload == Workload::CrawlLarge {
            let small = CrawlSpec::pure(SMALL_SITES);
            let best = (0..5)
                .map(|_| timed(|| small.run(ds, 1)).0)
                .fold(f64::INFINITY, f64::min);
            let per_site = |wall: f64, sites: u32| wall / f64::from(sites);
            ledger.sample(
                "bench.crawl_flatness",
                per_site(run_wall, LARGE_SITES) / per_site(best, SMALL_SITES),
            );
        }
        if workload == Workload::CrawlMixed {
            let unobserved = CrawlSpec {
                observed: false,
                ..spec.clone()
            };
            let unsampled = CrawlSpec {
                sampler: None,
                ..spec.clone()
            };
            let wall = |s: &CrawlSpec| timed(|| s.run(ds, 1)).0;
            ledger.sample(
                "obs.observed_overhead_pct",
                overhead_pct(run_wall, wall(&unobserved)),
            );
            ledger.sample(
                "trace.sampled_overhead_pct",
                overhead_pct(run_wall, wall(&unsampled)),
            );
        }
    }
}

/// §5 rows of the ledger: per pass, build the group, run the pipeline
/// untraced, then traced; both must agree.
fn deploy_rows(workload: Workload, seed: u64, ledger: &mut Ledger) {
    let ps = deploy_seed(seed);
    let (native, passes) = workload.native_and_passes(Family::Deploy);
    for pass in 0..passes {
        let (build_s, group) = timed(|| deploy::build_group(seed));
        let (plain_wall, plain) = timed(|| deploy::run_pipeline(&group, ps, &mut SpanLog::off()));
        let checked = ledger.check(&format!("s5 pass {pass}"), deploy::verify(&plain));
        let mut log = SpanLog::on();
        let (traced_wall, traced) = timed(|| deploy::run_pipeline(&group, ps, &mut log));
        ledger.check_same(
            &format!("s5 traced {pass}"),
            checked,
            deploy::verify(&traced),
        );
        ledger.record(deploy::layer_metrics(&traced, &log, build_s));
        if native {
            ledger.sample(
                "bench.trace_overhead_pct",
                overhead_pct(traced_wall, plain_wall),
            );
            if let Some(err) = checked.and_then(|c| c.paper_abs_err_pct) {
                ledger.sample("paper_abs_err_pct", err);
            }
        }
    }
}

/// Serve rows of the ledger: compile under spans, run untraced, run
/// under a span; a serve workload adds the two-shard run.
fn serve_rows(workload: Workload, seed: u64, ledger: &mut Ledger) {
    let cfg = workload.serve_config(seed);
    let (native, passes) = workload.native_and_passes(Family::Serve);
    for pass in 0..passes {
        let mut log = SpanLog::on();
        let plans = serve::compile(&cfg, &mut log);
        let (plain_wall, plain) = timed(|| run_serve_on(&cfg, &plans));
        let checked = ledger.check(&format!("serve pass {pass}"), serve::verify(&cfg, &plain));
        drop(plain);
        let (traced_wall, traced) =
            timed(|| log.wrap("serve.run", 0, || run_serve_on(&cfg, &plans)));
        ledger.check_same(
            &format!("serve traced {pass}"),
            checked,
            serve::verify(&cfg, &traced),
        );
        ledger.record(serve::layer_metrics(&cfg, &plans, &traced, &log));
        if native {
            ledger.sample(
                "bench.trace_overhead_pct",
                overhead_pct(traced_wall, plain_wall),
            );
            let two = ServeConfig {
                threads: 2,
                ..cfg.clone()
            };
            let (t2_wall, t2) = timed(|| run_serve_on(&two, &plans));
            ledger.check_same(
                &format!("serve 2 threads {pass}"),
                checked,
                serve::verify(&two, &t2),
            );
            ledger.sample("serve.speedup_t2", plain_wall / t2_wall);
        }
    }
}

/// Run `workload` traced. Its own pipeline runs at full size; the
/// other two pipelines run on their reference slice, so every
/// time-valued row of the ledger is measured on every traced run.
/// Rows that only exist on another workload (thread scaling,
/// flatness, telemetry overheads, h1/h3 shares on a pure universe,
/// paper error) read 0.
pub fn run_traced(workload: Workload, seed: u64) -> TracedReport {
    let mut ledger = Ledger::default();
    crawl_rows(workload, seed, &mut ledger);
    deploy_rows(workload, seed, &mut ledger);
    serve_rows(workload, seed, &mut ledger);

    let mut values: BTreeMap<&'static str, f64> = ledger
        .samples
        .iter()
        .map(|(&name, samples)| (name, median(samples)))
        .collect();
    probes::run_all(&mut values);
    for def in &PER_LAYER {
        values.entry(def.name).or_insert(0.0);
    }
    TracedReport {
        attempted: ledger.attempted,
        failures: ledger.failures,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_units_are_positive() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.units().0 > 0 && w.traced_passes() > 0);
        }
        assert_eq!(Workload::from_name("crawl"), None);
    }

    #[test]
    fn ledger_counts_checks_and_keeps_failure_reasons() {
        let mut ledger = Ledger::default();
        let c = |digest| Checked {
            digest,
            paper_abs_err_pct: None,
        };
        assert_eq!(ledger.check("a", Ok::<_, String>(5)), Some(5));
        assert_eq!(ledger.check::<()>("b", Err("broke".into())), None);
        ledger.check_same("c", Some(c(1)), Ok(c(1)));
        ledger.check_same("d", Some(c(1)), Ok(c(2)));
        ledger.check_same("e", None, Ok(c(2)));
        assert_eq!(ledger.attempted, 5);
        assert_eq!(ledger.failures.len(), 2);
        assert!(ledger.failures[0].starts_with("b: broke"));
        assert!(ledger.failures[1].starts_with("d: sim_digest"));
        ledger.sample("x", 3.0);
        ledger.record(BTreeMap::from([("x", 1.0), ("y", 2.0)]));
        assert_eq!(ledger.samples["x"], [3.0, 1.0]);
        assert_eq!(overhead_pct(105.0, 100.0), 5.0);
    }
}
