//! Regenerate every table and figure of the paper.
//!
//! Four modes, one line each in [`USAGE`]; README.md documents every
//! flag. The main mode runs the rows of [`EXPERIMENTS`] — one §3 crawl
//! (+ §4 model) and one §5 sample group feed them all — then writes
//! the reports the output flags ask for:
//!
//! - `--only <id>...` selects rows by the table's `id` column
//!   (`--only bogus` prints them); without it every row runs, in table
//!   order — the paper's order.
//! - `--threads` shards the crawl and the §5 active and passive
//!   measurements (default: available parallelism). Everything `repro` prints or
//!   writes is byte-identical at any thread count, except the
//!   wall-clock `runtime_ms` section of `--metrics` (strip it with
//!   `jq 'del(.runtime_ms)'` before comparing).
//! - Every optional subsystem left off (`--faults`, `--legacy-share`,
//!   `--h3-share`, `--trace`, `--timeline`, `--flight-recorder`) is
//!   byte-invisible in every other output.
//!
//! `repro trace` exports one visit, `repro watch` renders the windowed
//! time series of a rank range as an ASCII dashboard, `repro serve`
//! runs the open-loop serving engine.
//!
//! Exit status: 0 on success, 1 when an output file could not be
//! written, 2 on a usage error, 3 on a `--fault-abort` trigger.

use origin_bench::{
    asn_label, trace_site, CrawlResults, CrawlSpec, H3Report, ObsConfig, RedundancyReport,
    ResilienceReport,
};
use origin_browser::{BrowserKind, PageLoader, UniverseEnv};
use origin_cdn::{
    ActiveMeasurement, ActiveResult, DeploymentMode, LongitudinalRun, MiddleboxIncident,
    PassivePipeline, SampleGroup,
};
use origin_core::model::{predict, CoalescingGrouping};
use origin_core::stats::table::{pct_change, TextTable};
use origin_core::stats::{self, Cdf, TopEntry};
use origin_netsim::{json, FaultProfile, SimDuration, SimRng};
use origin_telemetry::metrics::Registry;
use origin_telemetry::trace::{to_chrome_json, write_chrome_json, Sampler, Tracer};
use origin_tls::CtLogSet;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

struct Args {
    /// The crawl the flags describe (`sampler` and `obs` are filled
    /// in by `cmd_paper` from the output flags below).
    spec: CrawlSpec,
    only: Vec<String>,
    json: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    sample: Option<Sampler>,
    faults_report: Option<String>,
    redundancy_report: Option<String>,
    h3_report: Option<String>,
    timeline: Option<String>,
    window_ms: Option<u64>,
    fault_abort: Option<u64>,
    flight_recorder: Option<String>,
}

const USAGE: &str = "usage: repro [--sites N] [--seed S] [--threads N] [--json path] [--metrics path] [--trace path [--sample 1/N]] [--faults spec [--faults-report path]] [--legacy-share P [--redundancy-report path]] [--h3-share P [--h3-report path]] [--timeline path [--window MS]] [--flight-recorder path [--fault-abort N]] [--only id...]
       repro trace --site RANK [--format perfetto|har|ascii] [--sites N] [--seed S] [--out path]
       repro watch --site-range A-B [--sites N] [--seed S] [--threads N] [--window MS] [--faults spec] [--legacy-share P] [--h3-share P] [--out path]
       repro serve --visits N [--sites N] [--seed S] [--serve-seed S] [--threads N] [--rate R] [--rollout P [--rollout-ramp-secs S]] [--pool-budget N] [--edge-cap N] [--idle-timeout-secs S] [--window MS] [--retain-windows N] [--metrics path] [--timeline path]
       fault spec: comma-separated key=rate, keys drop corrupt h421 middlebox (e.g. drop=0.01,h421=0.005,middlebox=0.1)";

/// What an experiment is computed from.
#[derive(PartialEq)]
enum Needs {
    /// The §3 crawl + §4 model ([`Ctx::crawl`]).
    Crawl,
    /// The §5 sample group ([`Ctx::group`]), built — and wire-checked
    /// — before the first such row runs.
    Sample,
    Neither,
}

/// One row of the paper's evaluation.
struct Experiment {
    /// The name `--only` selects the row by. Two rows may share one
    /// (`f9` is drawn half from the crawl, half from the sample group).
    id: &'static str,
    needs: Needs,
    /// The `runtime_ms` bucket the row's wall clock is charged to.
    phase: Option<&'static str>,
    run: fn(&mut Ctx),
}

const fn row(
    id: &'static str,
    needs: Needs,
    phase: Option<&'static str>,
    run: fn(&mut Ctx),
) -> Experiment {
    Experiment {
        id,
        needs,
        phase,
        run,
    }
}

/// Everything `repro` can print, in print order. The `--only`
/// vocabulary, whether the crawl and the sample group are needed at
/// all, and the per-phase wall clock are all read off this table.
const EXPERIMENTS: &[Experiment] = {
    use Needs::*;
    const CHARACTERIZE: Option<&str> = Some("characterize");
    const MODEL: Option<&str> = Some("model");
    const CERTPLAN: Option<&str> = Some("certplan");
    const ACTIVE: Option<&str> = Some("active");
    const PASSIVE: Option<&str> = Some("passive");
    &[
        row("t1", Crawl, CHARACTERIZE, |c| table1(c.crawl())),
        row("t2", Crawl, CHARACTERIZE, |c| table2(c.crawl())),
        row("t3", Crawl, CHARACTERIZE, |c| table3(c.crawl())),
        row("t4", Crawl, CHARACTERIZE, |c| table4(c.crawl())),
        row("t5", Crawl, CHARACTERIZE, |c| table5(c.crawl())),
        row("t6", Crawl, CHARACTERIZE, |c| table6(c.crawl())),
        row("t7", Crawl, CHARACTERIZE, |c| table7(c.crawl())),
        row("f1", Crawl, CHARACTERIZE, |c| figure1(c.crawl())),
        row("f2", Crawl, MODEL, |c| figure2(c.seed)),
        row("f3", Crawl, MODEL, |c| figure3(c.crawl())),
        row("f4", Crawl, CERTPLAN, |c| figure4(c.crawl())),
        row("f5", Crawl, CERTPLAN, |c| figure5(c.crawl())),
        row("t8", Crawl, CERTPLAN, |c| table8(c.crawl())),
        row("t9", Crawl, CERTPLAN, |c| table9(c.crawl())),
        row("f9", Crawl, MODEL, |c| figure9_top(c.crawl())),
        row("ct", Crawl, CERTPLAN, |c| ct_impact(c.crawl())),
        row("f6", Sample, ACTIVE, |c| figure6(c.group())),
        row("f7a", Sample, ACTIVE, |c| figure7(c, true)),
        row("f7b", Sample, ACTIVE, |c| figure7(c, false)),
        row("passive-ip", Sample, PASSIVE, |c| {
            passive(c, DeploymentMode::IpAligned)
        }),
        row("passive-origin", Sample, PASSIVE, |c| {
            passive(c, DeploymentMode::OriginFrames)
        }),
        row("f8", Sample, PASSIVE, |c| figure8(c.group(), c.seed)),
        row("f9", Sample, ACTIVE, figure9_bottom),
        row("incident", Sample, PASSIVE, |c| incident(c.group(), c.seed)),
        row("privacy", Sample, ACTIVE, privacy),
        row("scheduling", Neither, None, |c| scheduling(c.seed)),
    ]
};

/// What the rows of [`EXPERIMENTS`] read and report into.
struct Ctx {
    seed: u64,
    threads: usize,
    crawl: Option<CrawlResults>,
    group: Option<SampleGroup>,
    registry: Registry,
    /// Whole-run trace buffer; filled along the way when `--trace` is
    /// given, exported at the end.
    trace: Option<Tracer>,
    /// Wall clock per driver phase (the `runtime_ms` export); the
    /// deterministic counterpart is the registry's `sim.*` section.
    phase_ms: BTreeMap<&'static str, f64>,
}

impl Ctx {
    fn crawl(&self) -> &CrawlResults {
        self.crawl
            .as_ref()
            .expect("the driver crawls before running a Crawl row")
    }

    fn group(&self) -> &SampleGroup {
        self.group
            .as_ref()
            .expect("the driver builds the sample group before running a Sample row")
    }

    /// Run both arms of the §5 active measurement `m` over the sample
    /// group, folding their work counters into the registry.
    fn measure(&mut self, m: &ActiveMeasurement, seed: u64) -> (ActiveResult, ActiveResult) {
        let (exp, ctl) = m.run_both_threads(self.group(), seed, self.threads);
        self.registry.merge(&exp.metrics);
        self.registry.merge(&ctl.metrics);
        (exp, ctl)
    }

    /// Add the wall clock since `since` to `phase`.
    fn charge(&mut self, phase: &'static str, since: Instant) {
        *self.phase_ms.entry(phase).or_default() += since.elapsed().as_secs_f64() * 1_000.0;
    }

    /// Build the §5 sample group and run the deterministic wire phase:
    /// real origin-h2 exchanges against the edge — the registry's only
    /// source of `h2.*` counters.
    fn build_sample(&mut self) {
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x5000);
        let group = SampleGroup::build(5_000, &mut rng);
        eprintln!(
            "# sample group: {} candidates, {} removed (subpage-only), {} in study",
            5_000,
            group.removed_subpage_only,
            group.sites.len()
        );
        let wire_n = group.sites.len().min(200);
        let wire = ActiveMeasurement::origin_experiment().wire_spot_check(
            &group,
            wire_n,
            Some(&mut self.registry),
            self.trace.as_mut(),
        );
        eprintln!("# wire spot check: {wire}/{wire_n} sites consistent with the analytic model");
        self.group = Some(group);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// The last arm of every flag parser: `--help`, or a usage error
/// naming the mode (`" for repro serve"`; empty in the main mode).
fn help_or_die(arg: &str, mode: &str) -> ! {
    if arg == "--help" || arg == "-h" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    die(&format!("unknown argument {arg:?}{mode}"))
}

/// Set once an output file could not be written; `main` turns it into
/// exit status 1 after every other artifact has been attempted.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Write one output file through `write`. `true` means written — the
/// caller says what it was; a failure is reported here and fails the
/// run (not the artifacts still to come).
fn write_artifact(path: &str, write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) -> bool {
    let written = File::create(path).and_then(|file| {
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        out.flush()
    });
    if let Err(e) = &written {
        eprintln!("# failed to write {path}: {e}");
        WRITE_FAILED.store(true, Ordering::Relaxed);
    }
    written.is_ok()
}

/// The [`write_artifact`] closure of an artifact rendered whole.
fn rendered(artifact: impl AsRef<[u8]>) -> impl FnOnce(&mut BufWriter<File>) -> io::Result<()> {
    move |out| out.write_all(artifact.as_ref())
}

/// The required value of flag `flag`, parsed; malformed or missing
/// values are hard errors, never silent defaults.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    check: impl Fn(&T) -> bool,
) -> T {
    let raw = value.unwrap_or_else(|| die(&format!("{flag} requires a value")));
    match raw.parse::<T>() {
        Ok(v) if check(&v) => v,
        _ => die(&format!("invalid value {raw:?} for {flag}")),
    }
}

/// The required path operand of output flag `flag` (always `Some`:
/// shaped for the `Option` field it is assigned to).
fn path_value(flag: &str, it: &mut impl Iterator<Item = String>) -> Option<String> {
    Some(
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} requires a path"))),
    )
}

/// The required `1/N` operand of `--sample`.
fn sampler_value(it: &mut impl Iterator<Item = String>) -> Sampler {
    let raw = it.next().unwrap_or_else(|| die("--sample requires 1/N"));
    Sampler::parse(&raw).unwrap_or_else(|| die(&format!("invalid value {raw:?} for --sample")))
}

/// The crawl `repro` runs when no flag says otherwise. Threads default
/// to all available cores; results are identical either way.
fn default_spec() -> CrawlSpec {
    CrawlSpec::new(4_000, 0x0516)
}

/// Parse `flag` into `spec` if it is one of the flags that shape the
/// crawl itself — shared by the main mode and `repro watch`. Returns
/// `false` (consuming nothing) for any other flag.
fn parse_crawl_flag(
    spec: &mut CrawlSpec,
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> bool {
    let share = |&p: &f64| (0.0..=1.0).contains(&p);
    match flag {
        "--sites" => spec.sites = parse_value(flag, it.next(), |&n: &u32| n > 0),
        "--seed" => spec.seed = parse_value(flag, it.next(), |_| true),
        "--threads" => spec.threads = parse_value(flag, it.next(), |&n: &usize| n > 0),
        "--faults" => {
            let raw = it
                .next()
                .unwrap_or_else(|| die("--faults requires a profile spec"));
            spec.faults = Some(
                FaultProfile::parse(&raw)
                    .unwrap_or_else(|e| die(&format!("invalid --faults spec: {e}"))),
            );
        }
        "--legacy-share" => spec.legacy_share = parse_value(flag, it.next(), share),
        "--h3-share" => spec.h3_share = parse_value(flag, it.next(), share),
        _ => return false,
    }
    true
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        spec: default_spec(),
        only: Vec::new(),
        json: None,
        metrics: None,
        trace: None,
        sample: None,
        faults_report: None,
        redundancy_report: None,
        h3_report: None,
        timeline: None,
        window_ms: None,
        fault_abort: None,
        flight_recorder: None,
    };
    // Whether a share flag was given at all, whatever its value: a
    // report flag needs its parent flag, as `--faults-report` does.
    let (mut legacy_share, mut h3_share) = (false, false);
    let mut it = argv.iter().cloned().peekable();
    while let Some(a) = it.next() {
        legacy_share |= a == "--legacy-share";
        h3_share |= a == "--h3-share";
        if parse_crawl_flag(&mut args.spec, &a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--json" => args.json = path_value(&a, &mut it),
            "--metrics" => args.metrics = path_value(&a, &mut it),
            "--trace" => args.trace = path_value(&a, &mut it),
            "--sample" => args.sample = Some(sampler_value(&mut it)),
            "--faults-report" => args.faults_report = path_value(&a, &mut it),
            "--redundancy-report" => args.redundancy_report = path_value(&a, &mut it),
            "--h3-report" => args.h3_report = path_value(&a, &mut it),
            "--timeline" => args.timeline = path_value(&a, &mut it),
            "--window" => args.window_ms = Some(parse_value(&a, it.next(), |&ms: &u64| ms > 0)),
            "--fault-abort" => {
                args.fault_abort = Some(parse_value(&a, it.next(), |&n: &u64| n > 0))
            }
            "--flight-recorder" => args.flight_recorder = path_value(&a, &mut it),
            "--only" => {
                // Consume ids up to (but not including) the next flag.
                while let Some(id) = it.next_if(|tok| !tok.starts_with("--")) {
                    let id = id.to_lowercase();
                    if !EXPERIMENTS.iter().any(|e| e.id == id) {
                        let mut known: Vec<&str> = Vec::new();
                        for e in EXPERIMENTS {
                            if !known.contains(&e.id) {
                                known.push(e.id);
                            }
                        }
                        die(&format!(
                            "unknown --only id {id:?} (known: {})",
                            known.join(" ")
                        ));
                    }
                    args.only.push(id);
                }
                if args.only.is_empty() {
                    die("--only requires at least one id");
                }
            }
            other => help_or_die(other, ""),
        }
    }
    if args.sample.is_some() && args.trace.is_none() {
        die("--sample requires --trace");
    }
    if args.faults_report.is_some() && args.spec.faults.is_none() {
        die("--faults-report requires --faults");
    }
    if args.redundancy_report.is_some() && !legacy_share {
        die("--redundancy-report requires --legacy-share");
    }
    if args.h3_report.is_some() && !h3_share {
        die("--h3-report requires --h3-share");
    }
    if args.window_ms.is_some() && args.timeline.is_none() {
        die("--window requires --timeline");
    }
    if args.fault_abort.is_some() && args.flight_recorder.is_none() {
        die("--fault-abort requires --flight-recorder");
    }
    args
}

/// The streaming-observability configuration the flags describe, or
/// `None` when the run is unobserved (no obs state allocated at all).
fn obs_config(args: &Args) -> Option<ObsConfig> {
    if args.timeline.is_none() && args.flight_recorder.is_none() {
        return None;
    }
    Some(ObsConfig {
        window: args.window_ms.map(SimDuration::from_millis),
        fault_abort: args.fault_abort,
        // A worker panic dumps the dying visit's flight events to the
        // recorder path (normal completion overwrites it with the
        // trigger snapshot, if any).
        panic_dump: args.flight_recorder.as_ref().map(std::path::PathBuf::from),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut fault_aborted = false;
    match argv.first().map(String::as_str) {
        // One site, one exporter.
        Some("trace") => cmd_trace(&argv[1..]),
        // The live-series dashboard for a rank range.
        Some("watch") => cmd_watch(&argv[1..]),
        // The open-loop serving engine instead of the one-shot crawl.
        Some("serve") => cmd_serve(&argv[1..]),
        _ => fault_aborted = cmd_paper(&parse_args(&argv)),
    }
    // Statuses last, after every requested artifact was attempted.
    if WRITE_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
    if fault_aborted {
        std::process::exit(3);
    }
}

/// The main mode: run the rows of [`EXPERIMENTS`] the flags select,
/// then write the requested reports. Returns whether a `--fault-abort`
/// threshold tripped.
fn cmd_paper(args: &Args) -> bool {
    let t_total = Instant::now();
    // The one crawl the flags describe. The report baselines below
    // derive from `args.spec`, its untraced, unobserved twin.
    let spec = CrawlSpec {
        sampler: args
            .trace
            .is_some()
            .then(|| args.sample.unwrap_or(Sampler::new(16))),
        obs: obs_config(args),
        ..args.spec.clone()
    };
    let mut ctx = Ctx {
        seed: spec.seed,
        threads: spec.threads,
        crawl: None,
        group: None,
        registry: Registry::new(),
        trace: args.trace.as_ref().map(|_| Tracer::new()),
        phase_ms: BTreeMap::new(),
    };
    // The rows `--only` selects: all of them when it is absent.
    let selected = || {
        EXPERIMENTS
            .iter()
            .filter(|e| args.only.is_empty() || args.only.iter().any(|id| id == e.id))
    };
    let needs_crawl = selected().any(|e| e.needs == Needs::Crawl)
        // A fault profile always needs the crawl: the resilience
        // report is drawn from it. Likewise the redundancy report and
        // the streaming-observability outputs.
        || spec.faults.is_some()
        || args.redundancy_report.is_some()
        || args.h3_report.is_some()
        || args.timeline.is_some()
        || args.flight_recorder.is_some();
    if needs_crawl {
        let share_note = |what: &str, p: f64| {
            if p > 0.0 {
                format!(", {what} share {p:.2}")
            } else {
                String::new()
            }
        };
        eprintln!(
            "# crawling {} synthetic sites (seed {:#x}, {} threads{}{}{})…",
            spec.sites,
            spec.seed,
            spec.threads,
            spec.faults
                .map(|p| format!(", faults {}", p.spec()))
                .unwrap_or_default(),
            share_note("legacy", spec.legacy_share),
            share_note("h3", spec.h3_share),
        );
        let t = Instant::now();
        let mut r = spec.run();
        ctx.charge("crawl", t);
        // Move the sampled crawl spans into the run trace buffer (the
        // trace's shard merge already put them in rank order).
        if let Some(t) = &mut ctx.trace {
            t.merge(std::mem::replace(&mut r.trace, Tracer::new()));
        }
        ctx.registry.merge(&r.metrics);
        ctx.crawl = Some(r);
    }

    for e in selected() {
        if e.needs == Needs::Sample && ctx.group.is_none() {
            ctx.build_sample();
        }
        let t = Instant::now();
        (e.run)(&mut ctx);
        if let Some(phase) = e.phase {
            ctx.charge(phase, t);
        }
    }

    // The tables are printed; the reports below read the crawl itself.
    let crawl = ctx.crawl.take();
    // Resilience report: re-run the same crawl clean and compare.
    // Everything in the report is simulated time and counters, so the
    // bytes are identical for any thread count.
    if let (Some(profile), Some(faulted)) = (&spec.faults, &crawl) {
        eprintln!("# re-crawling clean for the resilience baseline…");
        let t = Instant::now();
        // Same universe (including any legacy or h3 share), no
        // faults: the report isolates the profile's cost, nothing
        // else.
        let clean = CrawlSpec {
            faults: None,
            ..args.spec.clone()
        }
        .run();
        ctx.charge("crawl", t);
        let report = ResilienceReport::build(&clean, faulted, profile);
        eprintln!(
            "# resilience [{}]: median PLT {:.1} → {:.1} ms ({:+.2}%) | coalescing rate {:.4} → {:.4} (−{:.2}%) | connections {} → {}",
            report.profile,
            report.clean.0,
            report.faulted.0,
            report.plt_inflation_pct(),
            report.clean.1,
            report.faulted.1,
            report.coalescing_degradation_pct(),
            report.clean.2,
            report.faulted.2,
        );
        eprintln!(
            "# recoveries: {} 421 replays, {} evictions, {} middlebox teardowns, {} drops, {} retries",
            faulted.metrics.counter("fault.misdirected_421"),
            faulted.metrics.counter("fault.pool_evictions"),
            faulted.metrics.counter("fault.middlebox_teardowns"),
            faulted.metrics.counter("fault.drops"),
            faulted.metrics.counter("fault.retries"),
        );
        if let Some(path) = &args.faults_report {
            if write_artifact(path, rendered(report.to_json())) {
                eprintln!("# wrote resilience report to {path}");
            }
        }
    }
    // Redundant-connections analysis (Sander et al.): what the h2
    // coalescing rules would have merged, per policy. Deterministic
    // for any thread count.
    if let (Some(path), Some(r)) = (&args.redundancy_report, &crawl) {
        let report = RedundancyReport::build(r, spec.legacy_share);
        eprintln!(
            "# redundancy [share {:.2}]: {} legacy pages, {} h1 connections ({} keep-alive reuses, {} close-delimited) | redundant: {}",
            report.legacy_share,
            report.legacy_pages,
            report.h1_connections,
            report.keepalive_reuse,
            report.close_delimited,
            report
                .redundant
                .iter()
                .map(|(name, v)| format!("{name} {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        if write_artifact(path, rendered(report.to_json())) {
            eprintln!("# wrote redundancy report to {path}");
        }
    }
    // H2-vs-h3 comparison (the §4 best-case question under QUIC
    // semantics): re-run the same universe with the h3 share zeroed
    // and report what deploying h3 changed.
    if let (Some(path), Some(r)) = (&args.h3_report, &crawl) {
        eprintln!("# re-crawling with h3 share 0 for the h2 baseline…");
        let t = Instant::now();
        let baseline = CrawlSpec {
            h3_share: 0.0,
            ..args.spec.clone()
        }
        .run();
        ctx.charge("crawl", t);
        let report = H3Report::build(&baseline, r, spec.h3_share);
        eprintln!(
            "# h3 [share {:.2}]: {} h3 pages, {} quic connections ({} 1-rtt, {} 0-rtt, {} rejected) | median PLT {:.1} → {:.1} ms ({:+.2}%) | 0-rtt share {:.4}",
            report.h3_share,
            report.h3_pages,
            report.counter("h3.connections"),
            report.counter("h3.handshakes_1rtt"),
            report.counter("h3.handshakes_0rtt"),
            report.counter("h3.zero_rtt_rejected"),
            report.baseline.2,
            report.h3_run.2,
            report.plt_delta_pct(),
            report.zero_rtt_share(),
        );
        if write_artifact(path, rendered(report.to_json())) {
            eprintln!("# wrote h3 report to {path}");
        }
    }
    // Streaming-observability exports: the windowed time series and,
    // when a fault-abort threshold was hit, the flight-recorder
    // snapshot of the lowest-ranked triggering visit.
    let mut fault_aborted = false;
    let observed = crawl.as_ref();
    if let (Some(path), Some(tl)) = (&args.timeline, observed.and_then(|r| r.timeline.as_ref())) {
        if write_artifact(path, |out| tl.write_json(out)) {
            eprintln!(
                "# wrote timeline to {path} ({} windows, {} visits, window {}ms)",
                tl.num_windows(),
                tl.total_visits(),
                tl.window_width().as_micros() / 1_000
            );
        }
    }
    if let (Some(path), Some(rec)) = (
        &args.flight_recorder,
        observed.and_then(|r| r.flight.as_ref()),
    ) {
        let threshold = args.fault_abort.unwrap_or(0);
        match rec.trigger_snapshot_json(threshold) {
            Some(snapshot) => {
                fault_aborted = true;
                let rank = rec.trigger().map(|t| t.rank).unwrap_or(0);
                if write_artifact(path, rendered(snapshot)) {
                    eprintln!("# fault-abort: visit rank {rank} reached {threshold} fault events; wrote flight snapshot to {path}");
                }
            }
            None => eprintln!(
                "# flight recorder: {} events observed, no visit reached the abort threshold",
                rec.events_recorded()
            ),
        }
    }
    if let (Some(path), Some(r)) = (&args.json, &crawl) {
        export_json(path, r);
    }
    if let (Some(path), Some(t)) = (&args.trace, &ctx.trace) {
        if write_artifact(path, |out| write_chrome_json(t, out)) {
            eprintln!(
                "# wrote trace to {path} ({} events, sample 1/{})",
                t.len(),
                spec.sampler.expect("--trace always samples").denom()
            );
        }
    }
    if let Some(path) = &args.metrics {
        for (name, ms) in &ctx.phase_ms {
            ctx.registry.set_runtime_ms(name, *ms);
        }
        ctx.registry
            .set_runtime_ms("total", t_total.elapsed().as_secs_f64() * 1_000.0);
        if write_artifact(path, rendered(ctx.registry.to_json())) {
            eprintln!("# wrote metrics to {path}");
        }
    }
    fault_aborted
}

/// `repro serve --visits N …`: run the open-loop serving engine
/// (DESIGN.md §20) — Poisson/diurnal session arrivals, pooled
/// multi-visit sessions, live ORIGIN rollout A/B — and print the
/// deterministic run summary. `--metrics` writes the merged `serve.*`
/// registry (strip `runtime_ms` before comparing); `--timeline`
/// writes the per-arm window series. Output is byte-identical at any
/// `--threads`; the wall-clock serving rate goes to stderr only.
fn cmd_serve(argv: &[String]) {
    let mut cfg = origin_serve::ServeConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    cfg.dataset.sites = 4_000;
    let mut metrics_out: Option<String> = None;
    let mut timeline_out: Option<String> = None;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--visits" => cfg.visits = parse_value(&a, it.next(), |&n: &u64| n > 0),
            "--sites" => cfg.dataset.sites = parse_value(&a, it.next(), |&n: &u32| n > 0),
            "--seed" => cfg.dataset.seed = parse_value(&a, it.next(), |_| true),
            "--serve-seed" => cfg.seed = parse_value(&a, it.next(), |_| true),
            "--threads" => cfg.threads = parse_value(&a, it.next(), |&n: &usize| n > 0),
            "--rate" => cfg.peak_rate_per_sec = parse_value(&a, it.next(), |&r: &f64| r > 0.0),
            "--rollout" => {
                cfg.rollout = parse_value(&a, it.next(), |&p: &f64| (0.0..=1.0).contains(&p))
            }
            "--rollout-ramp-secs" => {
                cfg.rollout_ramp =
                    SimDuration::from_secs(parse_value(&a, it.next(), |_: &u64| true))
            }
            "--pool-budget" => cfg.pool_budget = parse_value(&a, it.next(), |_: &usize| true),
            "--edge-cap" => cfg.edge_cap = parse_value(&a, it.next(), |&n: &usize| n > 0),
            "--idle-timeout-secs" => {
                cfg.idle_timeout =
                    SimDuration::from_secs(parse_value(&a, it.next(), |&s: &u64| s > 0))
            }
            "--window" => {
                cfg.window =
                    SimDuration::from_millis(parse_value(&a, it.next(), |&ms: &u64| ms > 0))
            }
            "--retain-windows" => {
                cfg.retain_windows = Some(parse_value(&a, it.next(), |&n: &u64| n > 0))
            }
            "--metrics" => metrics_out = path_value(&a, &mut it),
            "--timeline" => timeline_out = path_value(&a, &mut it),
            other => help_or_die(other, " for repro serve"),
        }
    }

    eprintln!(
        "# serving {} visits over {} sites ({} threads, rollout {:.2})…",
        cfg.visits, cfg.dataset.sites, cfg.threads, cfg.rollout
    );
    let t_gen = Instant::now();
    let dataset = origin_webgen::Dataset::generate(cfg.dataset);
    let plans = origin_serve::plan::compile_dataset(&dataset);
    let ms_gen = t_gen.elapsed().as_secs_f64() * 1_000.0;
    let t_serve = Instant::now();
    let mut report = origin_serve::engine::run_serve_on(&cfg, &plans);
    let ms_serve = t_serve.elapsed().as_secs_f64() * 1_000.0;
    eprintln!(
        "# served {} visits in {:.0} ms ({:.0} visits/sec)",
        report.visits,
        ms_serve,
        report.visits as f64 / (ms_serve / 1_000.0)
    );

    print!("{}", report.summary());
    if let Some(path) = timeline_out {
        if write_artifact(&path, rendered(report.timeline_json())) {
            eprintln!("# wrote per-arm timeline to {path}");
        }
    }
    if let Some(path) = metrics_out {
        report.metrics.set_runtime_ms("dataset", ms_gen);
        report.metrics.set_runtime_ms("serve", ms_serve);
        report.metrics.set_runtime_ms("total", ms_gen + ms_serve);
        if write_artifact(&path, rendered(report.metrics.to_json())) {
            eprintln!("# wrote metrics to {path}");
        }
    }
}

/// `repro watch --site-range A-B [--sites N] [--seed S] [--threads N]
/// [--window MS] [--faults spec] [--legacy-share P] [--h3-share P] [--out path]`:
/// run the observed crawl and render the windows covering the rank
/// range as a deterministic ASCII dashboard.
fn cmd_watch(argv: &[String]) {
    let mut range: Option<(u32, u32)> = None;
    let mut spec = default_spec();
    let mut window_ms: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        if parse_crawl_flag(&mut spec, &a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--site-range" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--site-range requires A-B"));
                let parsed = raw
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse::<u32>().ok()?, b.parse::<u32>().ok()?)));
                range = match parsed {
                    Some((lo, hi)) if lo <= hi => Some((lo, hi)),
                    _ => die(&format!(
                        "invalid value {raw:?} for --site-range (want A-B, A <= B)"
                    )),
                };
            }
            "--window" => window_ms = Some(parse_value(&a, it.next(), |&ms: &u64| ms > 0)),
            "--out" => out = path_value(&a, &mut it),
            other => help_or_die(other, " for repro watch"),
        }
    }
    let (lo, hi) = range.unwrap_or_else(|| die("repro watch requires --site-range A-B"));
    let sites = spec.sites;
    if hi > sites {
        die(&format!(
            "--site-range {lo}-{hi} exceeds the dataset ({sites} sites; ranks 1..={sites})"
        ));
    }
    spec.obs = Some(ObsConfig {
        window: window_ms.map(SimDuration::from_millis),
        ..ObsConfig::default()
    });
    let timeline = spec
        .run()
        .timeline
        .expect("observed crawl always produces a timeline");
    let body = origin_telemetry::obs::dashboard::render(&timeline, lo, hi);
    let Some(path) = out else {
        print!("{body}");
        return;
    };
    if write_artifact(&path, rendered(&body)) {
        eprintln!("# wrote dashboard to {path}");
    }
}

/// `repro trace --site RANK [--format perfetto|har|ascii] [--sites N]
/// [--seed S] [--out path]`: visit one ranked site with tracing on and
/// export the visit in the chosen format (stdout unless `--out`).
fn cmd_trace(argv: &[String]) {
    let mut site: Option<u32> = None;
    let mut format = "perfetto".to_string();
    let mut sites: u32 = 4_000;
    let mut seed: u64 = 0x0516;
    let mut out: Option<String> = None;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--site" => site = Some(parse_value(&a, it.next(), |&n: &u32| n > 0)),
            "--format" => {
                format = it
                    .next()
                    .unwrap_or_else(|| die("--format requires a value"));
                if !["perfetto", "har", "ascii"].contains(&format.as_str()) {
                    die(&format!(
                        "invalid value {format:?} for --format (perfetto|har|ascii)"
                    ));
                }
            }
            "--sites" => sites = parse_value(&a, it.next(), |&n: &u32| n > 0),
            "--seed" => seed = parse_value(&a, it.next(), |_| true),
            "--out" => out = path_value(&a, &mut it),
            other => help_or_die(other, " for repro trace"),
        }
    }
    let rank = site.unwrap_or_else(|| die("repro trace requires --site RANK"));
    let (load, trace) = trace_site(sites, seed, rank).unwrap_or_else(|| {
        die(&format!(
            "no successful site at rank {rank} (dataset of {sites} sites, seed {seed:#x})"
        ))
    });
    let body = match format.as_str() {
        "perfetto" => to_chrome_json(&trace),
        "har" => load.to_har_json(),
        _ => origin_web::waterfall::render(&load, 72),
    };
    let Some(path) = out else {
        print!("{body}");
        if !body.ends_with('\n') {
            println!();
        }
        return;
    };
    if write_artifact(&path, rendered(&body)) {
        eprintln!("# wrote {format} trace of site {rank} to {path}");
    }
}

/// Write the raw figure series to JSON for external plotting: one
/// compact object, tuples as arrays.
fn export_json(path: &str, r: &CrawlResults) {
    /// `[item,item,…]`.
    fn array<T>(xs: impl IntoIterator<Item = T>, item: impl Fn(&mut String, T)) -> String {
        let mut out = String::from("[");
        json::push_joined(&mut out, xs, ",", item);
        out.push(']');
        out
    }
    let f64s = |xs: &[f64]| array(xs, |out, &x| json::push_f64(out, x));
    let steps = |cdf: &Cdf| array(cdf.steps(), |out, (x, p)| out.push_str(&f64s(&[x, p])));
    let (existing, ideal) = r.plan.figure4();
    let value = format!(
        concat!(
            "{{\"figure1\":{},",
            "\"figure3\":{{\"measured_dns\":{},\"measured_tls\":{},",
            "\"ideal_ip_dns\":{},\"ideal_ip_tls\":{},",
            "\"ideal_origin_dns\":{},\"ideal_origin_tls\":{}}},",
            "\"figure4\":{{\"existing\":{},\"ideal\":{}}},",
            "\"figure5\":{},",
            "\"figure9_top\":{{\"measured_plt\":{},\"ideal_ip_plt\":{},",
            "\"ideal_origin_plt\":{},\"cdn_only_plt\":{}}}}}"
        ),
        array(r.characterization.figure1(), |out, (v, frac, cdf)| {
            out.push('[');
            json::push_u64(out, v);
            for x in [frac, cdf] {
                out.push(',');
                json::push_f64(out, x);
            }
            out.push(']');
        }),
        f64s(&r.measured.dns),
        f64s(&r.measured.tls),
        f64s(&r.model_ip.dns),
        f64s(&r.model_ip.tls),
        f64s(&r.model_origin.dns),
        f64s(&r.model_origin.tls),
        steps(&existing),
        steps(&ideal),
        array(r.plan.figure5(), |out, (e, i, c)| {
            out.push_str(&array([e, i, c], |out, n| json::push_u64(out, n.into())));
        }),
        f64s(&r.measured.plt),
        f64s(&r.model_ip.plt),
        f64s(&r.model_origin.plt),
        f64s(&r.model_cdn_plt),
    );
    if write_artifact(path, rendered(value)) {
        eprintln!("# wrote figure series to {path}");
    }
}

/// §6.1: priority-inversion comparison between one coalesced
/// connection and parallel connections racing at the bottleneck.
fn scheduling(seed: u64) {
    println!("§6.1 scheduling fidelity (mean priority inversions per page)");
    println!("connections  coalesced  parallel");
    for k in [2usize, 4, 6, 10] {
        let (coal, par) = origin_core::scheduling::compare(60, 14, k, seed ^ k as u64);
        println!("{k:>11}  {coal:>9.1}  {par:>8.1}");
    }
    println!("coalesced resources always arrive in intended order; parallel connections cannot enforce cross-connection priority\n");
}

/// §6.2: quantify the cleartext signals coalescing removes. Each new
/// TLS connection exposes one plaintext SNI (no ECH in 2021/22) and
/// each network DNS query over UDP-53 exposes the queried name.
fn privacy(c: &mut Ctx) {
    let mut exposure = |mode: DeploymentMode, browser: BrowserKind| -> (u64, u64) {
        let (exp, _) = c.measure(&ActiveMeasurement { mode, browser }, c.seed ^ 0x9417AC);
        // SNI exposures = total new TLS connections across visits.
        let snis: u64 = exp.new_connections.bins().map(|(v, c)| v * c).sum();
        // One render-blocking plaintext DNS query per connection plus
        // the site lookup per visit (the loader counts them exactly;
        // approximate here from the same histogram for the report).
        let visits = exp.new_connections.total();
        (snis + visits, visits)
    };
    let (before_snis, visits) = exposure(DeploymentMode::Baseline, BrowserKind::Firefox);
    let (after_snis, _) = exposure(DeploymentMode::OriginFrames, BrowserKind::FirefoxOrigin);
    println!("§6.2 privacy: plaintext third-party SNI+DNS exposures per {visits} visits");
    println!(
        "without ORIGIN: {before_snis} | with ORIGIN: {after_snis} ({:+.1}%)",
        (after_snis as f64 - before_snis as f64) / before_snis.max(1) as f64 * 100.0
    );
    println!("each removed exposure is one cleartext signal an on-path observer no longer sees\n");
}

fn table1(r: &CrawlResults) {
    let mut t = TextTable::new(
        "Table 1: successful collection per rank bucket (median page attributes)",
        &["Rank", "Success", "#Reqs", "PLT (ms)", "#DNS", "#TLS"],
    );
    for row in r.characterization.table1() {
        let label = if row.bucket == u32::MAX {
            "Total".to_string()
        } else {
            format!("{}-{}K", row.bucket * 100, (row.bucket + 1) * 100)
        };
        t.row(&[
            label,
            row.success.to_string(),
            format!("{:.0}", row.median_requests),
            format!("{:.1}", row.median_plt),
            format!("{:.0}", row.median_dns),
            format!("{:.0}", row.median_tls),
        ]);
    }
    if let Some(mean) = r.characterization.request_mean() {
        t.row(&["μ".to_string(), String::new(), format!("{mean:.0}")]);
    }
    println!("{}", t.render());
}

fn table2(r: &CrawlResults) {
    let mut t = TextTable::new(
        "Table 2: top-10 destination ASes for resource requests",
        &["Rank", "AS Number", "Org. Name", "#Req", "%"],
    );
    for (i, e) in r.characterization.as_requests.top(10).iter().enumerate() {
        t.row(&[
            (i + 1).to_string(),
            format!("AS {}", e.key),
            asn_label(e.key),
            e.count.to_string(),
            format!("{:.2}", e.percent),
        ]);
    }
    let top10 = r.characterization.as_requests.top_share(10);
    let to80 = r.characterization.as_requests.keys_to_reach(80.0);
    t.row(&[
        String::new(),
        String::new(),
        "Total".to_string(),
        String::new(),
        format!("{top10:.2}"),
    ]);
    println!("{}", t.render());
    println!(
        "ASes to reach 80% of requests: {} (paper: 51) | distinct ASes: {}\n",
        to80.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
        r.characterization.as_requests.distinct()
    );
}

/// The key / count / percent table of a top-k list (Tables 3, 4, 5, 7).
fn topk_table<K: ToString>(title: &str, header: &[&str], top: &[TopEntry<K>]) -> TextTable {
    let mut t = TextTable::new(title, header);
    for e in top {
        t.row(&[
            e.key.to_string(),
            e.count.to_string(),
            format!("{:.2}", e.percent),
        ]);
    }
    t
}

fn table3(r: &CrawlResults) {
    let mut t = topk_table(
        "Table 3: requests by application protocol / encryption",
        &["Protocol", "# Requests", "%"],
        &r.characterization.protocol_requests.top(10),
    );
    let secure = r.characterization.secure_fraction();
    t.row(&[
        "Secure".into(),
        r.characterization.secure_requests.to_string(),
        format!("{:.2}", secure * 100.0),
    ]);
    t.row(&[
        "Insecure".into(),
        r.characterization.insecure_requests.to_string(),
        format!("{:.2}", (1.0 - secure) * 100.0),
    ]);
    println!("{}", t.render());
}

fn table4(r: &CrawlResults) {
    let t = topk_table(
        "Table 4: top certificate issuers by validations",
        &["Certificate Issuer", "# Validations", "%"],
        &r.characterization.issuers.top(10),
    );
    println!("{}", t.render());
}

fn table5(r: &CrawlResults) {
    let t = topk_table(
        "Table 5: requests by top content types",
        &["Content Type", "# Req", "%"],
        &r.characterization.content_types.top(12),
    );
    println!("{}", t.render());
}

fn table6(r: &CrawlResults) {
    let mut t = TextTable::new(
        "Table 6: top content types per top-3 ASes",
        &["ASN", "Content Type", "#Req", "%"],
    );
    for e in r.characterization.as_requests.top(3) {
        for c in r.characterization.as_content(e.key).top(4) {
            t.row(&[
                format!("{} (AS {})", asn_label(e.key), e.key),
                c.key.to_string(),
                c.count.to_string(),
                format!("{:.2}", c.percent),
            ]);
        }
    }
    println!("{}", t.render());
}

fn table7(r: &CrawlResults) {
    let t = topk_table(
        "Table 7: top-10 subresource hostnames",
        &["Hostname", "#Req", "%"],
        &r.characterization.hostnames.top(10),
    );
    println!("{}", t.render());
}

fn figure1(r: &CrawlResults) {
    println!("Figure 1: unique ASes needed to load a page");
    println!("as_count  fraction  cdf");
    for (v, frac, cdf) in r.characterization.figure1().into_iter().take(30) {
        println!("{v:>8}  {:>8.4}  {cdf:.4}", frac);
    }
    println!();
}

fn figure2(seed: u64) {
    use origin_webgen::{Dataset, DatasetConfig};
    let d = Dataset::generate(DatasetConfig {
        sites: 40,
        seed,
        ..Default::default()
    });
    let site = d
        .sites()
        .iter()
        .find(|s| !s.failed && !s.services.is_empty())
        .expect("a usable site")
        .clone();
    let page = d.page_for(&site);
    let mut env = UniverseEnv::new(&d);
    env.flush_dns();
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut rng = SimRng::seed_from_u64(site.page_seed);
    let load = loader.load(&page, &mut env, &mut rng);
    let (_, recon) = predict(&page, &load, CoalescingGrouping::ByAs);
    // Only show the first handful of requests, Figure 2 style.
    let mut before = load.clone();
    before.requests.truncate(8);
    let mut after = recon.clone();
    after.requests.truncate(8);
    println!("Figure 2: measured vs reconstructed timeline (first 8 requests)");
    println!(
        "{}",
        origin_web::waterfall::render_comparison(&before, &after, 70)
    );
}

fn print_cdf_quantiles(label: &str, samples: &[f64]) {
    let cdf = Cdf::from_samples(samples);
    let q = |p: f64| cdf.quantile(p).unwrap_or(0.0);
    println!(
        "{label:<38} p25={:>7.1} median={:>7.1} p75={:>7.1} p90={:>8.1}",
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9)
    );
}

fn figure3(r: &CrawlResults) {
    println!("Figure 3: measured vs ideal DNS / TLS counts (CDF quantiles)");
    print_cdf_quantiles("Measured DNS Requests", &r.measured.dns);
    print_cdf_quantiles("Measured TLS Requests", &r.measured.tls);
    print_cdf_quantiles("Ideal Modelled IP Coalescing (DNS)", &r.model_ip.dns);
    print_cdf_quantiles("Ideal Modelled IP Coalescing (TLS)", &r.model_ip.tls);
    print_cdf_quantiles(
        "Ideal Modelled Origin Coalescing (DNS)",
        &r.model_origin.dns,
    );
    print_cdf_quantiles(
        "Ideal Modelled Origin Coalescing (TLS)",
        &r.model_origin.tls,
    );
    let (m_dns, m_tls, _) = r.measured.medians();
    let (i_dns, i_tls, _) = r.model_ip.medians();
    let (o_dns, o_tls, _) = r.model_origin.medians();
    println!(
        "reductions: IP dns {} tls {} | ORIGIN dns {} tls {}  (paper: −7%/−19% and −64%/−67%)\n",
        pct_change(stats::percent_change(m_dns, i_dns)),
        pct_change(stats::percent_change(m_tls, i_tls)),
        pct_change(stats::percent_change(m_dns, o_dns)),
        pct_change(stats::percent_change(m_tls, o_tls)),
    );
}

fn figure4(r: &CrawlResults) {
    let (existing, ideal) = r.plan.figure4();
    println!("Figure 4: DNS SAN names per certificate, existing vs ideal (CDF)");
    println!("sans  existing_cdf  ideal_cdf");
    for x in 0..=15u64 {
        println!(
            "{x:>4}  {:>12.4}  {:>9.4}",
            existing.eval(x as f64),
            ideal.eval(x as f64)
        );
    }
    println!(
        "median {} → {} | p75 {} → {}\n",
        existing.quantile(0.5).unwrap_or(0.0),
        ideal.quantile(0.5).unwrap_or(0.0),
        existing.quantile(0.75).unwrap_or(0.0),
        ideal.quantile(0.75).unwrap_or(0.0)
    );
}

fn figure5(r: &CrawlResults) {
    println!("Figure 5: SAN sizes ranked by existing size (sampled rows)");
    println!("rank  existing  ideal  changes");
    let f5 = r.plan.figure5();
    let mut rank = 1usize;
    while rank <= f5.len() {
        let (e, i, c) = f5[rank - 1];
        println!("{rank:>5}  {e:>8}  {i:>5}  {c:>7}");
        rank = if rank < 10 { rank + 1 } else { rank * 10 / 3 };
    }
    let (b250, a250) = r.plan.sites_above(250);
    println!("certificates with >250 SAN names: {b250} → {a250} (paper: 230 → 529, +130%)\n");
}

fn table8(r: &CrawlResults) {
    let (measured, ideal) = r.plan.table8(10);
    let mut t = TextTable::new(
        "Table 8: distribution of SAN sizes, measured vs ideal",
        &["Rank", "Measured #SAN", "Count", "Ideal #SAN", "Count"],
    );
    for i in 0..10 {
        let m = measured.get(i);
        let d = ideal.get(i);
        t.row(&[
            (i + 1).to_string(),
            m.map(|x| x.0.to_string()).unwrap_or_default(),
            m.map(|x| x.1.to_string()).unwrap_or_default(),
            d.map(|x| x.0.to_string()).unwrap_or_default(),
            d.map(|x| x.1.to_string()).unwrap_or_default(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "unchanged certificates: {:.2}% (paper 62.41%) | ≤10 changes: {:.2}% (paper 92.66%) | SAN-less sites: {} (needing changes: {})\n",
        r.plan.unchanged_fraction() * 100.0,
        r.plan.within_changes(10) * 100.0,
        r.plan.san_less_sites,
        r.plan.san_less_needing_changes,
    );
}

fn table9(r: &CrawlResults) {
    let mut t = TextTable::new(
        "Table 9: most frequently needed hostnames per top hosting provider",
        &["Provider", "#Sites", "Hostname", "Count", "%"],
    );
    for (provider, sites, hosts) in r.effective.table9(5).into_iter().take(4) {
        if provider == "Self-hosted" {
            continue;
        }
        for (host, count, pctg) in hosts {
            t.row(&[
                format!("{provider} ({sites} sites)"),
                sites.to_string(),
                host.to_string(),
                count.to_string(),
                format!("{pctg:.2}"),
            ]);
        }
    }
    println!("{}", t.render());
}

fn figure9_top(r: &CrawlResults) {
    println!("Figure 9 (top): modelled PLT CDFs");
    print_cdf_quantiles("Measured", &r.measured.plt);
    print_cdf_quantiles("I.M. IP Coalescing", &r.model_ip.plt);
    print_cdf_quantiles("I.M. Origin Coalescing", &r.model_origin.plt);
    print_cdf_quantiles("I.M. CDN Origin Coalescing", &r.model_cdn_plt);
    let m = stats::median(&r.measured.plt).unwrap_or(0.0);
    let ip = stats::median(&r.model_ip.plt).unwrap_or(0.0);
    let or = stats::median(&r.model_origin.plt).unwrap_or(0.0);
    let cdn = stats::median(&r.model_cdn_plt).unwrap_or(0.0);
    println!(
        "median PLT change: IP {} | ORIGIN {} | CDN-only {}  (paper: −10%, −27%, −1.5%)\n",
        pct_change(stats::percent_change(m, ip)),
        pct_change(stats::percent_change(m, or)),
        pct_change(stats::percent_change(m, cdn)),
    );
}

fn ct_impact(r: &CrawlResults) {
    let changed = r.plan.total_sites - r.plan.unchanged_sites;
    // Scale the changed-site count up to the paper's dataset size.
    let scale = 315_796.0 / r.plan.total_sites.max(1) as f64;
    let scaled = (changed as f64 * scale) as u64;
    println!(
        "§6.4 CT impact: {changed} certificates to reissue ({:.2}% of sites;",
        (changed as f64 / r.plan.total_sites as f64) * 100.0
    );
    println!(
        "scaled to the paper's 315,796 sites: {scaled} ≈ {:.2} hours of global issuance (paper: 37.59% → one-time burst ≪ daily volume)\n",
        CtLogSet::burst_as_hours_of_global_issuance(scaled)
    );
}

fn figure6(group: &SampleGroup) {
    println!("Figure 6: equal-byte certificate issuance check");
    println!(
        "third party: {} ({} bytes) | control decoy: {} ({} bytes)",
        origin_cdn::THIRD_PARTY_HOST,
        origin_cdn::THIRD_PARTY_HOST.len(),
        origin_cdn::CONTROL_DECOY_HOST,
        origin_cdn::CONTROL_DECOY_HOST.len()
    );
    println!(
        "equal-byte property across {} certificates: {}\n",
        group.sites.len(),
        if group.equal_byte_check() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}

fn figure7(c: &mut Ctx, ip: bool) {
    let (label, m) = if ip {
        (
            "Figure 7a: IP-based coalescing (Firefox v91)",
            ActiveMeasurement::ip_experiment(),
        )
    } else {
        (
            "Figure 7b: ORIGIN frame (Firefox v96)",
            ActiveMeasurement::origin_experiment(),
        )
    };
    let (exp, ctl) = c.measure(&m, c.seed);
    println!("{label}");
    println!("new_conns  experiment_cdf  control_cdf");
    let (ecdf, ccdf) = (exp.cdf(), ctl.cdf());
    for n in 0..=exp.max_connections().max(ctl.max_connections()) {
        println!(
            "{n:>9}  {:>14.3}  {:>11.3}",
            ecdf.eval(n as f64),
            ccdf.eval(n as f64)
        );
    }
    println!(
        "zero-connection visits: experiment {:.1}% control {:.1}%  (paper: {} )\n",
        exp.fraction_with(0) * 100.0,
        ctl.fraction_with(0) * 100.0,
        if ip { "70% vs 9%" } else { "64% vs 6%" }
    );
}

/// Logical-process base for passive-pipeline trace aggregates — its
/// own band above [`ActiveMeasurement::WIRE_PID_BASE`]'s.
const PASSIVE_PID_BASE: u64 = 1 << 23;

fn passive(c: &mut Ctx, mode: DeploymentMode) {
    let (band, label, paper) = match mode {
        DeploymentMode::Baseline => (0, "baseline passive", "0%"),
        DeploymentMode::IpAligned => (1, "§5.2 passive (IP alignment)", "56%"),
        DeploymentMode::OriginFrames => (2, "§5.3 passive (ORIGIN frames)", "≈50%"),
    };
    let mut pipeline = PassivePipeline::new(mode);
    pipeline.config.workers = c.threads;
    let r = pipeline.run(c.group(), c.seed);
    r.record_into(&mut c.registry);
    if let Some(t) = &mut c.trace {
        r.record_trace(t, PASSIVE_PID_BASE + band);
    }
    println!("{label}: sampled {} records", r.sampled_records);
    println!(
        "new TLS connections to third party per sampled visit: experiment {} / control {}",
        r.experiment_tp_connections, r.control_tp_connections
    );
    println!(
        "rate reduction: {:.1}% (paper: {paper}) | coalesced connections observed: {}\n",
        r.tp_connection_reduction() * 100.0,
        r.coalesced_connections
    );
}

fn figure8(group: &SampleGroup, seed: u64) {
    let run = LongitudinalRun::paper_window();
    let s = run.run(group, DeploymentMode::OriginFrames, seed);
    println!("Figure 8: daily new TLS connections to the third party");
    println!("day  experiment  control");
    for (d, (e, c)) in s
        .experiment
        .counts()
        .iter()
        .zip(s.control.counts())
        .enumerate()
    {
        if d % 2 == 0 {
            println!("{d:>3}  {e:>10}  {c:>7}");
        }
    }
    println!(
        "reduction during deployment (days {}–{}): {:.1}% | before: {:.1}% | after: {:.1}%\n",
        run.deploy_start_day,
        run.deploy_end_day,
        s.reduction(run.deploy_start_day, run.deploy_end_day) * 100.0,
        s.reduction(0, run.deploy_start_day) * 100.0,
        s.reduction(run.deploy_end_day, run.days) * 100.0
    );
}

fn figure9_bottom(c: &mut Ctx) {
    let (exp, ctl) = c.measure(&ActiveMeasurement::origin_experiment(), c.seed ^ 0xF9);
    println!("Figure 9 (bottom): measured PLT at the deployment CDN");
    print_cdf_quantiles("Control", &ctl.plt_ms);
    print_cdf_quantiles("Experiment", &exp.plt_ms);
    println!(
        "median PLT change: {} (paper: ≈−1%, 'no worse')\n",
        pct_change(stats::percent_change(ctl.median_plt(), exp.median_plt()))
    );
}

fn incident(group: &SampleGroup, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1BC1);
    let inc = MiddleboxIncident::default();
    let (exp, ctl) = inc.simulate(group, 50_000, true, &mut rng);
    println!("§6.7 incident: non-compliant middlebox vs ORIGIN frames");
    println!(
        "experiment arm: {}/{} torn down ({:.2}%) | control arm: {}/{} ({:.2}%)",
        exp.torn_down,
        exp.attempts,
        exp.failure_rate() * 100.0,
        ctl.torn_down,
        ctl.attempts,
        ctl.failure_rate() * 100.0
    );
    let fixed = MiddleboxIncident {
        vendor_fixed: true,
        ..inc
    };
    let (exp2, ctl2) = fixed.simulate(group, 50_000, true, &mut rng);
    println!(
        "after vendor fix (Sept 2022): {} failures across {} connections\n",
        exp2.torn_down + ctl2.torn_down,
        exp2.attempts + ctl2.attempts
    );
}
