//! The `deploy-s5` workload: the §5 deployment pipeline `repro` runs
//! after the crawl, over one `SampleGroup`.

use crate::crawl::mean_abs_err_pct;
use crate::harness::Checked;
use crate::spans::SpanLog;
use crate::stats::{derive_seed, fnv1a64};
use origin_browser::BrowserKind;
use origin_cdn::{
    ActiveMeasurement, ActiveResult, DeploymentMode, LongitudinalRun, MiddleboxIncident,
    PassivePipeline, SampleGroup,
};
use origin_metrics::Registry;
use origin_netsim::SimRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Candidate domains drawn for the sample group: the paper's 5,000,
/// and this workload's unit count.
pub const CANDIDATES: u32 = 5_000;
/// Sites given the wire-level spot check.
const WIRE_CHECKS: usize = 200;
/// Connections simulated per §6.7 incident arm pair.
const INCIDENT_CONNECTIONS: u64 = 50_000;

/// The set-up sequence: draw and filter the sample group, reissue its
/// certificates.
pub fn build_group(seed: u64) -> SampleGroup {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, 0x5000));
    SampleGroup::build(CANDIDATES, &mut rng)
}

/// Everything one pass over the pipeline produced.
pub struct S5Output {
    registry: Registry,
    wire_consistent: usize,
    wire_checked: usize,
    equal_bytes: bool,
    /// Zero-new-connection shares, `[F7a exp, F7a ctl, F7b exp, F7b ctl]`.
    zero_conn: [f64; 4],
    /// Passive third-party connection reduction, `[IP, ORIGIN]`.
    passive_reduction: [f64; 2],
    removed_share: f64,
    /// Deterministic numbers that are in no registry (F8, F9 bottom,
    /// §6.7, §6.2), folded into the digest.
    extras: String,
}

/// Both arms of one active measurement, counters folded into
/// `registry`.
fn both_arms(
    m: &ActiveMeasurement,
    group: &SampleGroup,
    seed: u64,
    registry: &mut Registry,
    log: &mut SpanLog,
) -> (ActiveResult, ActiveResult) {
    let (exp, ctl) = log.wrap("cdn.active", 0, || m.run_both_threads(group, seed, 1));
    registry.merge(&exp.metrics);
    registry.merge(&ctl.metrics);
    (exp, ctl)
}

/// The timed region: wire spot check, F7a, F7b, both passive
/// pipelines, F8, F9 bottom, the §6.7 incident and the §6.2 privacy
/// pairs, in `repro`'s order, on one thread. The passive pipeline's
/// worker count is pinned to 1 (its output is worker-count invariant);
/// its collector thread remains.
pub fn run_pipeline(group: &SampleGroup, seed: u64, log: &mut SpanLog) -> S5Output {
    let mut registry = Registry::new();
    let mut extras = String::new();
    let zero = |r: &ActiveResult| r.fraction_with(0);

    let wire_checked = group.sites.len().min(WIRE_CHECKS);
    let wire_consistent = log.wrap("cdn.wire_check", 0, || {
        ActiveMeasurement::origin_experiment().wire_spot_check_metrics(
            group,
            wire_checked,
            Some(&mut registry),
        )
    });

    let ip = ActiveMeasurement::ip_experiment();
    let origin = ActiveMeasurement::origin_experiment();
    let (f7a_exp, f7a_ctl) = both_arms(&ip, group, seed, &mut registry, log);
    let (f7b_exp, f7b_ctl) = both_arms(&origin, group, seed, &mut registry, log);

    let mut passive_reduction = [0.0; 2];
    for (slot, mode) in [DeploymentMode::IpAligned, DeploymentMode::OriginFrames]
        .into_iter()
        .enumerate()
    {
        let mut pipeline = PassivePipeline::new(mode);
        pipeline.config.workers = 1;
        let report = log.wrap("cdn.passive", 0, || pipeline.run(group, seed));
        report.record_into(&mut registry);
        passive_reduction[slot] = report.tp_connection_reduction();
    }

    let window = LongitudinalRun::paper_window();
    let series = log.wrap("cdn.longitudinal", 0, || {
        window.run(group, DeploymentMode::OriginFrames, seed)
    });
    let _ = write!(
        extras,
        "f8 {} {} {};",
        series.experiment.total(),
        series.control.total(),
        series.reduction(window.deploy_start_day, window.deploy_end_day)
    );

    let (f9_exp, f9_ctl) = both_arms(&origin, group, seed ^ 0xF9, &mut registry, log);
    let _ = write!(
        extras,
        "f9 {} {};",
        f9_exp.median_plt(),
        f9_ctl.median_plt()
    );

    let mut rng = SimRng::seed_from_u64(seed ^ 0x1BC1);
    let incident = MiddleboxIncident::default();
    let fixed = MiddleboxIncident {
        vendor_fixed: true,
        ..incident
    };
    for inc in [incident, fixed] {
        let (exp, ctl) = log.wrap("cdn.incident", 0, || {
            inc.simulate(group, INCIDENT_CONNECTIONS, true, &mut rng)
        });
        let _ = write!(
            extras,
            "inc {}/{} {}/{};",
            exp.torn_down, exp.attempts, ctl.torn_down, ctl.attempts
        );
    }

    for (mode, browser) in [
        (DeploymentMode::Baseline, BrowserKind::Firefox),
        (DeploymentMode::OriginFrames, BrowserKind::FirefoxOrigin),
    ] {
        let m = ActiveMeasurement { mode, browser };
        let (exp, _) = both_arms(&m, group, seed ^ 0x9417AC, &mut registry, log);
        let snis: u64 = exp.new_connections.bins().map(|(v, c)| v * c).sum();
        let _ = write!(extras, "sni {snis} {};", exp.new_connections.total());
    }

    S5Output {
        registry,
        wire_consistent,
        wire_checked,
        equal_bytes: group.equal_byte_check(),
        zero_conn: [
            zero(&f7a_exp),
            zero(&f7a_ctl),
            zero(&f7b_exp),
            zero(&f7b_ctl),
        ],
        passive_reduction,
        removed_share: f64::from(group.removed_subpage_only) / f64::from(CANDIDATES),
        extras,
    }
}

/// Check one pass's invariants and reduce it to its digest and its
/// distance from the paper's §5 headline values (EXPERIMENTS.md rows
/// F7a, F7b, §5.2, §5.3, subpage-only filter).
pub fn verify(out: &S5Output) -> Result<Checked, String> {
    if !out.equal_bytes {
        return Err("equal-byte certificate property violated".into());
    }
    if out.wire_consistent != out.wire_checked || out.wire_checked != WIRE_CHECKS {
        return Err(format!(
            "wire check {}/{} (want {WIRE_CHECKS}/{WIRE_CHECKS})",
            out.wire_consistent, out.wire_checked
        ));
    }
    let text = format!(
        "{}{:?}{:?}{}{}",
        out.registry.to_json(),
        out.zero_conn,
        out.passive_reduction,
        out.removed_share,
        out.extras
    );
    let [a_exp, a_ctl, b_exp, b_ctl] = out.zero_conn.map(|share| share * 100.0);
    let [ip, origin] = out.passive_reduction.map(|r| r * 100.0);
    Ok(Checked {
        digest: fnv1a64(text.as_bytes()),
        paper_abs_err_pct: Some(mean_abs_err_pct(&[
            (a_exp, 70.0),
            (a_ctl, 9.0),
            (b_exp, 64.0),
            (b_ctl, 6.0),
            (ip, 56.0),
            (origin, 50.0),
            (out.removed_share * 100.0, 22.0),
        ])),
    })
}

/// Per-layer metrics of one traced pass. `build_s` is the set-up
/// span: one `SampleGroup::build`.
pub fn layer_metrics(out: &S5Output, log: &SpanLog, build_s: f64) -> BTreeMap<&'static str, f64> {
    let totals = log.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let c = |name: &str| out.registry.counter(name) as f64;
    BTreeMap::from([
        ("cdn.sample_build_s", build_s),
        ("cdn.wire_check_s", secs("cdn.wire_check")),
        ("cdn.active_s", secs("cdn.active")),
        ("cdn.passive_s", secs("cdn.passive")),
        ("cdn.longitudinal_s", secs("cdn.longitudinal")),
        ("cdn.incident_s", secs("cdn.incident")),
        ("cdn.active_visits", c("cdn.active.visits")),
        ("cdn.passive_records", c("cdn.passive.sampled_records")),
        (
            "h2.frames_per_wire_check",
            (c("h2.frames_decoded") + c("h2.frames_encoded")) / c("cdn.wire_checks"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_passes_its_invariants_and_repeats_its_digest() {
        let group = build_group(7);
        let mut log = SpanLog::on();
        let first = verify(&run_pipeline(&group, 7, &mut log)).unwrap();
        let again = verify(&run_pipeline(&group, 7, &mut SpanLog::off())).unwrap();
        assert_eq!(first, again);
        assert!(first.paper_abs_err_pct.unwrap() > 0.0);
        let totals = log.totals();
        assert_eq!(totals["cdn.active"].count, 5);
        assert_eq!(totals["cdn.passive"].count, 2);
        assert_eq!(totals["cdn.incident"].count, 2);
    }
}
