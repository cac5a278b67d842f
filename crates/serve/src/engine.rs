//! The sharded open-loop event-loop driver.
//!
//! ## Determinism under sharding
//!
//! Sessions are partitioned by `session_id % threads`. Every worker
//! regenerates the *identical* arrival stream (the arrival RNG is a
//! derived stream independent of all session RNGs) and walks it on its
//! own event queue, but only simulates the sessions it owns. Each
//! session's randomness is a pure function of `(seed, session_id)`, so
//! where a session runs cannot change what it does. All aggregation is
//! commutative and associative — window-keyed timeline merge, additive
//! registry counters, churn sums — so merging shard outputs in any
//! order yields byte-identical reports at any `--threads`.
//!
//! The global visit budget is enforced in arrival order: each worker
//! accounts every session's visit count (owned or not) against the
//! budget while walking the stream, so all workers truncate the same
//! final session at the same visit.
//!
//! ## Memory
//!
//! Per-visit state lives in recycled scratch: a session slab with a
//! free list (RNG + pool + cursor per active session), one
//! [`VisitObs`] per worker, and a per-visit key scratch. Steady state
//! is `O(sites) + O(windows) + O(active sessions)`.

use origin_browser::{PoolChurn, SessionPool};
use origin_cdn::Rollout;
use origin_netsim::hash::splitmix64;
use origin_netsim::{fold_chunks, json, EventQueue, SimDuration, SimRng, SimTime};
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::{Timeline, VisitObs};
use origin_webgen::Dataset;

use crate::plan::{compile_dataset, SitePlan};
use crate::ServeConfig;

/// Base render/parse cost of a visit before network terms, µs.
const BASE_RENDER_US: u64 = 30_000;
/// Handshake cost in round trips (TCP + TLS 1.3).
const HANDSHAKE_RTTS: u64 = 2;
/// Cap on visits per session (tail guard on the geometric draw).
const MAX_SESSION_VISITS: u64 = 64;
/// Diurnal peak-to-trough swing of the arrival rate, in `[0, 1]`.
const DIURNAL_AMPLITUDE: f64 = 0.6;
/// Diurnal period: one simulated day.
const DIURNAL_PERIOD: SimDuration = SimDuration::from_secs(86_400);
/// Mean visits per session (geometric-ish, ≥ 1).
const SESSION_VISITS_MEAN: f64 = 4.0;
/// Zipf skew of site popularity.
const ZIPF_S: f64 = 1.1;
/// Probability a non-first visit reloads the same site instead of
/// drawing a fresh one (revisit skew).
const REVISIT_BIAS: f64 = 0.4;
/// Mean think time between a session's visits.
const THINK_MEAN: SimDuration = SimDuration::from_secs(30);

/// The per-session RNG: pure in `(seed, session_id)` so shard
/// placement cannot perturb a session's behaviour.
fn session_rng(seed: u64, id: u64) -> SimRng {
    SimRng::seed_from_u64(splitmix64(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Visits a session will make: 1 + geometric-ish tail with mean
/// [`SESSION_VISITS_MEAN`], capped. Drawn from the session RNG before
/// any visit randomness.
fn session_visit_budget(rng: &mut SimRng) -> u64 {
    let extra = rng.exponential(SESSION_VISITS_MEAN - 1.0);
    (1 + extra as u64).min(MAX_SESSION_VISITS)
}

/// One live session's state in the worker slab.
struct Session {
    rng: SimRng,
    pool: SessionPool,
    /// Most recently visited site (plan index), for revisit bias.
    site: Option<u32>,
    /// Visits left, including the one being scheduled.
    remaining: u64,
}

/// Worker events on the event queue.
enum Ev {
    /// The next session materializes from the shared arrival stream.
    Arrival,
    /// An owned session performs its next visit.
    Visit { slot: u32 },
}

/// One worker shard's accumulated output. The per-visit path counts in
/// plain integers; [`run_serve_on`] publishes them, with the pool
/// churn, as the run's `serve.*` counters once.
struct ShardOut {
    control: Timeline,
    origin: Timeline,
    churn: PoolChurn,
    sessions: u64,
    visits: u64,
    /// Visits served in the ORIGIN arm; the rest ran in control.
    origin_visits: u64,
    requests: u64,
    coalesced_requests: u64,
    sim_end: SimTime,
}

/// The merged result of a serving run.
pub struct ServeReport {
    /// Counter/phase metrics (`serve.*`).
    pub metrics: Registry,
    /// Timeline of visits served while the deciding edge did NOT
    /// advertise ORIGIN (plus all provider-free sites).
    pub control: Timeline,
    /// Timeline of visits served under an ORIGIN-advertising edge.
    pub origin: Timeline,
    /// Sessions simulated.
    pub sessions: u64,
    /// Visits simulated (== the configured budget).
    pub visits: u64,
    /// Simulated instant of the last processed event.
    pub sim_end: SimTime,
}

impl ServeReport {
    /// Both arms as one JSON document:
    /// `{"arms":{"control":…,"origin":…}}`.
    pub fn timeline_json(&self) -> String {
        let arms = [("control", &self.control), ("origin", &self.origin)];
        let mut out = String::from("{\n\"arms\": {\n");
        json::push_joined(&mut out, arms, ",\n", |out, (arm, timeline)| {
            json::push_str(out, arm);
            out.push_str(": ");
            out.push_str(&timeline.to_json());
        });
        out.push_str("}\n}\n");
        out
    }

    /// Deterministic run summary (no wall-clock content), one
    /// `key: value` per line.
    pub fn summary(&self) -> String {
        let m = &self.metrics;
        let mut s = String::with_capacity(512);
        use std::fmt::Write as _;
        let _ = writeln!(s, "sessions: {}", self.sessions);
        let _ = writeln!(s, "visits: {}", self.visits);
        let _ = writeln!(s, "sim_end_ms: {}", self.sim_end.as_micros() / 1_000);
        for key in [
            "serve.requests",
            "serve.coalesced_requests",
            "serve.connections_opened",
            "serve.pool_reused",
            "serve.pool_idle_closed",
            "serve.pool_lru_evicted",
            "serve.pool_edge_evicted",
            "serve.arm_control_visits",
            "serve.arm_origin_visits",
        ] {
            let _ = writeln!(s, "{}: {}", key, m.counter(key));
        }
        let reuse = m.counter("serve.pool_reused") as f64
            / (m.counter("serve.pool_reused") + m.counter("serve.connections_opened")).max(1)
                as f64;
        let _ = writeln!(s, "pool_reuse_rate: {reuse:.4}");
        s
    }
}

/// Run the serving engine to completion.
///
/// Generates the dataset, compiles site plans, runs `threads` worker
/// shards over the shared arrival stream, and merges their outputs.
/// Panics on a zero thread count or a zero visit budget.
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    assert!(cfg.threads > 0, "need at least one worker");
    assert!(cfg.visits > 0, "need a visit budget");
    let dataset = Dataset::generate(cfg.dataset);
    let plans = compile_dataset(&dataset);
    run_serve_on(cfg, &plans)
}

/// [`run_serve`] over pre-compiled plans (reused by benches/tests to
/// amortize dataset generation).
pub fn run_serve_on(cfg: &ServeConfig, plans: &[SitePlan]) -> ServeReport {
    assert!(!plans.is_empty(), "no successful sites to serve");
    // One chunk per shard index, so a shard's sessions stay on one
    // worker. The total starts as the first shard's output, which keeps
    // the timelines' window, spacing and retention.
    let shards: Vec<usize> = (0..cfg.threads).collect();
    let mut total: Option<ShardOut> = None;
    fold_chunks(
        &shards,
        cfg.threads,
        || (),
        |(), shard| run_shard(cfg, plans, shard[0]),
        |s| match &mut total {
            None => total = Some(s),
            Some(t) => {
                t.control.merge(s.control);
                t.origin.merge(s.origin);
                t.churn.merge(&s.churn);
                t.sessions += s.sessions;
                t.visits += s.visits;
                t.origin_visits += s.origin_visits;
                t.requests += s.requests;
                t.coalesced_requests += s.coalesced_requests;
                t.sim_end = t.sim_end.max(s.sim_end);
            }
        },
    );
    let t = total.expect("at least one shard");
    // Every key, zeros included. Each pool miss opened one connection.
    let mut metrics = Registry::new();
    for (key, n) in [
        ("serve.sessions", t.sessions),
        ("serve.visits", t.visits),
        ("serve.requests", t.requests),
        ("serve.coalesced_requests", t.coalesced_requests),
        ("serve.connections_opened", t.churn.opened),
        ("serve.pool_reused", t.churn.reused),
        ("serve.pool_idle_closed", t.churn.idle_closed),
        ("serve.pool_lru_evicted", t.churn.lru_evicted),
        ("serve.pool_edge_evicted", t.churn.edge_evicted),
        ("serve.arm_control_visits", t.visits - t.origin_visits),
        ("serve.arm_origin_visits", t.origin_visits),
    ] {
        metrics.add(key, n);
    }
    ServeReport {
        metrics,
        control: t.control,
        origin: t.origin,
        sessions: t.sessions,
        visits: t.visits,
        sim_end: t.sim_end,
    }
}

fn mk_timeline(cfg: &ServeConfig) -> Timeline {
    let t = Timeline::new(cfg.window, origin_telemetry::obs::window::DEFAULT_SPACING);
    match cfg.retain_windows {
        Some(n) => t.with_retention(n),
        None => t,
    }
}

fn run_shard(cfg: &ServeConfig, plans: &[SitePlan], shard: usize) -> ShardOut {
    let rollout = cfg.rollout_model();
    let master = SimRng::seed_from_u64(cfg.seed);
    let mut arrivals = origin_netsim::ArrivalProcess::new(
        master.derive("arrivals"),
        cfg.peak_rate_per_sec,
        DIURNAL_AMPLITUDE,
        DIURNAL_PERIOD,
    );

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut slab: Vec<Session> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut out = ShardOut {
        control: mk_timeline(cfg),
        origin: mk_timeline(cfg),
        churn: PoolChurn::default(),
        sessions: 0,
        visits: 0,
        origin_visits: 0,
        requests: 0,
        coalesced_requests: 0,
        sim_end: SimTime::ZERO,
    };

    let mut budget = cfg.visits;
    let mut next_id: u64 = 0;
    let mut visit_keys: Vec<u32> = Vec::with_capacity(64);
    let mut obs = VisitObs::default();

    queue.schedule(arrivals.next_arrival(), Ev::Arrival);
    while let Some((now, ev)) = queue.next() {
        out.sim_end = now;
        match ev {
            Ev::Arrival => {
                let id = next_id;
                next_id += 1;
                let mut rng = session_rng(cfg.seed, id);
                let wanted = session_visit_budget(&mut rng);
                let take = wanted.min(budget);
                budget -= take;
                // The arrival chain keeps running until the global
                // budget is spent — identically on every shard.
                if budget > 0 {
                    queue.schedule(arrivals.next_arrival(), Ev::Arrival);
                }
                if take == 0 || id % cfg.threads as u64 != shard as u64 {
                    continue;
                }
                out.sessions += 1;
                let session = Session {
                    rng,
                    pool: SessionPool::new(),
                    site: None,
                    remaining: take,
                };
                let slot = match free.pop() {
                    Some(slot) => {
                        let s = &mut slab[slot as usize];
                        s.rng = session.rng;
                        s.pool.reset();
                        s.site = None;
                        s.remaining = session.remaining;
                        slot
                    }
                    None => {
                        slab.push(session);
                        (slab.len() - 1) as u32
                    }
                };
                queue.schedule(now, Ev::Visit { slot });
            }
            Ev::Visit { slot } => {
                let session = &mut slab[slot as usize];
                session
                    .pool
                    .sweep_idle(now, cfg.idle_timeout, &mut out.churn);
                let site_idx = match session.site {
                    Some(prev) if session.rng.chance(REVISIT_BIAS) => prev,
                    _ => session.rng.zipf(plans.len(), ZIPF_S) as u32,
                };
                session.site = Some(site_idx);
                let plan = &plans[site_idx as usize];

                obs.clear();
                visit_keys.clear();
                let origin_arm = simulate_visit(
                    plan,
                    session,
                    &rollout,
                    now,
                    cfg,
                    &mut visit_keys,
                    &mut obs,
                    &mut out.churn,
                );
                out.visits += 1;
                out.requests += obs.requests;
                out.coalesced_requests += obs.coalesced_requests;
                if origin_arm {
                    out.origin_visits += 1;
                    out.origin.record_visit_at(now, &obs);
                } else {
                    out.control.record_visit_at(now, &obs);
                }

                session.remaining -= 1;
                if session.remaining > 0 {
                    let think = SimDuration::from_micros(
                        session
                            .rng
                            .exponential(THINK_MEAN.as_micros() as f64)
                            .max(1.0) as u64,
                    );
                    queue.schedule(now + think, Ev::Visit { slot });
                } else {
                    free.push(slot);
                }
            }
        }
    }
    out
}

/// Replay one visit of `plan` against the session pool, filling `obs`.
/// Returns whether the visit ran in the ORIGIN arm.
#[allow(clippy::too_many_arguments)]
fn simulate_visit(
    plan: &SitePlan,
    session: &mut Session,
    rollout: &Rollout,
    now: SimTime,
    cfg: &ServeConfig,
    visit_keys: &mut Vec<u32>,
    obs: &mut VisitObs,
    churn: &mut PoolChurn,
) -> bool {
    let origin_arm = plan
        .arm_edge
        .map(|e| rollout.origin_enabled(e, now))
        .unwrap_or(false);
    obs.rank = plan.rank;
    obs.requests = u64::from(plan.total_requests);
    obs.model_ip_tls = u64::from(plan.model_ip_tls);
    obs.model_origin_tls = u64::from(plan.model_origin_tls);

    // Critical path: first-party hosts load sequentially, third-party
    // hosts in parallel (their slowest sets the term).
    let mut fp_us: u64 = 0;
    let mut svc_max_us: u64 = 0;
    let mut handshake_total: u64 = 0;
    for host in &plan.hosts {
        // Per-host arm resolution: ORIGIN only helps where the
        // terminating edge advertises it at this instant.
        let key = if rollout.origin_enabled(host.edge, now) {
            host.origin_key
        } else {
            host.control_key
        };
        let mut host_us = host.transfer_us() + host.rtt_us();
        if visit_keys.contains(&key) {
            // Coalesced onto a connection this visit already used.
            obs.coalesced_requests += u64::from(host.requests);
        } else {
            visit_keys.push(key);
            let reused =
                session
                    .pool
                    .acquire(key, host.edge, now, cfg.edge_cap, cfg.pool_budget, churn);
            obs.dns_queries += 1;
            if reused {
                obs.dns_cache_hits += 1;
            } else {
                obs.dns_cache_misses += 1;
                obs.connections_opened += 1;
                obs.measured_tls += 1;
                let handshake = (session
                    .rng
                    .log_normal((host.rtt_us() * HANDSHAKE_RTTS) as f64, 0.08))
                    as u64;
                let offset = fp_us.max(svc_max_us);
                obs.handshakes.push((offset, handshake, 0));
                handshake_total += handshake;
                host_us += handshake;
            }
        }
        let offset = fp_us.max(svc_max_us) + host_us;
        obs.bytes.push((offset, host.bytes, 0));
        if host.is_first_party() {
            fp_us += host_us;
        } else {
            svc_max_us = svc_max_us.max(host_us);
        }
    }
    let jitter = session.rng.log_normal(1.0, 0.05);
    let plt = ((BASE_RENDER_US + fp_us + svc_max_us) as f64 * jitter) as u64;
    obs.plt_us = plt;
    // Ideal models: scale out the handshakes the model's coalescing
    // would have avoided on a cold load of this site.
    let opens = obs.connections_opened;
    let avg_handshake = handshake_total.checked_div(opens).unwrap_or(0);
    let saved_ip = opens.saturating_sub(u64::from(plan.model_ip_tls));
    let saved_origin = opens.saturating_sub(u64::from(plan.model_origin_tls));
    obs.plt_ideal_ip_us = plt.saturating_sub(avg_handshake * saved_ip);
    obs.plt_ideal_origin_us = plt.saturating_sub(avg_handshake * saved_origin);
    origin_arm
}
