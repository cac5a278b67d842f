//! The open-loop serving engine (DESIGN.md §20).
//!
//! The paper evaluates best-case coalescing as a one-shot crawl: every
//! site visited exactly once, cold. Production traffic is nothing like
//! that — sessions arrive on their own clock (Poisson, diurnally
//! modulated), users make several visits with warm connection pools,
//! popularity is Zipf-skewed, and deployment changes roll out across
//! the edge fleet *while traffic is being served*. This crate replaces
//! the crawl with that workload:
//!
//! - [`plan`] — compiles each generated site into a flat [`SitePlan`]:
//!   per-host coalescing keys (control and ORIGIN arms), edge
//!   assignment, request/byte budgets, and the site's ideal-model
//!   connection counts. Built once, `O(sites)`, shared read-only by
//!   every worker.
//! - [`engine`] — the sharded event-loop driver: each worker owns
//!   `session_id % threads` and replays the identical arrival stream
//!   on its own event queue, so the merged output is byte-identical
//!   at any thread count.
//!
//! Per-visit work recycles a fixed set of scratch buffers (session
//! slab, pool slabs, [`origin_telemetry::obs::VisitObs`]), so
//! steady-state memory is `O(sites) + O(windows) + O(active sessions)`
//! — never `O(visits)`. `crates/serve/tests/serve_alloc.rs` pins that
//! with a counting allocator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod plan;

pub use engine::{run_serve, ServeReport};
pub use plan::{HostPlan, SitePlan};

use origin_netsim::SimDuration;
use origin_webgen::DatasetConfig;

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The synthetic web to serve.
    pub dataset: DatasetConfig,
    /// Serving-side master seed (arrivals, sessions, rollout);
    /// independent of the dataset seed.
    pub seed: u64,
    /// Total visit budget: the run stops after exactly this many
    /// visits, truncating the last session if needed.
    pub visits: u64,
    /// Worker shards. Output is byte-identical at any value.
    pub threads: usize,
    /// Peak session arrival rate, per simulated second.
    pub peak_rate_per_sec: f64,
    /// Idle timeout for pooled session connections.
    pub idle_timeout: SimDuration,
    /// Max warm connections to a single edge per session.
    pub edge_cap: usize,
    /// Global per-session pool budget (0 disables pooling — every
    /// connection reopens).
    pub pool_budget: usize,
    /// Timeline tumbling-window width.
    pub window: SimDuration,
    /// Bound each arm's live window map (`None` = unbounded).
    pub retain_windows: Option<u64>,
    /// Final share of edges advertising ORIGIN (0 = control only).
    pub rollout: f64,
    /// Sim time over which the rollout share ramps from 0 to target.
    pub rollout_ramp: SimDuration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            dataset: DatasetConfig::default(),
            seed: 0x5E17E,
            visits: 100_000,
            threads: 1,
            peak_rate_per_sec: 10.0,
            idle_timeout: SimDuration::from_secs(60),
            edge_cap: 6,
            pool_budget: 32,
            window: SimDuration::from_secs(60),
            retain_windows: None,
            rollout: 0.0,
            rollout_ramp: SimDuration::from_secs(3_600),
        }
    }
}

impl ServeConfig {
    /// The rollout model this config describes. The seed is
    /// decorrelated from the arrival/session streams so changing the
    /// rollout target never perturbs the traffic itself.
    pub fn rollout_model(&self) -> origin_cdn::Rollout {
        origin_cdn::Rollout::new(self.rollout, self.rollout_ramp, self.seed ^ 0x0110_60C4)
    }
}
