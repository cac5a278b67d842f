//! Deterministic observability for the pipeline.
//!
//! Every value recorded here is either
//!
//! * **deterministic work** — monotonic `u64` counters, fixed-bucket
//!   histograms, and phase totals measured in simulated time
//!   ([`origin_netsim::SimTime`]), all of which are byte-identical
//!   across runs and thread counts because accumulation is commutative
//!   integer addition; or
//! * **wall-clock runtime** — the `runtime_ms` section, which exists
//!   purely for humans and CI perf trending and is *excluded* from
//!   determinism comparison (strip it with `jq 'del(.runtime_ms)'`).
//!
//! The [`Registry`] follows the same `merge()` discipline as the
//! sharded crawl results: workers accumulate into private registries
//! and the driver merges shards back in rank order. Because every
//! deterministic field merges by integer addition, the merged registry
//! is independent of how the work was chunked.

mod hist;
mod registry;

pub use hist::FixedHistogram;
pub use registry::{PhaseStat, Registry};
