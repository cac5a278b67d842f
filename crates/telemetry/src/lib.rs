//! Telemetry of the simulated world. A visit is described once (the
//! browser's `Visit::report`) and three modules keep what a run asks for:
//! [`metrics`] says *how much* (counters, histograms, phase totals;
//! `DESIGN.md` §16), [`trace`] *why* (per-request spans and flows,
//! Perfetto export; §17) and [`obs`] *when* (windowed series, quantile
//! sketches, the flight recorder and the dashboard; §18).
//!
//! All three keep one contract: **every export is byte-identical at any
//! thread count and on any machine.**
//!
//! 1. **Sim-time keys.** Timestamps, windows and phase totals are
//!    simulated time derived from the workload (a visit's site rank),
//!    never wall clock or arrival order. Span IDs come from `(visit,
//!    per-visit sequence)` ([`trace::Tracer::next_id`]) and sampling
//!    hashes the rank ([`trace::Sampler`]). The one wall-clock section,
//!    the registry's `runtime_ms`, is stripped before any comparison
//!    (`jq 'del(.runtime_ms)'`).
//! 2. **Integer merges.** Workers record into private sinks and the
//!    driver folds the shards: counters, buckets and phase totals add as
//!    `u64`, windows union by key, the flight recorder keeps the
//!    lowest-rank trigger, and trace shards concatenate in rank order.
//! 3. **Thread-count-independent bytes.** Given 1 and 2, the merged
//!    state, and so every byte exported from it, is a function of the
//!    site list alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod obs;
pub mod trace;
