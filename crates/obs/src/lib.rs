//! Streaming observability for the crawl: tumbling-window aggregation
//! on simulated time, deterministic quantile sketches with trace
//! exemplars, and a bounded flight recorder.
//!
//! Everything in this crate is built for the same contract the rest of
//! the workspace honours: **byte-identical output at any thread
//! count**. The two properties that make that cheap to guarantee are
//!
//! 1. every aggregate is keyed by *simulated* time derived purely from
//!    a visit's site rank (never wall clock, never arrival order), and
//! 2. every merge is commutative and associative (integer bucket
//!    addition, window-keyed union, min-rank trigger selection), so
//!    shards can be combined in any order — a strictly stronger
//!    guarantee than the rank-ordered merges the one-shot reports use.
//!
//! Memory is `O(windows × series)` — each window holds a fixed counter
//! array and a handful of bounded sketches — never `O(visits)`.
//!
//! See `DESIGN.md` §18 for the window model, sketch error bound, and
//! flight-recorder semantics.

#![warn(missing_docs)]

pub mod dashboard;
pub mod flight;
pub mod sketch;
pub mod window;

pub use flight::{with_panic_dump, FlightEvent, FlightRecorder};
pub use sketch::{Exemplar, QuantileSketch};
pub use window::{Timeline, VisitObs, VisitSinks, WindowCell};
