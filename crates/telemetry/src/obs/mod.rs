//! Streaming observability: tumbling windows on simulated time,
//! quantile sketches with trace exemplars, and a bounded flight
//! recorder.
//!
//! These merges are commutative as well as associative, so shards
//! combine in any order, and memory is `O(windows × series)`, never
//! `O(visits)`. See `DESIGN.md` §18 for the window model, the sketch
//! error bound and the flight recorder's semantics.

pub mod dashboard;
pub mod flight;
pub mod sketch;
pub mod window;

pub use flight::{with_panic_dump, FlightEvent, FlightRecorder};
pub use sketch::{Exemplar, QuantileSketch};
pub use window::{Timeline, VisitObs, VisitSinks, WindowCell};
