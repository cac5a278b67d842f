//! Streaming observability: tumbling windows on simulated time,
//! quantile sketches with trace exemplars, and a bounded flight
//! recorder.
//!
//! These merges are commutative as well as associative, so shards
//! combine in any order, and memory grows with windows, never with
//! visits; a sealed window keeps only what its export prints. See
//! `DESIGN.md` §18 for the window model, the seal rule, the sketch
//! error bound and the flight recorder's semantics.

pub mod dashboard;
pub mod flight;
pub mod sketch;
pub mod window;

pub use flight::{with_panic_dump, FlightEvent, FlightRecorder};
pub use sketch::{Exemplar, QuantileSketch};
pub use window::{Timeline, VisitObs, VisitSinks, WindowCell, WindowStats};
