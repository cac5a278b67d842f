//! How much work the pipeline did: `u64` counters, fixed-bucket
//! histograms and sim-time phase totals in a [`Registry`], plus the
//! wall-clock `runtime_ms` section.

mod hist;
mod registry;

pub use hist::FixedHistogram;
pub use registry::{PhaseStat, Registry};
