//! `origin_telemetry::metrics` under its old crate name, for the frozen
//! benchmark harness, which names it. Workspace code uses
//! `origin_telemetry` directly.
pub use origin_telemetry::metrics::*;
