//! `origin_netsim::harness_compat` under its old crate name, for the
//! frozen benchmark harness's lookup probe, which names it. No
//! workspace crate depends on this shell.
pub use origin_netsim::harness_compat::*;
