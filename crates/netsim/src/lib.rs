//! Deterministic discrete-event network simulator.
//!
//! The paper's measurements ran against the real Internet; this crate
//! is the substitute substrate (see DESIGN.md §2). It follows the
//! sans-IO, event-driven idiom: protocol models never touch sockets or
//! the wall clock — a [`SimTime`] owned by an [`EventQueue`] is the
//! only notion of time, so every experiment is exactly reproducible
//! from a seed.
//!
//! Components:
//!
//! - [`SimTime`]/[`SimDuration`] — microsecond-resolution simulated
//!   time.
//! - [`EventQueue`] — a monotonic priority queue of timed events with
//!   FIFO tie-breaking.
//! - [`ArrivalProcess`] — open-loop Poisson session arrivals with a
//!   diurnal rate profile, for the serving engine.
//! - [`LinkProfile`] — per-path latency/bandwidth model with a
//!   slow-start-aware transfer-time estimator.
//! - [`tcp`] — TCP + TLS connection-establishment cost model
//!   (handshake RTT accounting, happy-eyeballs raceable).
//! - [`fault`] — fault injection: probabilistic packet drops and the
//!   §6.7 non-compliant middlebox that tears down connections carrying
//!   unknown HTTP/2 frame types.
//! - [`rng`] — seeded RNG plumbing so all randomness is reproducible.
//! - [`hash`] — FNV-1a, SplitMix64 and the Fx hasher, the workspace's
//!   one copy of each.
//! - [`json`] — the one JSON token writer every exporter appends
//!   through.
//! - [`shard`] — [`fold_chunks`], the order-preserving chunk scheduler
//!   the parallel crawl and active-measurement phases run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod event;
pub mod fault;
#[doc(hidden)]
pub mod harness_compat;
pub mod hash;
pub mod json;
pub mod link;
pub mod rng;
pub mod shard;
pub mod tcp;
pub mod time;

pub use arrival::ArrivalProcess;
pub use event::EventQueue;
pub use fault::{FaultProfile, Middlebox, MiddleboxVerdict, PacketFate};
pub use link::LinkProfile;
pub use rng::SimRng;
pub use shard::fold_chunks;
pub use tcp::{ConnectionCost, HandshakeModel, TlsVersion};
pub use time::{millis_to_micros, SimDuration, SimTime};
