//! Browser network-stack models.
//!
//! The paper's §2.3 documents — via source inspection of
//! `net/http/http_stream_factory.cc` (Chromium) and
//! `netwerk/protocol/http/Http2Session.cpp` (Firefox) — exactly how
//! each browser decides whether a subresource request can reuse an
//! existing connection. This crate implements those decision
//! procedures over a pooled-connection model and drives whole page
//! loads against any [`env::WebEnv`] (the synthetic universe, or the
//! CDN deployment simulator):
//!
//! - [`policy`] — the coalescing policies: Chromium strict-IP,
//!   Firefox transitive-IP, Firefox+ORIGIN, and the §4 *ideal* model
//!   variants (perfect IP / perfect ORIGIN coalescing).
//! - [`pool`] — the connection pool, partitioned by credentials mode
//!   (CORS-anonymous and XHR traffic pools separately, the §5.3
//!   obstruction).
//! - [`loader`] — the page loader: walks the resource tree, charges
//!   DNS / connect / TLS phases per the pool's decisions, models
//!   happy-eyeballs and speculative races, and emits a
//!   [`origin_web::PageLoad`].
//! - [`mod@env`] — the environment abstraction plus the webgen-backed
//!   implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod loader;
pub mod policy;
pub mod pool;

pub use env::{UniverseEnv, WebEnv};
pub use loader::{
    fault_counter_names, h3_counter_names, BrowserConfig, FaultCounts, FaultSession, PageLoader,
    VisitArena, REDUNDANCY_KINDS,
};
pub use policy::BrowserKind;
pub use pool::{ConnectionPool, PoolPartition, PooledConnection};
