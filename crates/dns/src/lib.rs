//! Simulated DNS substrate.
//!
//! Connection coalescing interacts with DNS in two load-bearing ways
//! the paper measures:
//!
//! 1. **IP-based coalescing** (Chromium, Firefox) begins with a DNS
//!    query for every subresource hostname; the *address sets* that
//!    zones return — and how load balancing rotates them — decide
//!    whether the browser sees a match with its connected set (§2.3).
//! 2. **Privacy**: each plaintext UDP/TCP-53 query leaks user activity
//!    on-path; ORIGIN coalescing removes those queries entirely
//!    (§6.2). Sessions resolve over port 53 and count every network
//!    query as plaintext, so experiments report exactly how much
//!    cleartext disappeared.
//!
//! The crate is sans-IO: the authoritative [`ZoneSet`] is queried by a
//! caching [`ResolverState`] session whose notion of time is supplied
//! by the caller (simulated microseconds), so TTL expiry is
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod harness_compat;
pub mod name;
pub mod record;
pub mod resolver;
pub mod zone;

#[doc(hidden)]
pub use harness_compat::*;
pub use name::DnsName;
pub use record::{RecordSet, Rotation};
pub use resolver::{QueryAnswer, ResolverState, ResolverStats};
pub use zone::{SerialKey, ZoneSet};
