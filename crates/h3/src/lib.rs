//! QUIC-ish HTTP/3 connection model.
//!
//! The paper's best-case coalescing model (§4) is evaluated under h2
//! semantics, where coalescing is bounded by certificate coverage and
//! the ORIGIN frame. Under QUIC/h3 the reachable best case shifts:
//! handshakes are one round trip (zero when resumed), TLS session
//! tickets can be redeemed across hostnames behind one certificate
//! (Sy et al.), a validated server address is validated for every
//! later connection to it (shared address validation), and bloated
//! certificate chains re-enter the picture through the
//! anti-amplification limit (Nawrocki et al.). This crate models those
//! mechanics as a layer over `origin-netsim`, driven by the browser
//! loader on pages whose origins deploy h3:
//!
//! - [`handshake`] — the 1-RTT/0-RTT [`HandshakeMode`] and the
//!   [`QuicCostModel`] that turns mode + certificate size + address
//!   validation into blocking time.
//! - [`qpack`] — RFC 9204 field compression on `origin_h2`'s HPACK
//!   field tables (RFC 9204 is defined on top of RFC 7541): the
//!   0-indexed static table, Required Insert Count / Base arithmetic,
//!   and the split encoder-stream / field-section wire format.
//! - [`session`] — [`H3Session`] (per-visit Alt-Svc scopes, tickets
//!   and validated addresses; every handshake decision in one
//!   deterministic call) and [`H3Conn`] (per-connection QPACK driving
//!   and connection-ID counts).
//!
//! Everything is deterministic given the caller's rng: the crate draws
//! no entropy of its own, so `--h3-share 0` universes never touch it
//! and stay byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handshake;
pub mod qpack;
pub mod session;

pub use handshake::{HandshakeMode, QuicCostModel};
pub use qpack::{Decoder as QpackDecoder, Encoder as QpackEncoder, Field, QpackError};
pub use session::{
    H3Conn, H3Counts, H3RequestStats, H3Session, QuicConnectOutcome, CID_ROTATION_PERIOD,
    ZERO_RTT_REJECT_RATE,
};
