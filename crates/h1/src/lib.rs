//! `origin-h1` — a sans-IO HTTP/1.1 connection state machine.
//!
//! HTTP/2 gives the coalescing model streams; HTTP/1.1 gives it
//! nothing, so legacy sites in the mixed-protocol universe pay for
//! concurrency with *connections*. This crate models exactly the
//! part of HTTP/1.1 that matters for that accounting, in the h11
//! event/state/connection style:
//!
//! - **Typed events** ([`EventRef`], whose heads borrow the caller's
//!   strings): request/response heads, body chunks, end-of-message,
//!   connection close. No bytes are read or written
//!   by the machine itself — callers feed events in and get wire
//!   bytes (for heads) out, in a buffer the connection keeps.
//! - **A role/state transition table** ([`state::transition`]):
//!   every `(role-local state, event)` pair either names the next
//!   state or is illegal, and illegal pairs are rejected with a
//!   typed error rather than silently tolerated.
//! - **Strict framing**: a message body is delimited by
//!   `Content-Length` or by connection close — nothing else.
//!   `Transfer-Encoding` is refused, body overruns and short bodies
//!   are errors, and a close-delimited response forbids keep-alive.
//! - **Keep-alive instead of streams**: one request/response cycle
//!   at a time ([`H1Error::Pipelining`] on attempts to send a second
//!   request before the cycle completes), with
//!   [`Connection::start_next_cycle`] re-arming an idle connection.
//!   Concurrency comes from the per-host connection cap, which the
//!   browser's pool states and enforces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod event;
#[doc(hidden)]
pub mod harness_compat;
pub mod state;

pub use conn::{Connection, H1Error};
pub use event::{EventRef, Framing, RequestHead, ResponseHead};
#[doc(hidden)]
pub use harness_compat::*;
pub use state::{EventKind, Role, State};
