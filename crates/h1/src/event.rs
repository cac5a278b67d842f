//! Typed HTTP/1.1 events and the framing they imply.
//!
//! Events are the only currency the state machine deals in, and the
//! machine reads them by reference: an [`EventRef`] whose heads
//! ([`RequestHead`], [`ResponseHead`]) point at strings the caller
//! already has — the loader drives one per legacy request and owns
//! none of it. Body data is carried as a byte *count* — the machine
//! validates framing, it does not buffer payloads.

use std::fmt;

fn header_lookup<'a>(headers: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, v)| v)
}

/// A request head by reference, HTTP/1.1 implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a> {
    /// Request method (`GET`, `HEAD`, …).
    pub method: &'a str,
    /// Origin-form request target (`/img/r4-0.png`).
    pub target: &'a str,
    /// Header fields in send order, lowercase names.
    pub headers: &'a [(&'a str, &'a str)],
}

impl<'a> RequestHead<'a> {
    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lookup(self.headers, name)
    }
}

/// A response head by reference, HTTP/1.1 implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead<'a> {
    /// Status code (`200`, `304`, …).
    pub status: u16,
    /// Header fields in send order, lowercase names.
    pub headers: &'a [(&'a str, &'a str)],
}

impl<'a> ResponseHead<'a> {
    /// A `200` response with no length header: the body runs until
    /// the server closes the connection (and keep-alive is off).
    pub const CLOSE_DELIMITED: Self = ResponseHead {
        status: 200,
        headers: &[("connection", "close")],
    };

    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lookup(self.headers, name)
    }
}

/// One HTTP/1.1 protocol event, in the h11 style: what
/// [`Connection::send_ref`](crate::Connection::send_ref) and
/// [`Connection::receive_ref`](crate::Connection::receive_ref) take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRef<'a> {
    /// A request head crossed the connection.
    Request(RequestHead<'a>),
    /// A response head crossed the connection.
    Response(ResponseHead<'a>),
    /// `n` body bytes crossed the connection.
    Data(u64),
    /// The current message body is complete.
    EndOfMessage,
    /// The peer (or we) closed the transport.
    ConnectionClosed,
}

impl EventRef<'_> {
    /// Stable dotted code for this event kind, used as the flight-
    /// recorder event code when an h1 session is being observed.
    pub fn code(&self) -> &'static str {
        match self {
            EventRef::Request(_) => "h1.request",
            EventRef::Response(_) => "h1.response",
            EventRef::Data(_) => "h1.data",
            EventRef::EndOfMessage => "h1.end_of_message",
            EventRef::ConnectionClosed => "h1.connection_closed",
        }
    }
}

/// How a message body is delimited. Strictly `Content-Length` or
/// connection close — `Transfer-Encoding` is refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Exactly this many body bytes remain.
    ContentLength(u64),
    /// Body runs until the connection closes (responses only);
    /// forbids keep-alive by construction.
    CloseDelimited,
    /// No body at all (`HEAD` responses, `204`, `304`, requests
    /// without `Content-Length`).
    NoBody,
}

impl fmt::Display for Framing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Framing::ContentLength(n) => write!(f, "content-length({n})"),
            Framing::CloseDelimited => f.write_str("close-delimited"),
            Framing::NoBody => f.write_str("no-body"),
        }
    }
}
