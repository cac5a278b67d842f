//! Typed HTTP/1.1 events and the framing they imply.
//!
//! Events are the only currency the state machine deals in, and the
//! machine reads them by reference: an [`EventRef`] whose heads
//! ([`RequestHead`], [`ResponseHead`]) point at strings the caller
//! already has — the loader drives one per legacy request and owns
//! none of it. [`Event`] is the owned form, for callers that build a
//! message to keep; [`Event::borrowed`] is how the machine sees it.
//! Body data is carried as a byte *count* — the machine validates
//! framing, it does not buffer payloads.

use std::fmt;

/// A request head: method, target, and headers, HTTP/1.1 implied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `HEAD`, …).
    pub method: String,
    /// Origin-form request target (`/img/r4-0.png`).
    pub target: String,
    /// Header fields in send order, lowercase names.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// A bodyless `GET` with a `host` header, the common case for a
    /// simulated subresource fetch.
    pub fn get(target: &str, host: &str) -> Self {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: vec![("host".to_string(), host.to_string())],
        }
    }

    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }
}

/// A response head: status code and headers, HTTP/1.1 implied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `304`, …).
    pub status: u16,
    /// Header fields in send order, lowercase names.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `200` response framed by `Content-Length: len`.
    pub fn with_content_length(len: u64) -> Self {
        Response {
            status: 200,
            headers: vec![("content-length".to_string(), len.to_string())],
        }
    }

    /// A `200` response with no length header: the body runs until
    /// the server closes the connection (and keep-alive is off).
    pub fn close_delimited() -> Self {
        Response {
            status: 200,
            headers: vec![("connection".to_string(), "close".to_string())],
        }
    }

    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }
}

fn header_lookup<'a, S: AsRef<str>>(headers: &'a [(S, S)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.as_ref().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_ref())
}

/// A request head by reference. `S` is how the header list holds its
/// strings: `&str` for a caller that borrows everything, `String` for
/// the view of an owned [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a, S = &'a str> {
    /// Request method (`GET`, `HEAD`, …).
    pub method: &'a str,
    /// Origin-form request target (`/img/r4-0.png`).
    pub target: &'a str,
    /// Header fields in send order, lowercase names.
    pub headers: &'a [(S, S)],
}

impl<'a, S: AsRef<str>> RequestHead<'a, S> {
    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lookup(self.headers, name)
    }
}

/// A response head by reference; `S` as for [`RequestHead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead<'a, S = &'a str> {
    /// Status code (`200`, `304`, …).
    pub status: u16,
    /// Header fields in send order, lowercase names.
    pub headers: &'a [(S, S)],
}

impl<'a> ResponseHead<'a> {
    /// A `200` response with no length header: the body runs until
    /// the server closes the connection (and keep-alive is off).
    pub const CLOSE_DELIMITED: Self = ResponseHead {
        status: 200,
        headers: &[("connection", "close")],
    };
}

impl<'a, S: AsRef<str>> ResponseHead<'a, S> {
    /// First value of the named header (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lookup(self.headers, name)
    }
}

/// One HTTP/1.1 protocol event by reference: what
/// [`Connection::send_ref`](crate::Connection::send_ref) and
/// [`Connection::receive_ref`](crate::Connection::receive_ref) take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRef<'a, S = &'a str> {
    /// A request head crossed the connection.
    Request(RequestHead<'a, S>),
    /// A response head crossed the connection.
    Response(ResponseHead<'a, S>),
    /// `n` body bytes crossed the connection.
    Data(u64),
    /// The current message body is complete.
    EndOfMessage,
    /// The peer (or we) closed the transport.
    ConnectionClosed,
}

impl<S> EventRef<'_, S> {
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

/// One HTTP/1.1 protocol event, in the h11 style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A request head crossed the connection.
    Request(Request),
    /// A response head crossed the connection.
    Response(Response),
    /// `n` body bytes crossed the connection.
    Data(u64),
    /// The current message body is complete.
    EndOfMessage,
    /// The peer (or we) closed the transport.
    ConnectionClosed,
}

impl Event {
    /// The event as the machine reads it.
    pub fn borrowed(&self) -> EventRef<'_, String> {
        match self {
            Event::Request(req) => EventRef::Request(RequestHead {
                method: &req.method,
                target: &req.target,
                headers: &req.headers,
            }),
            Event::Response(resp) => EventRef::Response(ResponseHead {
                status: resp.status,
                headers: &resp.headers,
            }),
            Event::Data(n) => EventRef::Data(*n),
            Event::EndOfMessage => EventRef::EndOfMessage,
            Event::ConnectionClosed => EventRef::ConnectionClosed,
        }
    }

    /// See [`EventRef::code`].
    pub fn code(&self) -> &'static str {
        self.borrowed().code()
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
