//! The connection layer: two role-local machines, strict framing,
//! keep-alive cycles, and wire encoding for message heads.

use crate::event::{Event, EventRef, Framing, RequestHead, ResponseHead};
use crate::state::{transition, EventKind, Role, State};
use std::fmt;
use std::io::Write;

/// A protocol violation. Every error is terminal: the connection
/// moves to [`State::Error`] and refuses further events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H1Error {
    /// The `(role, state, event)` triple is not in the transition
    /// table.
    IllegalTransition {
        /// Role whose machine rejected the event.
        role: Role,
        /// State the machine was in.
        state: State,
        /// The offending event kind.
        event: EventKind,
    },
    /// A second request was sent before the current cycle finished.
    /// HTTP/1.1 pipelining is deliberately unsupported — real
    /// browsers shipped with it disabled, and the paper's connection
    /// accounting assumes one request in flight per connection.
    Pipelining,
    /// A response head was sent before any request head arrived.
    ResponseWithoutRequest,
    /// `Transfer-Encoding` framing is outside this machine's strict
    /// Content-Length / connection-close subset.
    UnsupportedTransferEncoding,
    /// `Content-Length` was present but not a decimal integer.
    BadContentLength(String),
    /// More body bytes than the framing allows.
    BodyOverrun {
        /// The framing in force.
        framing: Framing,
        /// Bytes that exceeded it.
        extra: u64,
    },
    /// `EndOfMessage` (or a transport close) arrived with
    /// Content-Length bytes still owed.
    ShortBody {
        /// Bytes still owed.
        remaining: u64,
    },
    /// `EndOfMessage` on a close-delimited body: only a transport
    /// close can end it.
    CloseDelimitedEnd,
    /// `start_next_cycle` on a connection that cannot be reused
    /// (keep-alive off, closed, or errored).
    NotKeptAlive,
    /// `start_next_cycle` before both sides reached `Done`.
    CycleIncomplete,
}

impl fmt::Display for H1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H1Error::IllegalTransition { role, state, event } => {
                write!(f, "illegal h1 transition: {event} in {role} state {state}")
            }
            H1Error::Pipelining => f.write_str("pipelining refused: cycle still in flight"),
            H1Error::ResponseWithoutRequest => f.write_str("response head before request head"),
            H1Error::UnsupportedTransferEncoding => {
                f.write_str("transfer-encoding framing unsupported (strict subset)")
            }
            H1Error::BadContentLength(v) => write!(f, "bad content-length: {v:?}"),
            H1Error::BodyOverrun { framing, extra } => {
                write!(f, "body overrun: {extra} bytes past {framing}")
            }
            H1Error::ShortBody { remaining } => {
                write!(f, "short body: {remaining} content-length bytes owed")
            }
            H1Error::CloseDelimitedEnd => {
                f.write_str("close-delimited body can only end with connection close")
            }
            H1Error::NotKeptAlive => f.write_str("connection not reusable"),
            H1Error::CycleIncomplete => f.write_str("cycle incomplete: both sides must be done"),
        }
    }
}

impl std::error::Error for H1Error {}

/// One HTTP/1.1 connection, seen from `role`'s side.
///
/// Tracks both role-local machines (ours and our model of the
/// peer's), the framing of the in-flight request and response, and
/// the keep-alive verdict for the current cycle.
#[derive(Debug, Clone)]
pub struct Connection {
    role: Role,
    client_state: State,
    server_state: State,
    req_framing: Framing,
    req_remaining: u64,
    resp_framing: Framing,
    resp_remaining: u64,
    keep_alive: bool,
    request_seen: bool,
    head_request: bool,
    cycles_completed: u64,
    /// The last head we sent, as wire bytes; kept for its capacity.
    wire: Vec<u8>,
}

impl Connection {
    /// A fresh connection playing `role`.
    pub fn new(role: Role) -> Self {
        Connection {
            role,
            client_state: State::Idle,
            server_state: State::Idle,
            req_framing: Framing::NoBody,
            req_remaining: 0,
            resp_framing: Framing::NoBody,
            resp_remaining: 0,
            keep_alive: true,
            request_seen: false,
            head_request: false,
            cycles_completed: 0,
            wire: Vec::new(),
        }
    }

    /// Back to [`Connection::new`]`(role)`, keeping the wire buffer:
    /// a pooled machine starting its next connection.
    pub fn reset(&mut self, role: Role) {
        let mut wire = std::mem::take(&mut self.wire);
        wire.clear();
        *self = Connection {
            wire,
            ..Connection::new(role)
        };
    }

    /// Our role's current state.
    pub fn our_state(&self) -> State {
        self.state_of(self.role)
    }

    /// The peer role's current state.
    pub fn their_state(&self) -> State {
        self.state_of(self.role.peer())
    }

    /// Whether the connection may be reused after this cycle.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Completed request/response cycles so far.
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// Framing of the in-flight (or just-finished) response body.
    pub fn response_framing(&self) -> Framing {
        self.resp_framing
    }

    /// Process an event we send. Heads return their wire bytes, valid
    /// until the next head is sent; body/lifecycle events return
    /// `None` (the caller owns payloads — the machine only validates
    /// framing).
    pub fn send(&mut self, event: &Event) -> Result<Option<&[u8]>, H1Error> {
        self.send_ref(event.borrowed())
    }

    /// [`Connection::send`] for an event the caller only borrows.
    pub fn send_ref<S: AsRef<str>>(
        &mut self,
        event: EventRef<'_, S>,
    ) -> Result<Option<&[u8]>, H1Error> {
        let is_head = match &event {
            EventRef::Request(req) => {
                encode_request(req, &mut self.wire);
                true
            }
            EventRef::Response(resp) => {
                encode_response(resp, &mut self.wire);
                true
            }
            _ => false,
        };
        self.process(self.role, &event)?;
        Ok(is_head.then_some(&self.wire[..]))
    }

    /// Process an event the peer sent.
    pub fn receive(&mut self, event: &Event) -> Result<(), H1Error> {
        self.receive_ref(event.borrowed())
    }

    /// [`Connection::receive`] for an event the caller only borrows.
    pub fn receive_ref<S: AsRef<str>>(&mut self, event: EventRef<'_, S>) -> Result<(), H1Error> {
        self.process(self.role.peer(), &event)
    }

    /// Re-arm an idle kept-alive connection for the next cycle.
    pub fn start_next_cycle(&mut self) -> Result<(), H1Error> {
        if self.client_state == State::Error
            || self.server_state == State::Error
            || self.client_state == State::Closed
            || self.server_state == State::Closed
            || self.client_state == State::MustClose
        {
            return Err(H1Error::NotKeptAlive);
        }
        if self.client_state != State::Done || self.server_state != State::Done {
            return Err(H1Error::CycleIncomplete);
        }
        debug_assert!(
            self.keep_alive,
            "done+done with keep-alive off is must-close"
        );
        self.client_state = State::Idle;
        self.server_state = State::Idle;
        self.req_framing = Framing::NoBody;
        self.req_remaining = 0;
        self.resp_framing = Framing::NoBody;
        self.resp_remaining = 0;
        self.request_seen = false;
        self.head_request = false;
        Ok(())
    }

    fn state_of(&self, role: Role) -> State {
        match role {
            Role::Client => self.client_state,
            Role::Server => self.server_state,
        }
    }

    fn set_state(&mut self, role: Role, state: State) {
        match role {
            Role::Client => self.client_state = state,
            Role::Server => self.server_state = state,
        }
    }

    fn fail(&mut self, err: H1Error) -> H1Error {
        self.client_state = State::Error;
        self.server_state = State::Error;
        err
    }

    /// The core: validate the event against `role`'s machine and the
    /// in-flight framing, then step the table.
    fn process<S: AsRef<str>>(
        &mut self,
        role: Role,
        event: &EventRef<'_, S>,
    ) -> Result<(), H1Error> {
        let state = self.state_of(role);
        match event {
            EventRef::Request(req) => {
                if role != Role::Client {
                    return Err(self.fail(H1Error::IllegalTransition {
                        role,
                        state,
                        event: EventKind::RequestHead,
                    }));
                }
                // Pipelining gets its own diagnosis: the table would
                // reject Done/MustClose anyway, but "second request
                // while a cycle is in flight" is the interesting
                // refusal, not a generic illegal transition.
                if matches!(state, State::SendBody | State::Done | State::MustClose) {
                    return Err(self.fail(H1Error::Pipelining));
                }
                let framing = self.request_framing(req)?;
                self.step(role, state, EventKind::RequestHead)?;
                self.req_framing = framing;
                self.req_remaining = match framing {
                    Framing::ContentLength(n) => n,
                    _ => 0,
                };
                self.request_seen = true;
                self.head_request = req.method.eq_ignore_ascii_case("HEAD");
                if header_says_close(req.headers) {
                    self.keep_alive = false;
                }
                Ok(())
            }
            EventRef::Response(resp) => {
                if role != Role::Server {
                    return Err(self.fail(H1Error::IllegalTransition {
                        role,
                        state,
                        event: EventKind::ResponseHead,
                    }));
                }
                if !self.request_seen {
                    return Err(self.fail(H1Error::ResponseWithoutRequest));
                }
                let framing = self.response_framing_of(resp)?;
                self.step(role, state, EventKind::ResponseHead)?;
                self.resp_framing = framing;
                self.resp_remaining = match framing {
                    Framing::ContentLength(n) => n,
                    _ => 0,
                };
                if matches!(framing, Framing::CloseDelimited) || header_says_close(resp.headers) {
                    self.keep_alive = false;
                }
                Ok(())
            }
            EventRef::Data(n) => {
                self.step(role, state, EventKind::Data)?;
                let (framing, remaining) = self.framing_mut(role);
                match framing {
                    Framing::ContentLength(_) => {
                        if *n > *remaining {
                            let extra = *n - *remaining;
                            let f = *framing;
                            return Err(self.fail(H1Error::BodyOverrun { framing: f, extra }));
                        }
                        *remaining -= *n;
                    }
                    Framing::CloseDelimited => {}
                    Framing::NoBody => {
                        let f = *framing;
                        let extra = *n;
                        return Err(self.fail(H1Error::BodyOverrun { framing: f, extra }));
                    }
                }
                Ok(())
            }
            EventRef::EndOfMessage => {
                let (framing, remaining) = self.framing_mut(role);
                match framing {
                    Framing::ContentLength(_) if *remaining > 0 => {
                        let remaining = *remaining;
                        return Err(self.fail(H1Error::ShortBody { remaining }));
                    }
                    Framing::CloseDelimited => {
                        return Err(self.fail(H1Error::CloseDelimitedEnd));
                    }
                    _ => {}
                }
                self.step(role, state, EventKind::EndOfMessage)?;
                self.after_done();
                Ok(())
            }
            EventRef::ConnectionClosed => {
                // Transport-wide: both machines observe the close.
                // A close-delimited body in flight is *completed* by
                // the close; a Content-Length body in flight is
                // truncated by it.
                for r in [Role::Client, Role::Server] {
                    let s = self.state_of(r);
                    if s == State::SendBody {
                        let (framing, remaining) = self.framing_mut(r);
                        match framing {
                            Framing::ContentLength(_) if *remaining > 0 => {
                                let remaining = *remaining;
                                return Err(self.fail(H1Error::ShortBody { remaining }));
                            }
                            Framing::CloseDelimited => {
                                // Close ends the message cleanly.
                                self.set_state(r, State::Done);
                                self.after_done();
                            }
                            _ => {}
                        }
                    }
                }
                // The initiating side must itself be in a closeable
                // state; the peer follows the transport down.
                let state = self.state_of(role);
                self.step(role, state, EventKind::ConnectionClosed)?;
                self.client_state = State::Closed;
                self.server_state = State::Closed;
                self.keep_alive = false;
                Ok(())
            }
        }
    }

    fn step(&mut self, role: Role, state: State, event: EventKind) -> Result<(), H1Error> {
        match transition(role, state, event) {
            Some(next) => {
                self.set_state(role, next);
                Ok(())
            }
            None => Err(self.fail(H1Error::IllegalTransition { role, state, event })),
        }
    }

    /// When both sides reach `Done` the cycle is complete; with
    /// keep-alive off, both fall through to `MustClose`.
    fn after_done(&mut self) {
        if self.client_state == State::Done && self.server_state == State::Done {
            self.cycles_completed += 1;
            if !self.keep_alive {
                self.client_state = State::MustClose;
                self.server_state = State::MustClose;
            }
        }
    }

    fn framing_mut(&mut self, role: Role) -> (&mut Framing, &mut u64) {
        match role {
            Role::Client => (&mut self.req_framing, &mut self.req_remaining),
            Role::Server => (&mut self.resp_framing, &mut self.resp_remaining),
        }
    }

    fn request_framing<S: AsRef<str>>(
        &mut self,
        req: &RequestHead<'_, S>,
    ) -> Result<Framing, H1Error> {
        if req.header("transfer-encoding").is_some() {
            return Err(self.fail(H1Error::UnsupportedTransferEncoding));
        }
        match req.header("content-length") {
            Some(v) => match v.trim().parse::<u64>() {
                Ok(0) => Ok(Framing::NoBody),
                Ok(n) => Ok(Framing::ContentLength(n)),
                Err(_) => {
                    let v = v.to_string();
                    Err(self.fail(H1Error::BadContentLength(v)))
                }
            },
            // Requests have no close-delimited form: no length means
            // no body.
            None => Ok(Framing::NoBody),
        }
    }

    fn response_framing_of<S: AsRef<str>>(
        &mut self,
        resp: &ResponseHead<'_, S>,
    ) -> Result<Framing, H1Error> {
        if resp.header("transfer-encoding").is_some() {
            return Err(self.fail(H1Error::UnsupportedTransferEncoding));
        }
        let bodyless_status =
            resp.status == 204 || resp.status == 304 || (100..200).contains(&resp.status);
        if self.head_request || bodyless_status {
            return Ok(Framing::NoBody);
        }
        match resp.header("content-length") {
            Some(v) => match v.trim().parse::<u64>() {
                Ok(0) => Ok(Framing::NoBody),
                Ok(n) => Ok(Framing::ContentLength(n)),
                Err(_) => {
                    let v = v.to_string();
                    Err(self.fail(H1Error::BadContentLength(v)))
                }
            },
            // No length, body-bearing status: the body runs to the
            // close of the connection.
            None => Ok(Framing::CloseDelimited),
        }
    }
}

fn header_says_close<S: AsRef<str>>(headers: &[(S, S)]) -> bool {
    headers.iter().any(|(n, v)| {
        n.as_ref().eq_ignore_ascii_case("connection") && v.as_ref().eq_ignore_ascii_case("close")
    })
}

fn encode_headers<S: AsRef<str>>(headers: &[(S, S)], out: &mut Vec<u8>) {
    for (name, value) in headers {
        out.extend_from_slice(name.as_ref().as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_ref().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Replace `out` with the head's wire bytes.
fn encode_request<S: AsRef<str>>(req: &RequestHead<'_, S>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(req.method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    encode_headers(req.headers, out);
}

/// Replace `out` with the head's wire bytes.
fn encode_response<S: AsRef<str>>(resp: &ResponseHead<'_, S>, out: &mut Vec<u8>) {
    let reason = match resp.status {
        200 => "OK",
        204 => "No Content",
        304 => "Not Modified",
        404 => "Not Found",
        421 => "Misdirected Request",
        _ => "",
    };
    out.clear();
    write!(out, "HTTP/1.1 {} {reason}\r\n", resp.status).expect("writing to a Vec cannot fail");
    encode_headers(resp.headers, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Request, Response};

    fn client() -> Connection {
        Connection::new(Role::Client)
    }

    /// Drive one full GET cycle with a Content-Length body.
    fn one_get_cycle(conn: &mut Connection, len: u64) {
        conn.send(&Event::Request(Request::get("/a.png", "site-000001.com")))
            .unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response::with_content_length(len)))
            .unwrap();
        conn.receive(&Event::Data(len)).unwrap();
        conn.receive(&Event::EndOfMessage).unwrap();
    }

    #[test]
    fn content_length_cycle_keeps_alive_and_recycles() {
        let mut conn = client();
        one_get_cycle(&mut conn, 1024);
        assert_eq!(conn.our_state(), State::Done);
        assert_eq!(conn.their_state(), State::Done);
        assert!(conn.keep_alive());
        assert_eq!(conn.cycles_completed(), 1);

        conn.start_next_cycle().unwrap();
        assert_eq!(conn.our_state(), State::Idle);
        one_get_cycle(&mut conn, 64);
        assert_eq!(conn.cycles_completed(), 2);
    }

    #[test]
    fn pipelining_is_refused() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/one", "h")))
            .unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        // Response not yet complete — a second request is pipelining.
        let err = conn
            .send(&Event::Request(Request::get("/two", "h")))
            .unwrap_err();
        assert_eq!(err, H1Error::Pipelining);
        assert_eq!(conn.our_state(), State::Error);
    }

    #[test]
    fn second_request_mid_send_is_also_pipelining() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/one", "h")))
            .unwrap();
        let err = conn
            .send(&Event::Request(Request::get("/two", "h")))
            .unwrap_err();
        assert_eq!(err, H1Error::Pipelining);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        // Body bytes before any head.
        let mut conn = client();
        let err = conn.send(&Event::Data(10)).unwrap_err();
        assert!(matches!(err, H1Error::IllegalTransition { .. }));

        // Response before request.
        let mut conn = client();
        let err = conn
            .receive(&Event::Response(Response::with_content_length(1)))
            .unwrap_err();
        assert_eq!(err, H1Error::ResponseWithoutRequest);

        // Nothing is accepted after an error.
        let err = conn
            .send(&Event::Request(Request::get("/x", "h")))
            .unwrap_err();
        assert!(matches!(
            err,
            H1Error::IllegalTransition { .. } | H1Error::Pipelining
        ));
    }

    #[test]
    fn close_delimited_body_ends_on_close_only() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/page", "h")))
            .unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response::close_delimited()))
            .unwrap();
        assert_eq!(conn.response_framing(), Framing::CloseDelimited);
        // A close-delimited response forbids keep-alive immediately.
        assert!(!conn.keep_alive());
        conn.receive(&Event::Data(4096)).unwrap();
        conn.receive(&Event::Data(4096)).unwrap();
        // EndOfMessage is illegal: only the close ends this body.
        let mut eom = conn.clone();
        assert_eq!(
            eom.receive(&Event::EndOfMessage).unwrap_err(),
            H1Error::CloseDelimitedEnd
        );
        // The close completes the message, then the connection.
        conn.receive(&Event::ConnectionClosed).unwrap();
        assert_eq!(conn.our_state(), State::Closed);
        assert_eq!(conn.cycles_completed(), 1);
        assert_eq!(conn.start_next_cycle().unwrap_err(), H1Error::NotKeptAlive);
    }

    #[test]
    fn no_length_no_close_header_is_still_close_delimited() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/p", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response {
            status: 200,
            headers: vec![],
        }))
        .unwrap();
        assert_eq!(conn.response_framing(), Framing::CloseDelimited);
        assert!(!conn.keep_alive());
    }

    #[test]
    fn body_overrun_and_short_body_are_errors() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response::with_content_length(100)))
            .unwrap();
        let mut over = conn.clone();
        assert!(matches!(
            over.receive(&Event::Data(101)).unwrap_err(),
            H1Error::BodyOverrun { extra: 1, .. }
        ));
        conn.receive(&Event::Data(40)).unwrap();
        assert_eq!(
            conn.receive(&Event::EndOfMessage).unwrap_err(),
            H1Error::ShortBody { remaining: 60 }
        );
    }

    #[test]
    fn close_truncating_a_content_length_body_is_an_error() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response::with_content_length(100)))
            .unwrap();
        conn.receive(&Event::Data(40)).unwrap();
        assert_eq!(
            conn.receive(&Event::ConnectionClosed).unwrap_err(),
            H1Error::ShortBody { remaining: 60 }
        );
    }

    #[test]
    fn head_requests_and_bodyless_statuses_have_no_body() {
        let mut conn = client();
        let mut head = Request::get("/a", "h");
        head.method = "HEAD".to_string();
        conn.send(&Event::Request(head)).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        // Even with a Content-Length header, a HEAD response carries
        // no body bytes.
        conn.receive(&Event::Response(Response::with_content_length(512)))
            .unwrap();
        assert_eq!(conn.response_framing(), Framing::NoBody);
        let mut with_data = conn.clone();
        assert!(matches!(
            with_data.receive(&Event::Data(1)).unwrap_err(),
            H1Error::BodyOverrun { .. }
        ));
        conn.receive(&Event::EndOfMessage).unwrap();
        assert_eq!(conn.cycles_completed(), 1);

        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response {
            status: 304,
            headers: vec![],
        }))
        .unwrap();
        assert_eq!(conn.response_framing(), Framing::NoBody);
        // 304 without a length is NOT close-delimited: keep-alive
        // survives.
        conn.receive(&Event::EndOfMessage).unwrap();
        assert!(conn.keep_alive());
        conn.start_next_cycle().unwrap();
    }

    #[test]
    fn connection_close_header_parks_the_connection() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        conn.receive(&Event::Response(Response {
            status: 200,
            headers: vec![
                ("content-length".to_string(), "8".to_string()),
                ("connection".to_string(), "close".to_string()),
            ],
        }))
        .unwrap();
        conn.receive(&Event::Data(8)).unwrap();
        conn.receive(&Event::EndOfMessage).unwrap();
        assert_eq!(conn.our_state(), State::MustClose);
        assert_eq!(conn.start_next_cycle().unwrap_err(), H1Error::NotKeptAlive);
        conn.receive(&Event::ConnectionClosed).unwrap();
        assert_eq!(conn.our_state(), State::Closed);
    }

    #[test]
    fn transfer_encoding_is_refused() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        let err = conn
            .receive(&Event::Response(Response {
                status: 200,
                headers: vec![("transfer-encoding".to_string(), "chunked".to_string())],
            }))
            .unwrap_err();
        assert_eq!(err, H1Error::UnsupportedTransferEncoding);
    }

    #[test]
    fn request_head_wire_bytes() {
        let mut conn = client();
        let wire = conn
            .send(&Event::Request(Request::get(
                "/img/r4-0.png",
                "static.site-000001.com",
            )))
            .unwrap()
            .unwrap();
        assert_eq!(
            wire,
            b"GET /img/r4-0.png HTTP/1.1\r\nhost: static.site-000001.com\r\n\r\n"
        );
        // Body/lifecycle events carry no head bytes.
        assert_eq!(conn.send(&Event::EndOfMessage).unwrap(), None);
    }

    #[test]
    fn borrowed_events_drive_the_machine_the_owned_ones_do() {
        let mut owned = client();
        let mut borrowed = client();
        for (target, len) in [("/img/r4-0.png", 1024u64), ("/js/app.js", 0), ("/last", 7)] {
            if owned.cycles_completed() > 0 {
                owned.start_next_cycle().unwrap();
                borrowed.start_next_cycle().unwrap();
            }
            let wire = owned
                .send(&Event::Request(Request::get(target, "static.example.com")))
                .unwrap()
                .unwrap()
                .to_vec();
            let head = RequestHead {
                method: "GET",
                target,
                headers: &[("host", "static.example.com")],
            };
            assert_eq!(
                borrowed.send_ref(EventRef::Request(head)).unwrap(),
                Some(&wire[..])
            );
            owned.send(&Event::EndOfMessage).unwrap();
            borrowed.send_ref(EventRef::<&str>::EndOfMessage).unwrap();
            let digits = len.to_string();
            owned
                .receive(&Event::Response(Response::with_content_length(len)))
                .unwrap();
            borrowed
                .receive_ref(EventRef::Response(ResponseHead {
                    status: 200,
                    headers: &[("content-length", digits.as_str())],
                }))
                .unwrap();
            assert_eq!(borrowed.response_framing(), owned.response_framing());
            if len > 0 {
                owned.receive(&Event::Data(len)).unwrap();
                borrowed.receive_ref(EventRef::<&str>::Data(len)).unwrap();
            }
            owned.receive(&Event::EndOfMessage).unwrap();
            borrowed
                .receive_ref(EventRef::<&str>::EndOfMessage)
                .unwrap();
            assert_eq!(borrowed.our_state(), owned.our_state());
        }
        assert_eq!(borrowed.cycles_completed(), 3);
        // The close-delimited head is the owned constructor's.
        assert_eq!(
            Event::Response(Response::close_delimited()).borrowed(),
            EventRef::Response(ResponseHead {
                status: 200,
                headers: &[("connection".to_string(), "close".to_string())],
            })
        );
        let close = ResponseHead::CLOSE_DELIMITED;
        assert_eq!(close.header("Connection"), Some("close"));
    }

    #[test]
    fn a_reset_connection_is_a_new_one() {
        let mut conn = client();
        one_get_cycle(&mut conn, 64);
        conn.receive(&Event::ConnectionClosed).unwrap();
        assert_eq!(conn.our_state(), State::Closed);
        conn.reset(Role::Client);
        assert_eq!(conn.our_state(), State::Idle);
        assert_eq!(conn.their_state(), State::Idle);
        assert!(conn.keep_alive());
        assert_eq!(conn.cycles_completed(), 0);
        one_get_cycle(&mut conn, 64);
        assert_eq!(conn.cycles_completed(), 1);
    }

    #[test]
    fn incomplete_cycle_cannot_be_recycled() {
        let mut conn = client();
        conn.send(&Event::Request(Request::get("/a", "h"))).unwrap();
        conn.send(&Event::EndOfMessage).unwrap();
        assert_eq!(
            conn.start_next_cycle().unwrap_err(),
            H1Error::CycleIncomplete
        );
    }
}
