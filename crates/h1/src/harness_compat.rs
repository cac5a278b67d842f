//! The owned event forms the frozen benchmark harness's `h1_cycle`
//! probe names, re-exported at the crate root under their old paths.
//! They are a thin adapter: [`Connection::send`] and
//! [`Connection::receive`] lend an owned [`Event`] to the machine as
//! the [`EventRef`] workspace code builds directly.

use crate::{Connection, EventRef, H1Error, RequestHead, ResponseHead};

/// An owned request head.
pub struct Request {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
}

impl Request {
    /// A bodyless `GET` with a `host` header.
    pub fn get(target: &str, host: &str) -> Self {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: vec![("host".to_string(), host.to_string())],
        }
    }
}

/// An owned response head.
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
}

impl Response {
    /// A `200` response framed by `Content-Length: len`.
    pub fn with_content_length(len: u64) -> Self {
        Response {
            status: 200,
            headers: vec![("content-length".to_string(), len.to_string())],
        }
    }
}

/// An owned [`EventRef`].
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

/// The most header fields an owned head may carry.
const MAX_FIELDS: usize = 8;

impl Event {
    /// Call `f` with the event as the machine reads it, its header
    /// fields borrowed into a stack array.
    fn borrowed<R>(&self, f: impl FnOnce(EventRef<'_>) -> R) -> R {
        let mut fields = [("", ""); MAX_FIELDS];
        f(match self {
            Event::Request(req) => EventRef::Request(RequestHead {
                method: &req.method,
                target: &req.target,
                headers: lend(&req.headers, &mut fields),
            }),
            Event::Response(resp) => EventRef::Response(ResponseHead {
                status: resp.status,
                headers: lend(&resp.headers, &mut fields),
            }),
            Event::Data(n) => EventRef::Data(*n),
            Event::EndOfMessage => EventRef::EndOfMessage,
            Event::ConnectionClosed => EventRef::ConnectionClosed,
        })
    }
}

/// `headers` as `&str` pairs, in `fields`.
fn lend<'a>(
    headers: &'a [(String, String)],
    fields: &'a mut [(&'a str, &'a str); MAX_FIELDS],
) -> &'a [(&'a str, &'a str)] {
    assert!(headers.len() <= MAX_FIELDS, "more than {MAX_FIELDS} fields");
    for (slot, (name, value)) in fields.iter_mut().zip(headers) {
        *slot = (name, value);
    }
    &fields[..headers.len()]
}

impl Connection {
    /// [`Connection::send_ref`] for an owned event.
    pub fn send(&mut self, event: &Event) -> Result<Option<&[u8]>, H1Error> {
        event.borrowed(|e| self.send_ref(e))
    }

    /// [`Connection::receive_ref`] for an owned event.
    pub fn receive(&mut self, event: &Event) -> Result<(), H1Error> {
        event.borrowed(|e| self.receive_ref(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Role;

    /// Drive `owned` through `send`/`receive` and `borrowed` through
    /// `send_ref`/`receive_ref` with the same events, comparing what
    /// each step returns and the states, framing and cycle count after.
    fn lockstep(steps: &[(bool, Event, EventRef<'_>)]) -> (Connection, Connection) {
        let mut owned = Connection::new(Role::Client);
        let mut borrowed = Connection::new(Role::Client);
        for (i, (send, event, view)) in steps.iter().enumerate() {
            if *send {
                let a = owned.send(event).map(|w| w.map(<[u8]>::to_vec));
                let b = borrowed.send_ref(*view).map(|w| w.map(<[u8]>::to_vec));
                assert_eq!(a, b, "step {i}");
            } else {
                assert_eq!(
                    owned.receive(event),
                    borrowed.receive_ref(*view),
                    "step {i}"
                );
            }
            assert_eq!(owned.our_state(), borrowed.our_state(), "step {i}");
            assert_eq!(owned.their_state(), borrowed.their_state(), "step {i}");
            assert_eq!(owned.response_framing(), borrowed.response_framing());
            assert_eq!(owned.keep_alive(), borrowed.keep_alive());
            assert_eq!(owned.cycles_completed(), borrowed.cycles_completed());
        }
        (owned, borrowed)
    }

    #[test]
    fn owned_events_drive_the_machine_as_borrowed_ones_do() {
        let get = RequestHead {
            method: "GET",
            target: "/a.png",
            headers: &[("host", "site-000001.com")],
        };
        let (mut owned, mut borrowed) = lockstep(&[
            (
                true,
                Event::Request(Request::get("/a.png", "site-000001.com")),
                EventRef::Request(get),
            ),
            (true, Event::EndOfMessage, EventRef::EndOfMessage),
            (
                false,
                Event::Response(Response::with_content_length(1_024)),
                EventRef::Response(ResponseHead {
                    status: 200,
                    headers: &[("content-length", "1024")],
                }),
            ),
            (false, Event::Data(1_024), EventRef::Data(1_024)),
            (false, Event::EndOfMessage, EventRef::EndOfMessage),
        ]);
        assert_eq!(owned.cycles_completed(), 1);
        owned.start_next_cycle().unwrap();
        borrowed.start_next_cycle().unwrap();

        // A close-delimited cycle, on fresh machines.
        let close = Response {
            status: 200,
            headers: vec![("connection".to_string(), "close".to_string())],
        };
        let (owned, _) = lockstep(&[
            (
                true,
                Event::Request(Request::get("/a.png", "site-000001.com")),
                EventRef::Request(get),
            ),
            (true, Event::EndOfMessage, EventRef::EndOfMessage),
            (
                false,
                Event::Response(close),
                EventRef::Response(ResponseHead::CLOSE_DELIMITED),
            ),
            (false, Event::Data(4_096), EventRef::Data(4_096)),
            (false, Event::EndOfMessage, EventRef::EndOfMessage),
            (false, Event::ConnectionClosed, EventRef::ConnectionClosed),
        ]);
        assert_eq!(owned.cycles_completed(), 0);
    }
}
