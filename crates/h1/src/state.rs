//! The role/state transition table.
//!
//! Each side of a connection tracks *two* role-local machines — its
//! own sending state and its model of the peer's — exactly as h11
//! does. The table below is the single source of truth: a
//! `(state, event)` pair either names the successor state or is
//! illegal, and [`transition`] returns `None` for illegal pairs so
//! the connection layer can surface a typed error instead of
//! limping on.

use std::fmt;

/// Which side of the connection a machine plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Sends requests, receives responses.
    Client,
    /// Receives requests, sends responses.
    Server,
}

impl Role {
    /// The opposite role.
    pub fn peer(self) -> Role {
        match self {
            Role::Client => Role::Server,
            Role::Server => Role::Client,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Client => "client",
            Role::Server => "server",
        })
    }
}

/// Role-local connection state, h11's vocabulary minus the upgrade
/// states (this universe never switches protocols mid-connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Between request/response cycles; a head may be sent.
    Idle,
    /// Head sent, body (if any) in flight.
    SendBody,
    /// This role's half of the cycle is complete.
    Done,
    /// Cycle complete but keep-alive is off: the only legal next
    /// step is closing.
    MustClose,
    /// Transport closed.
    Closed,
    /// A protocol violation was observed; the connection is dead.
    Error,
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            State::Idle => "idle",
            State::SendBody => "send-body",
            State::Done => "done",
            State::MustClose => "must-close",
            State::Closed => "closed",
            State::Error => "error",
        })
    }
}

/// The shape of an [`crate::EventRef`], for table lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request head ([`crate::EventRef::Request`]).
    RequestHead,
    /// A response head ([`crate::EventRef::Response`]).
    ResponseHead,
    /// Body bytes ([`crate::EventRef::Data`]).
    Data,
    /// End of the current message ([`crate::EventRef::EndOfMessage`]).
    EndOfMessage,
    /// Transport close ([`crate::EventRef::ConnectionClosed`]).
    ConnectionClosed,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventKind::RequestHead => "request",
            EventKind::ResponseHead => "response",
            EventKind::Data => "data",
            EventKind::EndOfMessage => "end-of-message",
            EventKind::ConnectionClosed => "connection-closed",
        })
    }
}

/// The transition table. `None` means the pair is illegal for that
/// role — e.g. a client sending a second `Request` from `Done`
/// (pipelining) or `Data` from `Idle` (body before head).
///
/// | role   | state     | event        | next      |
/// |--------|-----------|--------------|-----------|
/// | client | Idle      | RequestHead  | SendBody  |
/// | server | Idle      | ResponseHead | SendBody  |
/// | both   | SendBody  | Data         | SendBody  |
/// | both   | SendBody  | EndOfMessage | Done      |
/// | both   | Idle/Done/MustClose | ConnectionClosed | Closed |
/// | both   | anything else | —        | illegal   |
pub fn transition(role: Role, state: State, event: EventKind) -> Option<State> {
    match (role, state, event) {
        (Role::Client, State::Idle, EventKind::RequestHead) => Some(State::SendBody),
        (Role::Server, State::Idle, EventKind::ResponseHead) => Some(State::SendBody),
        (_, State::SendBody, EventKind::Data) => Some(State::SendBody),
        (_, State::SendBody, EventKind::EndOfMessage) => Some(State::Done),
        (_, State::Idle | State::Done | State::MustClose, EventKind::ConnectionClosed) => {
            Some(State::Closed)
        }
        // A close-delimited body is terminated *by* the close; the
        // connection layer synthesises the EndOfMessage, so the raw
        // pair is legal only for a sender in SendBody.
        (_, State::SendBody, EventKind::ConnectionClosed) => Some(State::Closed),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accepts_the_happy_cycle() {
        let s = transition(Role::Client, State::Idle, EventKind::RequestHead).unwrap();
        assert_eq!(s, State::SendBody);
        let s = transition(Role::Client, s, EventKind::EndOfMessage).unwrap();
        assert_eq!(s, State::Done);
        let s = transition(Role::Client, s, EventKind::ConnectionClosed).unwrap();
        assert_eq!(s, State::Closed);
    }

    #[test]
    fn table_rejects_role_confusion_and_reordering() {
        // A server never sends a request head; a client never sends
        // a response head.
        assert!(transition(Role::Server, State::Idle, EventKind::RequestHead).is_none());
        assert!(transition(Role::Client, State::Idle, EventKind::ResponseHead).is_none());
        // Body bytes before any head.
        assert!(transition(Role::Client, State::Idle, EventKind::Data).is_none());
        // End-of-message from idle.
        assert!(transition(Role::Server, State::Idle, EventKind::EndOfMessage).is_none());
        // Nothing leaves Closed or Error.
        for ev in [
            EventKind::RequestHead,
            EventKind::ResponseHead,
            EventKind::Data,
            EventKind::EndOfMessage,
            EventKind::ConnectionClosed,
        ] {
            assert!(transition(Role::Client, State::Closed, ev).is_none());
            assert!(transition(Role::Client, State::Error, ev).is_none());
        }
    }

    #[test]
    fn done_accepts_only_close() {
        // In particular RequestHead from Done is illegal: that is
        // pipelining, refused at the connection layer with its own
        // error before the table is even consulted.
        assert!(transition(Role::Client, State::Done, EventKind::RequestHead).is_none());
        assert!(transition(Role::Client, State::Done, EventKind::Data).is_none());
        assert_eq!(
            transition(Role::Client, State::Done, EventKind::ConnectionClosed),
            Some(State::Closed)
        );
    }
}
