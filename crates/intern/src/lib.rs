//! Hostname interning.
//!
//! A [`HostTable`] maps each distinct hostname to a dense [`HostId`]
//! exactly once; from then on equality is an integer compare and facts
//! about a name live in a `Vec` indexed by its id. The table only
//! grows, and it copies every name it interns. No crate of the
//! workspace interns through it: the connection pool, the resolver
//! cache and the crawl env's host-fact table all key by the refcounted
//! `DnsName` itself, which the world already holds. It remains for the
//! frozen benchmark harness, whose lookup probe names it.
//!
//! Determinism: ids are assigned in first-intern order, so a table is
//! a pure function of the sequence of names offered to it. No id ever
//! leaks into persisted output — there is no way back from an id to
//! its string — so differently-sharded runs (whose per-worker tables
//! intern in different orders) still produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use origin_netsim::hash::FxHashMap;

/// A dense, per-table identifier for an interned hostname.
///
/// Ids are only meaningful relative to the [`HostTable`] that minted
/// them; two tables intern independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// The id as a plain index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only intern table: hostname → [`HostId`].
#[derive(Debug, Default, Clone)]
pub struct HostTable {
    ids: FxHashMap<Box<str>, u32>,
}

impl HostTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (allocating only on first
    /// sight).
    pub fn intern(&mut self, name: &str) -> HostId {
        if let Some(&id) = self.ids.get(name) {
            return HostId(id);
        }
        let id = u32::try_from(self.ids.len()).expect("more than u32::MAX interned hostnames");
        self.ids.insert(name.into(), id);
        HostId(id)
    }

    /// The id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<HostId> {
        self.ids.get(name).map(|&id| HostId(id))
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = HostTable::new();
        let a = t.intern("www.example.com");
        let b = t.intern("cdn.example.com");
        let a2 = t.intern("www.example.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, HostId(0));
        assert_eq!(b, HostId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("www.example.com"), Some(a));
        assert_eq!(t.get("cdn.example.com"), Some(b));
    }

    #[test]
    fn get_does_not_insert() {
        let mut t = HostTable::new();
        assert_eq!(t.get("x.com"), None);
        let id = t.intern("x.com");
        assert_eq!(t.get("x.com"), Some(id));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_follow_first_intern_order() {
        let mut t1 = HostTable::new();
        let mut t2 = HostTable::new();
        for n in ["a.com", "b.com", "c.com"] {
            t1.intern(n);
        }
        for n in ["c.com", "a.com", "b.com"] {
            t2.intern(n);
        }
        // Same names, different order → different ids: an id means
        // something only to the table that minted it.
        assert_eq!(t1.get("c.com"), Some(HostId(2)));
        assert_eq!(t2.get("c.com"), Some(HostId(0)));
    }
}
