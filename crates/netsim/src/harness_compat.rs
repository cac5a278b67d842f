//! Items kept only for the frozen benchmark harness under `benchmark/`,
//! which reaches them through the `origin-intern` shell. No workspace
//! crate names them: the connection pool, the resolver cache and the
//! crawl env's host-fact table all key by the refcounted `DnsName`
//! itself, which the world already holds.
//!
//! A [`HostTable`] maps each distinct hostname to a dense [`HostId`]
//! exactly once, in first-intern order, copying every name it interns.
//! An id means something only to the table that minted it.

use crate::hash::FxHashMap;

/// A dense, per-table identifier for an interned hostname.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostId(pub u32);

/// An append-only intern table: hostname → [`HostId`].
#[derive(Default)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_intern_order_and_get_does_not_insert() {
        let mut t1 = HostTable::new();
        let mut t2 = HostTable::new();
        assert_eq!(t1.get("a.com"), None);
        for n in ["a.com", "b.com", "c.com", "a.com"] {
            t1.intern(n);
        }
        for n in ["c.com", "a.com", "b.com"] {
            t2.intern(n);
        }
        assert_eq!(t1.get("a.com"), Some(HostId(0)));
        assert_eq!(t1.get("c.com"), Some(HostId(2)));
        assert_eq!(t1.get("d.com"), None);
        // Same names, different order → different ids.
        assert_eq!(t2.get("c.com"), Some(HostId(0)));
    }
}
