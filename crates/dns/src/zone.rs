//! Authoritative zones.

use crate::name::DnsName;
use crate::record::{RecordSet, Rotation};
use origin_netsim::hash::FxHashMap;
use origin_netsim::SimRng;
use std::net::IpAddr;
use std::sync::Arc;

/// "The DNS": one global authoritative view mapping names (exact or
/// wildcard) to address record sets, which is all the reproduction
/// needs (delegation chasing adds latency realism but no coalescing
/// behaviour).
///
/// Both maps use the deterministic Fx hasher: zone lookups run on
/// every resolver cache miss (the crawler flushes caches per page),
/// and no output observes map iteration order (nothing iterates them).
#[derive(Debug, Clone, Default)]
pub struct ZoneSet {
    exact: FxHashMap<DnsName, RecordSet>,
    /// Wildcard entries keyed by the parent domain the `*` covers
    /// (`*.example.com` is stored under `example.com`).
    wildcard: FxHashMap<DnsName, RecordSet>,
}

impl ZoneSet {
    /// New empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a record set for `name`. A wildcard name
    /// (`*.example.com`) covers all direct and nested subdomains of
    /// its parent, with exact entries taking precedence — matching the
    /// way operators use wildcard A records.
    pub fn insert(&mut self, name: DnsName, records: RecordSet) {
        if name.is_wildcard() {
            let parent = name.parent().expect("wildcard has a parent");
            self.wildcard.insert(parent, records);
        } else {
            self.exact.insert(name, records);
        }
    }

    /// Number of registered entries (exact + wildcard).
    pub fn len(&self) -> usize {
        self.exact.len() + self.wildcard.len()
    }

    /// True when the set has no entries.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.wildcard.is_empty()
    }

    /// Answer a query, applying the record set's rotation policy with
    /// the round-robin serials held externally in `serials`: the set
    /// itself is read-only, and each resolver session keeps its own
    /// overlay, so many sessions can share one zone set across threads.
    /// Only round-robin sets get an overlay entry. Returns `None` when
    /// no entry covers the name (NXDOMAIN).
    pub fn resolve_shared(
        &self,
        name: &DnsName,
        serials: &mut FxHashMap<SerialKey, u32>,
        rng: &mut SimRng,
    ) -> Option<Answer> {
        let (key, rs, wildcard) = self.lookup(name)?;
        let mut unread = 0;
        let serial = match rs.rotation {
            Rotation::RoundRobin => serials.entry((key.clone(), wildcard)).or_insert(0),
            Rotation::Fixed | Rotation::RandomSubset(_) => &mut unread,
        };
        Some(Answer {
            addresses: rs.answer_shared(serial, rng),
            ttl_secs: rs.ttl_secs,
        })
    }

    /// The entry covering `name`: its map key, its record set and
    /// whether it is a wildcard (exact entries take precedence). The
    /// walk probes borrowed suffixes of the name — no allocation per
    /// level.
    fn lookup(&self, name: &DnsName) -> Option<(&DnsName, &RecordSet, bool)> {
        if let Some((key, rs)) = self.exact.get_key_value(name) {
            return Some((key, rs, false));
        }
        let mut cursor = name.parent_str();
        while let Some(parent) = cursor {
            if let Some((key, rs)) = self.wildcard.get_key_value(parent) {
                return Some((key, rs, true));
            }
            cursor = parent.split_once('.').map(|(_, rest)| rest);
        }
        None
    }

    /// Read-only view of the registered address set for a name
    /// (exact entries only; no rotation applied).
    pub fn registered(&self, name: &DnsName) -> Option<&[IpAddr]> {
        self.exact.get(name).map(|rs| rs.addresses())
    }
}

/// Key identifying one record set in a zone for external rotation
/// state: the matched map key plus whether it was a wildcard entry
/// (an exact `example.com` and a `*.example.com` wildcard share the
/// map key but are distinct record sets).
pub type SerialKey = (DnsName, bool);

/// A resolved answer: the address set and its TTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Addresses in answer order: the registered set's own handle
    /// unless rotation reordered or subset it.
    pub addresses: Arc<[IpAddr]>,
    /// Time-to-live in seconds.
    pub ttl_secs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::record::v4;

    /// One query from a fresh session.
    fn resolve(z: &ZoneSet, host: &str) -> Option<Answer> {
        z.resolve_shared(
            &name(host),
            &mut FxHashMap::default(),
            &mut SimRng::seed_from_u64(1),
        )
    }

    #[test]
    fn exact_lookup() {
        let mut z = ZoneSet::new();
        z.insert(name("www.example.com"), RecordSet::single(v4(10, 0, 0, 1)));
        let a = resolve(&z, "www.example.com").unwrap();
        assert_eq!(a.addresses[..], [v4(10, 0, 0, 1)]);
        assert!(resolve(&z, "other.example.com").is_none());
    }

    #[test]
    fn wildcard_covers_subdomains() {
        let mut z = ZoneSet::new();
        z.insert(
            name("*.cdn.example.com"),
            RecordSet::single(v4(10, 0, 0, 9)),
        );
        assert!(resolve(&z, "a.cdn.example.com").is_some());
        assert!(resolve(&z, "x.y.cdn.example.com").is_some());
        // The parent itself is not covered by the wildcard.
        assert!(resolve(&z, "cdn.example.com").is_none());
    }

    #[test]
    fn exact_beats_wildcard() {
        let mut z = ZoneSet::new();
        z.insert(name("*.example.com"), RecordSet::single(v4(1, 1, 1, 1)));
        z.insert(name("www.example.com"), RecordSet::single(v4(2, 2, 2, 2)));
        let a = resolve(&z, "www.example.com").unwrap();
        assert_eq!(a.addresses[..], [v4(2, 2, 2, 2)]);
    }

    #[test]
    fn ttl_propagates() {
        let mut z = ZoneSet::new();
        z.insert(name("x.com"), RecordSet::new(vec![v4(1, 2, 3, 4)], 42));
        assert_eq!(resolve(&z, "x.com").unwrap().ttl_secs, 42);
    }

    /// Round-robin sets rotate per session, keyed apart for an exact
    /// name and a wildcard on the same parent; no other set takes a
    /// serial, and a fixed answer is the registered set's own handle.
    #[test]
    fn only_round_robin_sets_take_a_serial() {
        let mut z = ZoneSet::new();
        let pair = vec![v4(1, 1, 1, 1), v4(2, 2, 2, 2)];
        let rr =
            |addrs: &Vec<_>| RecordSet::new(addrs.clone(), 60).with_rotation(Rotation::RoundRobin);
        z.insert(name("rr.com"), rr(&pair));
        z.insert(name("*.rr.com"), rr(&pair));
        z.insert(name("fixed.com"), RecordSet::new(pair.clone(), 60));
        let (mut serials, mut rng) = (FxHashMap::default(), SimRng::seed_from_u64(1));
        let mut first = |host: &str| {
            let a = z
                .resolve_shared(&name(host), &mut serials, &mut rng)
                .unwrap();
            a.addresses[0]
        };
        assert_eq!(first("fixed.com"), v4(1, 1, 1, 1));
        assert_eq!(first("fixed.com"), v4(1, 1, 1, 1));
        assert_eq!(first("rr.com"), v4(1, 1, 1, 1));
        assert_eq!(first("a.rr.com"), v4(1, 1, 1, 1));
        assert_eq!(first("b.rr.com"), v4(2, 2, 2, 2));
        assert_eq!(first("rr.com"), v4(2, 2, 2, 2));
        let mut keys: Vec<_> = serials.into_iter().collect();
        keys.sort();
        assert_eq!(
            keys,
            [((name("rr.com"), false), 2), ((name("rr.com"), true), 2)]
        );
        let fixed = resolve(&z, "fixed.com").unwrap();
        assert_eq!(
            fixed.addresses.as_ptr(),
            z.registered(&name("fixed.com")).unwrap().as_ptr()
        );
    }

    #[test]
    fn len_counts_exact_and_wildcard_entries() {
        let mut zs = ZoneSet::new();
        assert!(zs.is_empty());
        zs.insert(name("a.com"), RecordSet::single(v4(5, 5, 5, 5)));
        zs.insert(name("*.a.com"), RecordSet::single(v4(6, 6, 6, 6)));
        assert_eq!(zs.len(), 2);
        assert_eq!(zs.registered(&name("a.com")).unwrap(), &[v4(5, 5, 5, 5)]);
        assert!(zs.registered(&name("b.a.com")).is_none());
    }
}
