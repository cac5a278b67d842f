//! Address record sets and load-balancing rotation.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// How an authoritative server orders the address set in its answers.
/// The paper (§2.3) leans on the fact that "DNS operators have long
/// been able to return any or all addresses from a set" — rotation is
/// exactly what breaks Chromium's strict IP matching while Firefox's
/// transitive matching survives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// Always answer with the full set in registration order.
    Fixed,
    /// Rotate the starting offset on every answer (classic
    /// round-robin), returning the full set.
    RoundRobin,
}

/// The authoritative address data for one name: a set of IPs, a TTL,
/// and a rotation policy.
///
/// Immutable once built: round-robin state lives with each resolver
/// session, so one record set serves every session, and the address
/// set is a shared handle — names registered on the same addresses
/// hold one copy of them. 24 bytes: the zone holds one per name.
#[derive(Debug, Clone)]
pub struct RecordSet {
    addresses: Arc<[IpAddr]>,
    /// Time-to-live in seconds.
    pub ttl_secs: u32,
    /// Answer rotation policy.
    pub rotation: Rotation,
}

impl RecordSet {
    /// Create a record set over `addresses`, owned (`Vec`) or already
    /// shared with other names (`Arc<[IpAddr]>`). Panics on an empty
    /// address list — a name with no addresses should simply be absent
    /// from the zone.
    pub fn new(addresses: impl Into<Arc<[IpAddr]>>, ttl_secs: u32) -> Self {
        let addresses = addresses.into();
        assert!(
            !addresses.is_empty(),
            "record set must have at least one address"
        );
        RecordSet {
            addresses,
            ttl_secs,
            rotation: Rotation::Fixed,
        }
    }

    /// Single-address convenience constructor with a 300 s TTL.
    pub fn single(addr: IpAddr) -> Self {
        RecordSet::new([addr], 300)
    }

    /// Set the rotation policy.
    pub fn with_rotation(mut self, rotation: Rotation) -> Self {
        self.rotation = rotation;
        self
    }

    /// The full registered address set.
    pub fn addresses(&self) -> &[IpAddr] {
        &self.addresses
    }

    /// Produce one answer according to the rotation policy, with the
    /// round-robin serial held by the caller: each resolver session
    /// keeps its own, so many sessions share one read-only zone set.
    /// Only round-robin reads `serial`. A `Fixed` answer, and a
    /// round-robin one at offset zero, is the stored set itself.
    pub fn answer_shared(&self, serial: &mut u32) -> Arc<[IpAddr]> {
        match self.rotation {
            Rotation::Fixed => self.addresses.clone(),
            Rotation::RoundRobin => {
                let n = self.addresses.len();
                let start = (*serial as usize) % n;
                *serial = serial.wrapping_add(1);
                if start == 0 {
                    return self.addresses.clone();
                }
                (0..n).map(|i| self.addresses[(start + i) % n]).collect()
            }
        }
    }
}

/// Build an IPv4 address from an AS-scoped (net, host) pair; a helper
/// for generators that allocate address space per provider.
pub fn v4(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(a, b, c, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    /// Build an IPv6 address from four 16-bit groups.
    fn v6(a: u16, b: u16, c: u16, d: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(a, b, c, d, 0, 0, 0, 1))
    }

    #[test]
    fn fixed_answers_are_the_stored_set() {
        let rs = RecordSet::new(vec![v4(10, 0, 0, 1), v4(10, 0, 0, 2)], 60);
        let mut serial = 0;
        for _ in 0..2 {
            let a = rs.answer_shared(&mut serial);
            assert_eq!(a[..], [v4(10, 0, 0, 1), v4(10, 0, 0, 2)]);
            assert_eq!(a.as_ptr(), rs.addresses().as_ptr());
        }
        assert_eq!(serial, 0, "a fixed set ignores the serial");
    }

    #[test]
    fn round_robin_rotates_start() {
        let rs = RecordSet::new(vec![v4(1, 1, 1, 1), v4(2, 2, 2, 2), v4(3, 3, 3, 3)], 60)
            .with_rotation(Rotation::RoundRobin);
        let mut serial = 0;
        let mut answer = || rs.answer_shared(&mut serial);
        assert_eq!(answer()[0], v4(1, 1, 1, 1));
        assert_eq!(
            answer()[..],
            [v4(2, 2, 2, 2), v4(3, 3, 3, 3), v4(1, 1, 1, 1)]
        );
        assert_eq!(answer()[0], v4(3, 3, 3, 3));
        assert_eq!(answer().as_ptr(), rs.addresses().as_ptr());
        // Full set always present.
        assert_eq!(answer().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one address")]
    fn empty_set_panics() {
        RecordSet::new(Vec::<IpAddr>::new(), 60);
    }

    #[test]
    fn v6_helper() {
        let a = v6(0x2606, 0x4700, 0, 1);
        assert!(matches!(a, IpAddr::V6(_)));
    }
}
