//! The owning resolver the frozen benchmark harness's `dns_resolve`
//! probe names, re-exported at the crate root under its old path. It
//! is a thin adapter over [`ResolverState`]; workspace code holds a
//! `ResolverState` and passes the zones at each query.

use crate::{DnsName, QueryAnswer, ResolverState, ZoneSet};
use origin_netsim::{SimRng, SimTime};

/// The transport argument of [`Resolver::new`]. Sessions resolve over
/// plaintext port 53 only.
pub enum Transport {
    /// Cleartext DNS over UDP/TCP port 53.
    Udp53,
}

/// A [`ResolverState`] that owns its [`ZoneSet`] and passes no tracer.
pub struct Resolver {
    zones: ZoneSet,
    state: ResolverState,
}

impl Resolver {
    /// A cold session over `zones`.
    pub fn new(zones: ZoneSet, _transport: Transport) -> Self {
        Resolver {
            zones,
            state: ResolverState::new(),
        }
    }

    /// [`ResolverState::resolve`] against the owned zones.
    pub fn resolve(
        &mut self,
        name: &DnsName,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<QueryAnswer> {
        self.state.resolve(&self.zones, name, now, rng, None)
    }

    /// [`ResolverState::flush_cache`].
    pub fn flush_cache(&mut self) {
        self.state.flush_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::record::{v4, RecordSet, Rotation};

    #[test]
    fn the_owning_resolver_answers_as_a_session_over_the_same_zones() {
        let mut zones = ZoneSet::new();
        let names: Vec<_> = (0..24u8)
            .map(|i| name(&format!("h{i}.zone{}.example", i % 5)))
            .collect();
        for (i, n) in names.iter().enumerate() {
            let ips = vec![v4(10, 1, i as u8, 1), v4(10, 1, i as u8, 2)];
            let rotation = if i % 3 == 0 {
                Rotation::RoundRobin
            } else {
                Rotation::Fixed
            };
            zones.insert(
                n.clone(),
                RecordSet::new(ips, 30 + i as u32).with_rotation(rotation),
            );
        }
        let mut owning = Resolver::new(zones.clone(), Transport::Udp53);
        let mut session = ResolverState::new();
        let (mut rng_a, mut rng_b) = (SimRng::seed_from_u64(0xD115), SimRng::seed_from_u64(0xD115));
        let missing = name("missing.example");
        for round in 0..4u64 {
            if round == 2 {
                owning.flush_cache();
                session.flush_cache();
            }
            let now = SimTime::from_secs(20 * round);
            for n in names.iter().chain([&missing]) {
                let a = owning.resolve(n, now, &mut rng_a);
                let b = session.resolve(&zones, n, now, &mut rng_b, None);
                assert_eq!(a, b, "{n} in round {round}");
            }
        }
        assert_eq!(owning.state.stats(), session.stats());
        assert!(session.stats().cache_hits > 0 && session.stats().nxdomain == 4);
    }
}
