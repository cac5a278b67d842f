//! An edge server terminating real `origin-h2` connections.
//!
//! The paper's deployment integrated "a custom connection-termination
//! process, with ORIGIN support, into the production environment".
//! [`EdgeServer`] is that process: it accepts sans-IO HTTP/2
//! connections, presents the per-customer certificate, advertises the
//! treatment's origin set on stream 0, serves configured authorities,
//! and answers `421 Misdirected Request` for anything else.

use crate::sample::{SampleSite, Treatment, CONTROL_DECOY_HOST, THIRD_PARTY_HOST};
use origin_h2::conn::{authority_of, ServerConfig};
use origin_h2::{Connection, Event, OriginSet, Settings};
use origin_netsim::{FaultProfile, SimRng};
use origin_tls::Certificate;

/// One edge process configured for a sample site's connection.
pub struct EdgeServer {
    /// The underlying protocol endpoint.
    pub conn: Connection,
    /// The certificate presented during the (modelled) TLS handshake:
    /// the site's own handle.
    pub cert: std::sync::Arc<Certificate>,
    /// Requests served so far.
    pub served: u64,
    /// 421 responses issued.
    pub misdirected: u64,
    /// The site's primary authority — never misdirected, even degraded.
    primary: String,
    /// Degraded-mode state: the injected profile and its dedicated RNG
    /// (`None` for a healthy edge).
    degraded: Option<(FaultProfile, SimRng)>,
}

impl EdgeServer {
    /// Configure an edge connection for `site`: the site's reissued
    /// certificate, an origin set matching the treatment (when
    /// `origin_frames` is on), and an authority list covering the
    /// site plus the third party (the §5.3 deployment serves the
    /// third party from the same process; the control decoy is
    /// *advertised but unreachable*, exercising fail-open behaviour).
    pub fn for_site(site: &SampleSite, origin_frames: bool) -> EdgeServer {
        let mut authorized = vec![site.host.to_string(), THIRD_PARTY_HOST.to_string()];
        // Wildcard shard coverage.
        authorized.push(format!("www.{}", site.host));
        let origin_set = origin_frames.then(|| {
            let extra = match site.treatment {
                Treatment::Experiment => THIRD_PARTY_HOST,
                Treatment::Control => CONTROL_DECOY_HOST,
            };
            OriginSet::from_hosts([site.host.as_str(), extra])
        });
        let conn = Connection::server(ServerConfig {
            settings: Settings::default(),
            origin_set,
            authorized,
        });
        EdgeServer {
            conn,
            cert: site.cert.clone(),
            served: 0,
            misdirected: 0,
            primary: site.host.to_string(),
            degraded: None,
        }
    }

    /// Put the edge into the degraded state the loader's 421 recovery
    /// exists for: routing inside the CDN has gone stale, so requests
    /// for *coalesced* (non-primary) authorities land on a process
    /// that answers `421 Misdirected Request` at the profile's
    /// per-authority skewed rate ([`FaultProfile::h421_for`]) even
    /// though the authority is nominally configured. The primary
    /// authority is always served — a client on a dedicated
    /// connection never sees the fault.
    pub fn degrade(&mut self, profile: FaultProfile, seed: u64) {
        self.degraded = Some((profile, SimRng::seed_from_u64(seed)));
    }

    /// Would this edge misdirect a request for `authority` right now?
    /// Draws from the degraded-mode RNG, so calls consume fate.
    fn misdirects(&mut self, authority: &str) -> bool {
        if authority.eq_ignore_ascii_case(&self.primary) {
            return false;
        }
        match &mut self.degraded {
            Some((profile, rng)) => rng.chance(profile.h421_for(authority)),
            None => false,
        }
    }

    /// Feed client bytes; serve any complete requests; return the
    /// protocol events observed.
    pub fn handle(&mut self, bytes: &[u8]) -> Result<Vec<Event>, origin_h2::H2Error> {
        let events = self.conn.recv(bytes)?;
        for ev in &events {
            if let Event::Headers {
                stream, headers, ..
            } = ev
            {
                match authority_of(headers) {
                    Some(authority) if self.conn.is_authorized(authority) => {
                        if self.misdirects(authority) {
                            self.conn.send_misdirected(*stream);
                            self.misdirected += 1;
                        } else {
                            self.conn.send_response(*stream, 200, b"{\"ok\":true}");
                            self.served += 1;
                        }
                    }
                    _ => {
                        self.conn.send_misdirected(*stream);
                        self.misdirected += 1;
                    }
                }
            }
        }
        Ok(events)
    }

    /// Drain bytes for the client.
    pub fn take_outgoing(&mut self) -> bytes::Bytes {
        self.conn.take_outgoing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleGroup;
    use origin_h2::conn::{request_headers, status_of};
    use origin_h2::Settings;
    use origin_netsim::SimRng;

    fn site(treatment: Treatment) -> SampleSite {
        let mut rng = SimRng::seed_from_u64(0xED6E);
        let g = SampleGroup::build(50, &mut rng);
        g.sites
            .into_iter()
            .find(|s| s.treatment == treatment)
            .expect("site")
    }

    /// Pump client and edge to quiescence.
    fn pump(client: &mut Connection, edge: &mut EdgeServer) -> Vec<Event> {
        let mut client_events = Vec::new();
        loop {
            let c_out = client.take_outgoing();
            let e_out = edge.take_outgoing();
            if c_out.is_empty() && e_out.is_empty() {
                break;
            }
            if !c_out.is_empty() {
                edge.handle(&c_out).expect("edge recv");
            }
            if !e_out.is_empty() {
                client_events.extend(client.recv(&e_out).expect("client recv"));
            }
        }
        client_events
    }

    #[test]
    fn experiment_edge_advertises_third_party_on_the_wire() {
        let s = site(Treatment::Experiment);
        let mut edge = EdgeServer::for_site(&s, true);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        let events = pump(&mut client, &mut edge);
        let origins = events
            .iter()
            .find_map(|e| match e {
                Event::OriginReceived { origins } => Some(origins.clone()),
                _ => None,
            })
            .expect("ORIGIN frame received");
        assert!(origins.contains(&format!("https://{THIRD_PARTY_HOST}")));
        assert!(client.origin_allows(THIRD_PARTY_HOST));
        // The client also checks the certificate before coalescing.
        assert!(edge.cert.covers(&origin_dns::name::name(THIRD_PARTY_HOST)));
    }

    #[test]
    fn control_edge_advertises_decoy_only() {
        let s = site(Treatment::Control);
        let mut edge = EdgeServer::for_site(&s, true);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        pump(&mut client, &mut edge);
        assert!(!client.origin_allows(THIRD_PARTY_HOST));
        assert!(client.origin_allows(CONTROL_DECOY_HOST));
    }

    #[test]
    fn coalesced_request_is_served_on_same_connection() {
        let s = site(Treatment::Experiment);
        let mut edge = EdgeServer::for_site(&s, true);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        pump(&mut client, &mut edge);
        // Root request, then a coalesced third-party request.
        client.send_request(&request_headers("GET", s.host.as_str(), "/"), true);
        client.send_request(
            &request_headers("GET", THIRD_PARTY_HOST, "/ajax/libs/x.js"),
            true,
        );
        let events = pump(&mut client, &mut edge);
        let statuses: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .collect();
        assert_eq!(statuses, vec![200, 200]);
        assert_eq!(edge.served, 2);
        assert_eq!(edge.misdirected, 0);
        assert_eq!(client.streams_opened(), 2);
    }

    #[test]
    fn unconfigured_authority_gets_421() {
        let s = site(Treatment::Control);
        let mut edge = EdgeServer::for_site(&s, true);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        pump(&mut client, &mut edge);
        // The decoy is advertised but not actually served: a client
        // that tried to use it gets 421 and must fail open.
        client.send_request(&request_headers("GET", CONTROL_DECOY_HOST, "/x"), true);
        let events = pump(&mut client, &mut edge);
        let status = events
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .expect("response");
        assert_eq!(status, 421);
        assert_eq!(edge.misdirected, 1);
    }

    #[test]
    fn degraded_edge_misdirects_coalesced_authorities_only() {
        let s = site(Treatment::Experiment);
        let mut edge = EdgeServer::for_site(&s, true);
        // h421=1 with the maximum skew still clamps to certainty: every
        // coalesced request misdirects, the primary never does.
        edge.degrade(FaultProfile::parse("h421=1").unwrap(), 0xDE6);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        pump(&mut client, &mut edge);
        client.send_request(&request_headers("GET", s.host.as_str(), "/"), true);
        client.send_request(&request_headers("GET", THIRD_PARTY_HOST, "/lib.js"), true);
        let events = pump(&mut client, &mut edge);
        let statuses: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .collect();
        assert_eq!(statuses, vec![200, 421]);
        assert_eq!((edge.served, edge.misdirected), (1, 1));
    }

    #[test]
    fn misdirected_client_replays_on_a_dedicated_connection() {
        // The full wire-level recovery the loader models: a coalesced
        // request draws 421 from a degraded edge, so the client evicts
        // the mapping, opens a dedicated connection to the authority's
        // own edge, and replays — same bytes, fresh stream, 200.
        let s = site(Treatment::Experiment);
        let mut edge = EdgeServer::for_site(&s, true);
        edge.degrade(FaultProfile::parse("h421=1").unwrap(), 0xDE6);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        pump(&mut client, &mut edge);
        let headers = request_headers("GET", THIRD_PARTY_HOST, "/ajax/libs/x.js");
        client.send_request(&headers, true);
        let events = pump(&mut client, &mut edge);
        let status = events
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .expect("421 response");
        assert_eq!(status, 421);

        // Recovery: a dedicated connection, authority as its primary.
        let mut dedicated_site = s.clone();
        dedicated_site.host = origin_dns::name::name(THIRD_PARTY_HOST);
        let mut dedicated = EdgeServer::for_site(&dedicated_site, true);
        // Even a degraded edge serves its own primary authority.
        dedicated.degrade(FaultProfile::parse("h421=1").unwrap(), 0xDE6);
        let mut retry = Connection::client(THIRD_PARTY_HOST, Settings::default());
        pump(&mut retry, &mut dedicated);
        retry.send_request(&headers, true);
        let events = pump(&mut retry, &mut dedicated);
        let status = events
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .expect("replay response");
        assert_eq!(status, 200);
        assert_eq!(dedicated.misdirected, 0);
    }

    #[test]
    fn pre_deployment_edge_sends_no_origin_frame() {
        let s = site(Treatment::Experiment);
        let mut edge = EdgeServer::for_site(&s, false);
        let mut client = Connection::client(s.host.as_str(), Settings::default());
        let events = pump(&mut client, &mut edge);
        assert!(!events
            .iter()
            .any(|e| matches!(e, Event::OriginReceived { .. })));
        assert_eq!(edge.conn.origin_frames, 0);
    }
}
