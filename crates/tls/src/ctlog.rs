//! Certificate Transparency logging (§6.4).
//!
//! The paper argues that the one-time burst of certificate reissues
//! its plan implies (modifying 37.59% of website certificates) adds
//! 5–10% to daily CA issuance and is absorbable by CT infrastructure
//! (global rate ≈257,034 certs/hour). That argument reads only how
//! many certificates each log operator receives, so a log here is its
//! operator's append-only entry count: the load is kept, the entries
//! are not.

use crate::cert::Certificate;

/// One append-only CT log run by some operator, held as its entry
/// count.
#[derive(Debug, Clone)]
pub struct CtLog {
    /// Operator display name (e.g. "Google Argon", "Cloudflare Nimbus").
    pub operator: String,
    entries: u64,
}

impl CtLog {
    /// New empty log.
    pub fn new(operator: &str) -> Self {
        CtLog {
            operator: operator.to_string(),
            entries: 0,
        }
    }

    /// Append a certificate and return its log index. CT logs are
    /// append-only; there is no removal API at all.
    pub fn append(&mut self, _cert: &Certificate) -> u64 {
        self.entries += 1;
        self.entries - 1
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The set of CT logs a CA submits to. Real CAs submit each
/// certificate to multiple logs run by different operators; the
/// paper's §6.4 observation is that load distributes unevenly across
/// a few large operators.
#[derive(Debug, Clone)]
pub struct CtLogSet {
    logs: Vec<CtLog>,
}

/// Global certificate issuance rate the paper quotes (§6.4), in
/// certificates per hour.
pub const GLOBAL_ISSUANCE_PER_HOUR: u64 = 257_034;

impl CtLogSet {
    /// A log set with the operators the paper names as carrying most
    /// of the load (Cloudflare and Google) plus a smaller third.
    pub fn default_operators() -> Self {
        CtLogSet {
            logs: vec![
                CtLog::new("Google Argon"),
                CtLog::new("Cloudflare Nimbus"),
                CtLog::new("DigiCert Yeti"),
            ],
        }
    }

    /// Build from explicit logs.
    pub fn new(logs: Vec<CtLog>) -> Self {
        assert!(!logs.is_empty(), "a CA must submit to at least one log");
        CtLogSet { logs }
    }

    /// Submit a certificate to every log in the set (real CAs submit
    /// to several logs to gather enough SCTs).
    pub fn submit(&mut self, cert: &Certificate) {
        for l in &mut self.logs {
            l.append(cert);
        }
    }

    /// Total entries across all logs.
    pub fn total_entries(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }

    /// Per-operator entry counts.
    pub fn per_operator(&self) -> Vec<(&str, u64)> {
        self.logs
            .iter()
            .map(|l| (l.operator.as_str(), l.len() as u64))
            .collect()
    }

    /// The §6.4 feasibility check: a one-time burst of `burst` reissued
    /// certificates expressed as a fraction of the global hourly
    /// issuance rate. The paper's position is that values around or
    /// below ~1 hour of global issuance (≈257K) "would not adversely
    /// affect CT log infrastructure".
    pub fn burst_as_hours_of_global_issuance(burst: u64) -> f64 {
        burst as f64 / GLOBAL_ISSUANCE_PER_HOUR as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateBuilder;
    use origin_dns::name::name;

    fn cert(serial: u64) -> Certificate {
        CertificateBuilder::new(name("a.com"))
            .serial(serial)
            .build()
    }

    #[test]
    fn append_only_indexing() {
        let mut log = CtLog::new("Test Log");
        assert!(log.is_empty());
        assert_eq!(log.append(&cert(10)), 0);
        assert_eq!(log.append(&cert(11)), 1);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn set_submits_to_all_operators() {
        let mut set = CtLogSet::default_operators();
        set.submit(&cert(1));
        assert_eq!(set.total_entries(), 3);
        for (_, n) in set.per_operator() {
            assert_eq!(n, 1);
        }
    }

    #[test]
    fn burst_feasibility_math() {
        // The paper's 5000-cert experiment is a rounding error.
        let h = CtLogSet::burst_as_hours_of_global_issuance(5_000);
        assert!(h < 0.02);
        // Modifying 120,103 certificates (37.59% of the dataset) is
        // under half an hour of global issuance.
        let h = CtLogSet::burst_as_hours_of_global_issuance(120_103);
        assert!(h < 0.5, "h={h}");
    }

    #[test]
    #[should_panic(expected = "at least one log")]
    fn empty_set_panics() {
        CtLogSet::new(vec![]);
    }
}
