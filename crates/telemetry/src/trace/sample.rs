//! Deterministic 1-in-N site sampling for whole-run traces.

use origin_netsim::hash::fnv1a64;

/// Selects sites for whole-run trace export by hashing the site's
/// Tranco rank — never an RNG draw, whose order would depend on the
/// thread schedule. The same `--sample 1/N` therefore keeps the same
/// site set at any `--threads` and across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    denom: u32,
}

impl Sampler {
    /// Keep roughly 1 in `denom` sites. `denom == 0` is treated as 1
    /// (keep everything).
    pub fn new(denom: u32) -> Self {
        Self {
            denom: denom.max(1),
        }
    }

    /// Parse the CLI form `1/N` (also accepts a bare `N`), ignoring
    /// whitespace around the input and after the slash. `N` must be at
    /// least 1: "one in zero" reads as *none*, which is not something a
    /// sampler can mean.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let digits = match s.split_once('/') {
            Some(("1", d)) => d.trim_start(),
            Some(_) => return None,
            None => s,
        };
        let denom: u32 = digits.parse().ok()?;
        (denom > 0).then(|| Self::new(denom))
    }

    /// The sampling denominator.
    pub fn denom(&self) -> u32 {
        self.denom
    }

    /// Whether the site at Tranco `rank` is in the sample.
    pub fn keep(&self, rank: u32) -> bool {
        self.denom <= 1 || fnv1a64(&rank.to_le_bytes()) % u64::from(self.denom) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denom_one_keeps_everything() {
        let s = Sampler::new(1);
        assert!((1..200).all(|r| s.keep(r)));
        assert_eq!(Sampler::new(0), Sampler::new(1));
    }

    #[test]
    fn selection_is_stable_and_roughly_one_in_n() {
        let s = Sampler::new(16);
        let kept: Vec<u32> = (1..=4000).filter(|&r| s.keep(r)).collect();
        // Stable: a second sampler with the same denominator agrees.
        let again: Vec<u32> = (1..=4000).filter(|&r| Sampler::new(16).keep(r)).collect();
        assert_eq!(kept, again);
        // Pinned: committed traces were sampled with exactly this set.
        assert_eq!(kept[..5], [5, 21, 37, 53, 69]);
        // Roughly 1/16 of 4000 = 250; FNV is not perfectly uniform but
        // should land well within a factor of two.
        assert!(
            (125..=500).contains(&kept.len()),
            "kept {} of 4000",
            kept.len()
        );
    }

    #[test]
    fn parse_accepts_fraction_and_bare_forms() {
        assert_eq!(Sampler::parse("1/16"), Some(Sampler::new(16)));
        assert_eq!(Sampler::parse("8"), Some(Sampler::new(8)));
        for padded in [" 1/4", "1/ 4", "1/4 ", " 4 "] {
            assert_eq!(Sampler::parse(padded), Some(Sampler::new(4)), "{padded:?}");
        }
        assert_eq!(Sampler::parse("2/3"), None);
        assert_eq!(Sampler::parse("1/x"), None);
    }

    #[test]
    fn parse_rejects_a_zero_denominator() {
        // `new(0)` clamps to keep-everything; from the CLI that would
        // turn "none" into the most expensive run the flag can request.
        assert_eq!(Sampler::parse("1/0"), None);
        assert_eq!(Sampler::parse("0"), None);
        assert_eq!(Sampler::parse("1/1"), Some(Sampler::new(1)));
    }
}
