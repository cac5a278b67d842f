//! An insert-only set sized for what one page holds.

/// The first `N` distinct keys sit inline and are scanned linearly — a
/// page has a dozen hosts, ASes and connection addresses, where a scan
/// beats hashing and nothing is allocated. Keys past `N` spill to the
/// heap, so no page is too large.
pub(crate) struct SmallSet<T, const N: usize> {
    inline: [Option<T>; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + PartialEq, const N: usize> SmallSet<T, N> {
    pub(crate) fn new() -> Self {
        SmallSet {
            inline: [None; N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Add `key`; `true` when it was not yet present (the
    /// `HashSet::insert` contract).
    pub(crate) fn insert(&mut self, key: T) -> bool {
        if self.inline[..self.len].contains(&Some(key)) || self.spill.contains(&key) {
            return false;
        }
        if self.len < N {
            self.inline[self.len] = Some(key);
            self.len += 1;
        } else {
            self.spill.push(key);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_occurrences_inline_and_spilled() {
        let mut set: SmallSet<u32, 4> = SmallSet::new();
        let keys = [7, 7, 1, 2, 3, 1, 9, 9, 10, 7, 10, 2];
        let mut oracle = std::collections::HashSet::new();
        for k in keys {
            assert_eq!(set.insert(k), oracle.insert(k), "key {k}");
        }
        assert_eq!(set.len, 4);
        assert_eq!(set.spill, [9, 10]);
    }
}
