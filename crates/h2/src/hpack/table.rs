//! The header-field tables of HPACK (RFC 7541 §2.3) and QPACK
//! (RFC 9204 §3), which is defined on top of it.
//!
//! Both codecs keep the same thing: a fixed static table, and a FIFO
//! dynamic table with size-based eviction where every entry costs
//! name + value + 32 octets. They differ only in how the wire names an
//! entry, so there is one [`DynamicTable`], stated in the more general
//! address space — *absolute* insertion indices, what QPACK puts on
//! the wire — with HPACK's most-recent-first *position* as a view of
//! it: `position = insert_count − 1 − absolute`. Live absolute indices
//! are always one contiguous range, so neither view renumbers anything
//! when entries shift.
//!
//! Both directions of every simulated connection search the tables per
//! request, so lookups are O(1): a [`StaticIndex`] hashes a static
//! table once (keeping the RFC's first-occurrence index), and the
//! dynamic table indexes its live entries by the 64-bit FNV-1a hash of
//! their name and of their (name, value) pair — integers, so neither an
//! insert nor an eviction copies a string into the index. Each entry
//! links to the next-older one under the same hash, a probe compares
//! the strings it finds, and a colliding hash costs a step along that
//! chain, never a wrong answer. [`find_indices`] answers a codec's two
//! questions — exact match, name-only match — in one probe as a
//! [`TableRef`]; each codec maps that to its own wire form.
//!
//! The table also keeps what it evicts: a dropped entry's two strings
//! are the next insert's, so a connection in steady state — and a
//! recycled one after [`DynamicTable::reset`] — inserts without
//! allocating ([`DynamicTable::insert_str`]).

use origin_netsim::hash::{fnv1a, fnv1a64};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::LazyLock;

/// The RFC 7541 Appendix A static table (1-indexed on the wire).
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// A header field as stored in the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Header name (lowercase).
    pub name: String,
    /// Header value.
    pub value: String,
}

impl Entry {
    /// Convenience constructor.
    pub fn new(name: &str, value: &str) -> Self {
        Entry {
            name: name.into(),
            value: value.into(),
        }
    }

    /// RFC 7541 §4.1 / RFC 9204 §3.2.1 size: name length + value
    /// length + 32 octets of bookkeeping overhead.
    pub fn size(&self) -> usize {
        self.name.len() + self.value.len() + 32
    }
}

/// Index key of a field name.
fn name_hash(name: &str) -> u64 {
    #[cfg(test)]
    if tests::COLLIDE.get() {
        return name.len() as u64 % 2;
    }
    fnv1a64(name.as_bytes())
}

/// Index key of a (name, value) pair: the name's hash carried on over
/// a separator no UTF-8 string contains, then the value.
fn pair_hash(name_hash: u64, value: &str) -> u64 {
    fnv1a(fnv1a(name_hash, &[0xff]), value.as_bytes())
}

/// Hasher for keys that are hashes already: folds the high half into
/// the low one (the map takes bucket bits from both ends).
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key ^ key.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash → absolute index of the most recent live entry under it.
type HashIndex = HashMap<u64, u64, BuildHasherDefault<PreHashed>>;

/// End of a hash chain: no absolute index is ever this large.
const NO_LINK: u64 = u64::MAX;

/// One live entry with its index keys and, under each key, the
/// absolute index of the next-older entry (possibly evicted since).
#[derive(Debug, Clone)]
struct Slot {
    entry: Entry,
    name_hash: u64,
    pair_hash: u64,
    older_name: u64,
    older_pair: u64,
}

/// The FIFO dynamic table with size-based eviction.
///
/// Invariant: each insertion gets the next absolute index; live
/// indices are always the contiguous range `[insert_count - len,
/// insert_count - 1]` (inserts mint at the top, eviction always
/// removes the smallest). The entry with absolute index `a` therefore
/// sits at most-recent-first position `insert_count - 1 - a`, which is
/// what lets the index answer both views without renumbering on every
/// insert/evict — and what ends a hash chain: a link below the live
/// range points at an evicted entry, and so does everything after it.
#[derive(Debug, Clone)]
pub struct DynamicTable {
    /// Most recent first.
    entries: VecDeque<Slot>,
    size: usize,
    max_size: usize,
    evictions: u64,
    insert_count: u64,
    by_name: HashIndex,
    by_pair: HashIndex,
    /// Entries dropped by eviction, [`clear`](Self::clear) or
    /// [`reset`](Self::reset), kept for their string capacity. Every
    /// one of them was live, and an insert takes from here first, so
    /// the pile never outgrows the table's fullest moment.
    spare: Vec<Entry>,
}

impl DynamicTable {
    /// New table with the given capacity (SETTINGS_HEADER_TABLE_SIZE /
    /// SETTINGS_QPACK_MAX_TABLE_CAPACITY).
    pub fn new(max_size: usize) -> Self {
        DynamicTable {
            entries: VecDeque::new(),
            size: 0,
            max_size,
            evictions: 0,
            insert_count: 0,
            by_name: HashIndex::default(),
            by_pair: HashIndex::default(),
            spare: Vec::new(),
        }
    }

    /// Back to [`new`](Self::new)`(max_size)` — empty, insert count and
    /// eviction count zero — keeping every allocation: what a recycled
    /// connection calls instead of building a table.
    pub fn reset(&mut self, max_size: usize) {
        self.clear();
        self.max_size = max_size;
        self.evictions = 0;
        self.insert_count = 0;
    }

    /// Total insertions over the table's lifetime (the QPACK Insert
    /// Count): the next absolute index to be minted.
    pub fn insert_count(&self) -> u64 {
        self.insert_count
    }

    /// Number of entries dropped over the table's lifetime, by
    /// size-based eviction or by [`clear`](Self::clear).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current occupied size in octets.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current capacity.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resize (dynamic table size update); evicts as needed.
    pub fn set_max_size(&mut self, max_size: usize) {
        self.max_size = max_size;
        self.evict();
    }

    /// Insert as the most recent entry and return its absolute index.
    /// An entry larger than the whole table is refused (`None`) and
    /// the table is left as it was; what follows is the codec's rule —
    /// HPACK empties the table (RFC 7541 §4.4, [`clear`](Self::clear)),
    /// QPACK sends the field as a literal.
    pub fn insert(&mut self, entry: Entry) -> Option<u64> {
        self.insert_str(&entry.name, &entry.value)
    }

    /// [`insert`](Self::insert) from borrowed strings: the copy lands
    /// in an entry this table dropped earlier when there is one.
    pub fn insert_str(&mut self, name: &str, value: &str) -> Option<u64> {
        let sz = name.len() + value.len() + 32;
        if sz > self.max_size {
            return None;
        }
        let mut entry = self.spare.pop().unwrap_or_else(|| Entry::new("", ""));
        entry.name.clear();
        entry.name.push_str(name);
        entry.value.clear();
        entry.value.push_str(value);
        let id = self.insert_count;
        self.insert_count += 1;
        let name_hash = name_hash(name);
        let pair_hash = pair_hash(name_hash, value);
        self.entries.push_front(Slot {
            entry,
            name_hash,
            pair_hash,
            older_name: self.by_name.insert(name_hash, id).unwrap_or(NO_LINK),
            older_pair: self.by_pair.insert(pair_hash, id).unwrap_or(NO_LINK),
        });
        self.size += sz;
        self.evict();
        Some(id)
    }

    /// Drop every entry, counting each as an eviction. Absolute
    /// indices are not reused: the next insert continues the count.
    pub fn clear(&mut self) {
        self.evictions += self.entries.len() as u64;
        self.spare
            .extend(self.entries.drain(..).map(|slot| slot.entry));
        self.size = 0;
        self.by_name.clear();
        self.by_pair.clear();
    }

    fn slot(&self, abs: u64) -> Option<&Slot> {
        let newest = self.insert_count.checked_sub(1)?;
        let pos = newest.checked_sub(abs)?;
        self.entries.get(usize::try_from(pos).ok()?)
    }

    /// Entry by absolute index (QPACK's view).
    pub fn get_absolute(&self, abs: u64) -> Option<&Entry> {
        self.slot(abs).map(|slot| &slot.entry)
    }

    /// Entry by position, 0 = most recent (HPACK's view).
    pub fn get(&self, position: usize) -> Option<&Entry> {
        self.entries.get(position).map(|slot| &slot.entry)
    }

    /// Position (HPACK's view) of the live entry with absolute index
    /// `abs`.
    pub fn position(&self, abs: u64) -> usize {
        (self.insert_count - 1 - abs) as usize
    }

    /// The most recent live entry on the chain from `head` that
    /// `matches`; `older` names the link the chain follows.
    fn newest_on_chain(
        &self,
        head: Option<&u64>,
        older: impl Fn(&Slot) -> u64,
        matches: impl Fn(&Entry) -> bool,
    ) -> Option<u64> {
        let mut abs = *head?;
        loop {
            let slot = self.slot(abs)?;
            if matches(&slot.entry) {
                return Some(abs);
            }
            abs = older(slot);
        }
    }

    /// Absolute index of the most recent exact (name, value) match.
    pub fn find(&self, name: &str, value: &str) -> Option<u64> {
        self.newest_on_chain(
            self.by_pair.get(&pair_hash(name_hash(name), value)),
            |slot| slot.older_pair,
            |e| e.name == name && e.value == value,
        )
    }

    /// Absolute index of the most recent name-only match.
    pub fn find_name(&self, name: &str) -> Option<u64> {
        self.newest_on_chain(
            self.by_name.get(&name_hash(name)),
            |slot| slot.older_name,
            |e| e.name == name,
        )
    }

    fn evict(&mut self) {
        while self.size > self.max_size {
            // The entry about to go is the oldest live one: under each
            // of its hashes the index names it only if nothing newer
            // shares the hash, and then the key goes with it.
            let id = self.insert_count - self.entries.len() as u64;
            let slot = self.entries.pop_back().expect("size>0 implies entries");
            self.size -= slot.entry.size();
            self.evictions += 1;
            if self.by_name.get(&slot.name_hash) == Some(&id) {
                self.by_name.remove(&slot.name_hash);
            }
            if self.by_pair.get(&slot.pair_hash) == Some(&id) {
                self.by_pair.remove(&slot.pair_hash);
            }
            self.spare.push(slot.entry);
        }
    }
}

/// Where [`find_indices`] found a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRef {
    /// Wire index into the static table (its base included).
    Static(usize),
    /// Absolute index into the dynamic table.
    Dynamic(u64),
}

/// Hash index over one static table: per name, the wire index of its
/// first occurrence — the RFCs' semantics for name-only references
/// (HPACK `:method` → 2, not 3) — and its distinct values in table
/// order, each with the wire index of its first occurrence. Wire
/// indices are table position + `base`.
pub struct StaticIndex {
    names: HashMap<&'static str, StaticName>,
}

struct StaticName {
    first: usize,
    values: Vec<(&'static str, usize)>,
}

impl StaticIndex {
    /// Index `table`, whose first entry has wire index `base` (1 for
    /// RFC 7541 Appendix A, 0 for RFC 9204 Appendix A).
    pub fn new(table: &'static [(&'static str, &'static str)], base: usize) -> Self {
        let mut names: HashMap<&'static str, StaticName> = HashMap::new();
        for (i, (n, v)) in table.iter().enumerate() {
            let name = names.entry(*n).or_insert(StaticName {
                first: i + base,
                values: Vec::new(),
            });
            if !name.values.iter().any(|&(val, _)| val == *v) {
                name.values.push((*v, i + base));
            }
        }
        StaticIndex { names }
    }
}

/// The exact-match and the name-only reference for one field, resolved
/// together — an encoder needs both on every literal path and never
/// walks a table twice for them. Static entries are preferred, then
/// the most recent dynamic one.
pub fn find_indices(
    statics: &StaticIndex,
    dynamic: &DynamicTable,
    name: &str,
    value: &str,
) -> (Option<TableRef>, Option<TableRef>) {
    let in_static = statics.names.get(name);
    let exact = in_static
        .and_then(|n| n.values.iter().find(|&&(v, _)| v == value))
        .map(|&(_, i)| TableRef::Static(i))
        .or_else(|| dynamic.find(name, value).map(TableRef::Dynamic));
    let by_name = in_static
        .map(|n| TableRef::Static(n.first))
        .or_else(|| dynamic.find_name(name).map(TableRef::Dynamic));
    (exact, by_name)
}

// ---- HPACK's own address space: Appendix A above, 1-based, the
// dynamic table following the static one by position ----

/// The index over [`STATIC_TABLE`] (1-based on the wire), built once.
pub static STATIC_INDEX: LazyLock<StaticIndex> =
    LazyLock::new(|| StaticIndex::new(&STATIC_TABLE, 1));

/// Resolve an HPACK wire index (1-based, static-then-dynamic address
/// space) to a header entry.
pub fn lookup(dynamic: &DynamicTable, index: usize) -> Option<Entry> {
    if index == 0 {
        return None;
    }
    if index <= STATIC_TABLE.len() {
        let (n, v) = STATIC_TABLE[index - 1];
        return Some(Entry::new(n, v));
    }
    dynamic.get(index - STATIC_TABLE.len() - 1).cloned()
}

/// The HPACK wire index of a [`find_indices`] answer: static indices
/// as they are, dynamic entries by position after the static table.
pub fn wire_index(dynamic: &DynamicTable, r: TableRef) -> usize {
    match r {
        TableRef::Static(i) => i,
        TableRef::Dynamic(abs) => STATIC_TABLE.len() + 1 + dynamic.position(abs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Makes [`name_hash`] — and so every pair hash built on it —
        /// collide for the calling test.
        pub(super) static COLLIDE: Cell<bool> = const { Cell::new(false) };
    }

    fn e(name: &str, value: &str) -> Entry {
        Entry::new(name, value)
    }

    #[test]
    fn colliding_hashes_cost_a_chain_step_never_a_wrong_answer() {
        // Two name hashes in all, and values that FNV carries on from
        // them: different names and different pairs share chains.
        COLLIDE.set(true);
        let names = ["ab", "cd", "x-a", "x-b", "ef"];
        let mut t = DynamicTable::new(3 * 36);
        for i in 0..200usize {
            let (name, value) = (names[i * 7 % 5], (i * 3 % 4).to_string());
            t.insert_str(name, &value);
            if i % 41 == 40 {
                t.clear();
            }
            // The oracle: a scan of the live entries, newest first.
            let scan = |name: &str, value: Option<&str>| {
                (0..t.len())
                    .find(|&p| {
                        let e = t.get(p).unwrap();
                        e.name == name && value.is_none_or(|v| e.value == v)
                    })
                    .map(|p| t.insert_count() - 1 - p as u64)
            };
            for name in names {
                assert_eq!(t.find_name(name), scan(name, None), "{name} after {i}");
                for value in ["0", "1", "2", "3", "4"] {
                    assert_eq!(t.find(name, value), scan(name, Some(value)));
                }
            }
        }
        assert!(t.evictions() > 150);
    }

    #[test]
    fn reset_keeps_capacity_and_nothing_else() {
        let mut t = DynamicTable::new(4096);
        for i in 0..40 {
            t.insert_str("x-name", &format!("value-{i}"));
        }
        t.reset(102);
        assert_eq!((t.len(), t.size(), t.max_size()), (0, 0, 102));
        assert_eq!((t.insert_count(), t.evictions()), (0, 0));
        assert_eq!(find(&t, "x-name", "value-3"), (None, None));
        // The next connection's first insert is absolute index 0 again
        // and lands in strings the last one left behind.
        let spare = t.spare.len();
        assert_eq!(t.insert_str("x-name", "value-3"), Some(0));
        assert_eq!(t.spare.len(), spare - 1);
        assert_eq!(t.get_absolute(0), Some(&e("x-name", "value-3")));
    }

    /// `find_indices` against HPACK's static index, as wire indices.
    fn find(t: &DynamicTable, name: &str, value: &str) -> (Option<usize>, Option<usize>) {
        let (exact, by_name) = find_indices(&STATIC_INDEX, t, name, value);
        (
            exact.map(|r| wire_index(t, r)),
            by_name.map(|r| wire_index(t, r)),
        )
    }

    #[test]
    fn static_table_spot_checks() {
        assert_eq!(STATIC_TABLE[0], (":authority", ""));
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[6], (":scheme", "https"));
        assert_eq!(STATIC_TABLE[7], (":status", "200"));
        assert_eq!(STATIC_TABLE[60], ("www-authenticate", ""));
        assert_eq!(STATIC_TABLE.len(), 61);
    }

    #[test]
    fn entry_size_includes_overhead() {
        assert_eq!(e("ab", "cde").size(), 2 + 3 + 32);
    }

    #[test]
    fn insert_and_index_order() {
        let mut t = DynamicTable::new(4096);
        assert_eq!(t.insert(e("a", "1")), Some(0));
        assert_eq!(t.insert(e("b", "2")), Some(1));
        // Most recent first by position; insertion order by absolute
        // index — two views of the same two entries.
        assert_eq!(t.get(0).unwrap().name, "b");
        assert_eq!(t.get(1).unwrap().name, "a");
        assert_eq!(t.get_absolute(0).unwrap().name, "a");
        assert_eq!(t.get_absolute(1).unwrap().name, "b");
        assert_eq!((t.position(0), t.position(1)), (1, 0));
        assert_eq!(t.get_absolute(2), None);
        assert_eq!((t.len(), t.insert_count()), (2, 2));
    }

    #[test]
    fn eviction_on_overflow() {
        // Each entry is 34 octets; cap to fit exactly two.
        let mut t = DynamicTable::new(68);
        t.insert(e("a", "1"));
        t.insert(e("b", "2"));
        t.insert(e("c", "3"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).unwrap().name, "c");
        assert_eq!(t.get(1).unwrap().name, "b");
        assert_eq!(t.get_absolute(0), None);
        assert!(t.size() <= 68);
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn oversized_entry_is_refused_and_clear_counts_what_it_drops() {
        let mut t = DynamicTable::new(40);
        assert_eq!(t.insert(e("a", "1")), Some(0));
        // Refused: no index minted, nothing evicted.
        assert_eq!(t.insert(e("name-way-too-long", "value-way-too-long")), None);
        assert_eq!((t.len(), t.insert_count(), t.evictions()), (1, 1, 0));
        // RFC 7541 §4.4 is the HPACK codec calling clear() at this
        // point; the absolute count carries on afterwards.
        t.clear();
        assert!(t.is_empty());
        assert_eq!((t.size(), t.evictions()), (0, 1));
        assert_eq!(find(&t, "a", "1"), (None, None));
        assert_eq!(t.insert(e("b", "2")), Some(1));
    }

    #[test]
    fn resize_evicts() {
        let mut t = DynamicTable::new(4096);
        t.insert(e("a", "1"));
        t.insert(e("b", "2"));
        t.set_max_size(34);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).unwrap().name, "b");
    }

    #[test]
    fn wire_index_lookup() {
        let mut t = DynamicTable::new(4096);
        assert_eq!(lookup(&t, 0), None);
        assert_eq!(lookup(&t, 2).unwrap(), e(":method", "GET"));
        assert_eq!(lookup(&t, 61).unwrap(), e("www-authenticate", ""));
        assert_eq!(lookup(&t, 62), None);
        t.insert(e("x-custom", "v"));
        assert_eq!(lookup(&t, 62).unwrap(), e("x-custom", "v"));
        assert_eq!(lookup(&t, 63), None);
    }

    #[test]
    fn lookups_prefer_the_static_table() {
        let mut t = DynamicTable::new(4096);
        assert_eq!(find(&t, ":method", "GET"), (Some(2), Some(2)));
        assert_eq!(find(&t, ":method", "PUT"), (None, Some(2)));
        assert_eq!(find(&t, "cookie", "s=1"), (None, Some(32)));
        // A dynamic entry shadowing a static name is found for the
        // exact pair only; the name reference stays static.
        t.insert(e(":method", "PUT"));
        assert_eq!(find(&t, ":method", "PUT"), (Some(62), Some(2)));
    }

    #[test]
    fn lookups_fall_back_to_the_dynamic_table() {
        let mut t = DynamicTable::new(4096);
        t.insert(e("x-a", "1"));
        t.insert(e("x-b", "2"));
        assert_eq!(find(&t, "x-b", "2"), (Some(62), Some(62)));
        assert_eq!(find(&t, "x-a", "1"), (Some(63), Some(63)));
        assert_eq!(find(&t, "x-a", "2"), (None, Some(63)));
        assert_eq!(find(&t, "nope", "v"), (None, None));
    }
}
