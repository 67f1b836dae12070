//! The local store held by one participant.
//!
//! Each node keeps the slices of the three distributed structures
//! (coordinator records, index pages, tuple data) whose ring positions
//! fall in its ranges — plus replicas of its neighbours' slices.  In the
//! paper this state lives in BerkeleyDB.  Here every item a relation
//! publishes is stored once, in one of the relation's logs
//! ([`crate::version_log`]), under a number, its *slot*; a node holds
//! three [`SlotSet`]s per relation, one per [`Kind`], with a bit set for
//! each item it holds.  So "does this node hold the record, page or
//! version a lookup names?" is one bit test and the item one index into
//! the log — the access pattern of the paper's "single pass through the
//! hash ID range" of a page without a search per tuple.
//!
//! ## Bits, never bodies
//!
//! Everything published is immutable — a coordinator record, a page
//! version and a tuple version never change after the epoch that created
//! them — so a store holds no item, only the bits saying which ones it
//! holds.  Writing an item to its owner and its replicas (publication,
//! anti-entropy) sets the same bit in each: a replication-3 cluster holds
//! one copy of every record, page and tuple.  Cloning a store copies the
//! bit words, never the data behind them, and a clone that is later
//! written to (or [`NodeStore::clear`]ed) cannot disturb the store it was
//! cloned from.

use crate::version_log::Kind;
use std::collections::HashMap;
use std::ops::Range;

/// Bits per word of a [`SlotSet`].
const WORD: u32 = u64::BITS;

/// A set of slots of one of a relation's logs, one bit each: the items of
/// the log a node holds.
#[derive(Clone, Debug, Default)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Is `slot` in the set?
    pub fn contains(&self, slot: u32) -> bool {
        (self.word((slot / WORD) as usize) >> (slot % WORD)) & 1 == 1
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The slots in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let base = at as u32 * WORD;
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(base + bit)
            })
        })
    }

    /// Word `at` of the set: slots `64·at ..64·at + 64`, lowest bit first.
    /// Words past the end are empty.
    pub(crate) fn word(&self, at: usize) -> u64 {
        self.words.get(at).copied().unwrap_or(0)
    }

    /// Make room for slots `0..slots` in one step, so that a write of a
    /// whole run reallocates the words at most once however large the log
    /// has grown.
    pub(crate) fn reserve_for(&mut self, slots: usize) {
        let words = slots.div_ceil(WORD as usize);
        if words > self.words.len() {
            self.words.reserve_exact(words - self.words.len());
            self.words.resize(words, 0);
        }
    }

    /// Add the slots of `slots`.
    pub(crate) fn insert_range(&mut self, slots: Range<u32>) {
        self.reserve_for(slots.end as usize);
        let (first, last) = (slots.start / WORD, slots.end.div_ceil(WORD));
        for at in first..last {
            self.words[at as usize] |= span_mask(at as usize, &slots);
        }
    }

    /// Add the slots of `bits` to word `at`.
    pub(crate) fn insert_word(&mut self, at: usize, bits: u64) {
        self.reserve_for((at + 1) * WORD as usize);
        self.words[at] |= bits;
    }
}

/// The bits of word `at` whose slots lie in `slots`.
pub(crate) fn span_mask(at: usize, slots: &Range<u32>) -> u64 {
    let base = at as u64 * WORD as u64;
    let from = (slots.start as u64).clamp(base, base + 64) - base;
    let to = (slots.end as u64).clamp(base, base + 64) - base;
    let below = |n: u64| if n == 64 { u64::MAX } else { (1 << n) - 1 };
    below(to) & !below(from)
}

/// The state stored locally at a single node: per relation, the slots of
/// each of its logs held here, indexed by [`Kind`].
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    held: HashMap<String, [SlotSet; 3]>,
}

/// Call `write` on `map[name]`, created on first use — without allocating
/// a `String` for a name the map already has.
pub(crate) fn with_entry<V: Default, R>(
    map: &mut HashMap<String, V>,
    name: &str,
    write: impl FnOnce(&mut V) -> R,
) -> R {
    if let Some(value) = map.get_mut(name) {
        return write(value);
    }
    write(map.entry(name.to_string()).or_default())
}

impl NodeStore {
    /// The items of `relation`'s log of `kind` held here, or `None` when
    /// the node holds nothing of the relation: one lookup by name for any
    /// number of items.
    pub fn slots(&self, relation: &str, kind: Kind) -> Option<&SlotSet> {
        Some(&self.held.get(relation)?[kind as usize])
    }

    /// Does this node hold the tuple version of `relation` at `slot`?
    pub fn holds(&self, relation: &str, slot: u32) -> bool {
        self.slots(relation, Kind::Tuple)
            .is_some_and(|held| held.contains(slot))
    }

    /// Add to the items of `relation`'s log of `kind` held here, with room
    /// for the slots of a log of `log_len` items (see
    /// [`SlotSet::reserve_for`]).
    pub(crate) fn write(
        &mut self,
        relation: &str,
        kind: Kind,
        log_len: usize,
        add: impl FnOnce(&mut SlotSet),
    ) {
        with_entry(&mut self.held, relation, |held| {
            let slots = &mut held[kind as usize];
            slots.reserve_for(log_len);
            add(slots)
        })
    }

    /// Every relation this store holds tuple versions of, with the
    /// versions, in no particular order.
    pub fn held(&self) -> impl Iterator<Item = (&str, &SlotSet)> {
        (self.held.iter())
            .map(|(name, held)| (name.as_str(), &held[Kind::Tuple as usize]))
            .filter(|(_, slots)| !slots.is_empty())
    }

    /// Number of items of `kind` held, across all relations.
    fn count(&self, kind: Kind) -> usize {
        self.held
            .values()
            .map(|held| held[kind as usize].len())
            .sum()
    }

    /// Number of coordinator records held.
    pub fn coordinator_count(&self) -> usize {
        self.count(Kind::Record)
    }

    /// Number of index pages held.
    pub fn index_page_count(&self) -> usize {
        self.count(Kind::Page)
    }

    /// Number of tuple versions held (across all relations).
    pub fn tuple_count(&self) -> usize {
        self.count(Kind::Tuple)
    }

    /// Drop everything — used to model the permanent loss of a failed
    /// node's local storage.
    pub fn clear(&mut self) {
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_storage_and_lookup() {
        let mut s = NodeStore::default();
        s.write("R", Kind::Tuple, 10, |held| held.insert_range(5..6));
        assert!(s.holds("R", 5));
        assert!(!s.holds("R", 4) && !s.holds("R", 6) && !s.holds("R", 5_000));
        assert!(!s.holds("S", 5));
        assert!(s.slots("S", Kind::Tuple).is_none());
        assert_eq!(s.tuple_count(), 1);
        let held: Vec<(&str, Vec<u32>)> = s.held().map(|(r, h)| (r, h.iter().collect())).collect();
        assert_eq!(held, [("R", vec![5])]);
    }

    #[test]
    fn a_slot_set_is_a_bit_per_slot() {
        let mut set = SlotSet::default();
        assert!(set.is_empty());
        // Ranges that start and end inside a word, span several, fill one
        // exactly, and overlap what is already there.
        for range in [3..5, 60..130, 192..256, 100..101, 4..4] {
            set.insert_range(range);
        }
        set.insert_word(5, 1 << 7 | 1 << 63);
        let mut expected: Vec<u32> = (3..5).chain(60..130).chain(192..256).collect();
        expected.extend([5 * 64 + 7, 5 * 64 + 63]);
        assert_eq!(set.iter().collect::<Vec<_>>(), expected);
        assert_eq!(set.len(), expected.len());
        assert!((0..400).all(|slot| set.contains(slot) == expected.contains(&slot)));
        assert_eq!(set.word(0), 0b11 << 3 | 0b1111 << 60);
        assert_eq!(set.word(1), u64::MAX);
        assert_eq!(set.word(99), 0);

        assert_eq!(span_mask(0, &(3..5)), 0b11000);
        assert_eq!(span_mask(1, &(60..130)), u64::MAX);
        assert_eq!(span_mask(2, &(60..130)), 0b11);
        assert_eq!(span_mask(3, &(60..130)), 0);
        assert_eq!(span_mask(0, &(0..64)), u64::MAX);
    }

    #[test]
    fn coordinator_and_page_bits_round_trip() {
        // Each kind is a set of its own: a record or page slot is not a
        // tuple version, and the counts keep the kinds apart.
        let mut s = NodeStore::default();
        s.write("R", Kind::Record, 1, |held| held.insert_range(0..1));
        s.write("R", Kind::Page, 8, |held| held.insert_range(2..5));
        let slots = |kind| s.slots("R", kind).map(|h| h.iter().collect::<Vec<_>>());
        assert_eq!(slots(Kind::Record), Some(vec![0]));
        assert_eq!(slots(Kind::Page), Some(vec![2, 3, 4]));
        assert_eq!(slots(Kind::Tuple), Some(vec![]));
        assert!(s.slots("S", Kind::Page).is_none());
        assert!(!s.holds("R", 0) && !s.holds("R", 2));
        assert_eq!(s.held().count(), 0, "no tuple versions held");
        assert_eq!(
            [s.coordinator_count(), s.index_page_count(), s.tuple_count()],
            [1, 3, 0]
        );
    }

    #[test]
    fn clear_wipes_everything() {
        let mut s = NodeStore::default();
        for kind in Kind::ALL {
            s.write("R", kind, 1, |held| held.insert_range(0..1));
        }
        s.clear();
        assert_eq!(s.tuple_count(), 0);
        assert_eq!(s.index_page_count(), 0);
        assert_eq!(s.coordinator_count(), 0);
    }

    #[test]
    fn a_cloned_store_shares_contents_but_not_fate() {
        let mut s = NodeStore::default();
        s.write("R", Kind::Tuple, 3, |held| held.insert_range(2..3));
        s.write("R", Kind::Page, 1, |held| held.insert_range(0..1));
        let mut copy = s.clone();
        assert_eq!(copy.index_page_count(), 1);
        copy.clear();
        copy.write("R", Kind::Tuple, 3, |held| held.insert_range(0..1));
        assert!(s.holds("R", 2) && !s.holds("R", 0));
        assert_eq!([s.index_page_count(), s.tuple_count()], [1, 1]);
    }
}
