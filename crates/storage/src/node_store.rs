//! What a node stores: bits.
//!
//! Each node keeps the slices of the three distributed structures
//! (coordinator records, index pages, tuple data) whose ring positions
//! fall in its ranges — plus replicas of its neighbours' slices.  In the
//! paper this state lives in BerkeleyDB.  Here every item a relation
//! publishes is stored once, in the run of the relation's log that
//! published it ([`crate::version_log`]), under a number of its kind, its
//! *slot*, and the log keeps, beside its runs, which nodes hold which
//! items: per kind, one [`SlotSet`] per node, with a bit set for each item
//! the node holds.  So "does this node hold the record, page or version a
//! lookup names?" is one bit test, and the item is found by a binary
//! search of the log's runs — the access pattern of the paper's "single
//! pass through the hash ID range" of a page without a search per tuple.
//!
//! ## Bits, never bodies
//!
//! Everything published is immutable — a coordinator record, a page
//! version and a tuple version never change after the epoch that created
//! them — so a node holds no item, only the bits saying which ones it
//! holds.  Writing an item to its owner and its replicas (publication,
//! anti-entropy) sets the same bit in each: a replication-3 cluster holds
//! one copy of every record, page and tuple.  There is no per-node
//! structure to copy: a relation's runs and their holder bits are one
//! copy-on-write value, and the bits are the only part of it that changes
//! after a run is appended — repair adds bits, a lost disk drops a
//! node's.  So the bits stay one flat set per node and kind, not one per
//! run: a write to them copies the set, never a run.

use orchestra_common::NodeId;
use std::ops::Range;

/// Bits per word of a [`SlotSet`].
const WORD: u32 = u64::BITS;

/// A set of slots of one kind of a relation's log, one bit each: the items
/// of that kind a node holds.
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

/// Which nodes hold which items of one kind of a relation's log: by node
/// index, the node's slots.  A node past the end holds nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Holders {
    by_node: Vec<SlotSet>,
}

impl Holders {
    /// The slots `node` holds, or `None` for a node past the end.
    pub(crate) fn of(&self, node: NodeId) -> Option<&SlotSet> {
        self.by_node.get(node.index())
    }

    /// Does `node` hold `slot`?
    pub(crate) fn holds(&self, node: NodeId, slot: u32) -> bool {
        self.of(node).is_some_and(|held| held.contains(slot))
    }

    /// The slots `node` holds, for adding to, with room for `log_len`
    /// slots (see [`SlotSet::reserve_for`]).
    pub(crate) fn of_mut(&mut self, node: NodeId, log_len: usize) -> &mut SlotSet {
        if self.by_node.len() <= node.index() {
            self.by_node.resize_with(node.index() + 1, SlotSet::default);
        }
        let held = &mut self.by_node[node.index()];
        held.reserve_for(log_len);
        held
    }

    /// Drop every slot `node` holds.
    pub(crate) fn forget(&mut self, node: NodeId) {
        if let Some(held) = self.by_node.get_mut(node.index()) {
            *held = SlotSet::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version_log::{Kind, RelationLog};

    #[test]
    fn tuple_storage_and_lookup() {
        let mut h = Holders::default();
        h.of_mut(NodeId(2), 10).insert_range(5..6);
        assert!(h.holds(NodeId(2), 5));
        assert!(!h.holds(NodeId(2), 4) && !h.holds(NodeId(2), 6) && !h.holds(NodeId(2), 5_000));
        // A node below the one written holds nothing, and a node past the
        // end is not there at all.
        assert!(!h.holds(NodeId(1), 5) && h.of(NodeId(1)).is_some_and(SlotSet::is_empty));
        assert!(!h.holds(NodeId(3), 5) && h.of(NodeId(3)).is_none());
        let held: Vec<u32> = h
            .of(NodeId(2))
            .into_iter()
            .flat_map(SlotSet::iter)
            .collect();
        assert_eq!(held, [5]);
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
        // Each kind has holders of its own: a record or page slot is not a
        // tuple version, and the counts keep the kinds apart.
        let mut log = RelationLog::default();
        let n = NodeId(0);
        (log.holders_mut(Kind::Record).of_mut(n, 1)).insert_range(0..1);
        (log.holders_mut(Kind::Page).of_mut(n, 8)).insert_range(2..5);
        let slots = |kind| (log.holders(kind).of(n)).map(|h| h.iter().collect::<Vec<_>>());
        assert_eq!(slots(Kind::Record), Some(vec![0]));
        assert_eq!(slots(Kind::Page), Some(vec![2, 3, 4]));
        assert_eq!(slots(Kind::Tuple), None, "no tuple versions held");
        assert!(!log.holders(Kind::Tuple).holds(n, 0));
        let counts = Kind::ALL.map(|kind| log.holders(kind).of(n).map_or(0, SlotSet::len));
        assert_eq!(counts, [1, 3, 0]);
    }

    #[test]
    fn clear_wipes_everything() {
        // A node's disk lost: it forgets every slot, its neighbours none.
        let mut h = Holders::default();
        for n in [NodeId(0), NodeId(1)] {
            h.of_mut(n, 100).insert_range(0..100);
        }
        h.forget(NodeId(1));
        h.forget(NodeId(7));
        assert!(h.of(NodeId(1)).is_some_and(SlotSet::is_empty));
        assert_eq!(h.of(NodeId(0)).map(SlotSet::len), Some(100));
        assert!(h.of(NodeId(7)).is_none());
    }

    #[test]
    fn a_cloned_store_shares_contents_but_not_fate() {
        let mut h = Holders::default();
        h.of_mut(NodeId(1), 3).insert_range(2..3);
        let mut copy = h.clone();
        assert!(copy.holds(NodeId(1), 2));
        copy.forget(NodeId(1));
        copy.of_mut(NodeId(1), 3).insert_range(0..1);
        assert!(h.holds(NodeId(1), 2) && !h.holds(NodeId(1), 0));
        assert!(copy.holds(NodeId(1), 0) && !copy.holds(NodeId(1), 2));
    }
}
