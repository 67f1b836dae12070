//! The local store held by one participant.
//!
//! Each node keeps the slices of the four distributed structures
//! (coordinators, index pages, tuple data, inverse entries) whose ring
//! positions fall in its ranges — plus replicas of its neighbours' slices.
//! In the paper this state lives in BerkeleyDB.  Here, coordinators, index
//! pages and inverse entries are hash maps, and the tuple data is one
//! [`SlotSet`] per relation: a bit per version the relation has published,
//! set where this node holds the version.  The bodies live once, in the
//! relation's [`crate::version_log::VersionLog`], numbered by the same
//! slots the index pages list, so "does this node hold the version a page
//! lists?" is one bit test and the tuple one index into the log — the
//! access pattern of the paper's "single pass through the hash ID range"
//! of a page without a search per tuple.
//!
//! ## Shared, immutable contents
//!
//! Everything published is immutable — a coordinator record, a page
//! version and a tuple version never change after the epoch that created
//! them — so a store holds `Arc`s of records and pages, and bits for
//! tuples, never bodies.  Writing an item to its owner and its replicas
//! (publication, anti-entropy) hands each of them a pointer to the *same*
//! allocation, or sets the same bit in each: a replication-3 cluster holds
//! one copy of every page and tuple.  Cloning a store copies the maps of
//! pointers and the bit words, never the data behind them, and a clone
//! that is later written to (or [`NodeStore::clear`]ed) cannot disturb the
//! store it was cloned from.

use crate::coordinator::{CoordinatorKey, RelationVersion};
use crate::page::{IndexPage, PageId};
use orchestra_common::NodeId;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Bits per word of a [`SlotSet`].
const WORD: u32 = u64::BITS;

/// A set of slots of one relation's version log, one bit each: the
/// versions of the relation a node holds.
#[derive(Clone, Debug, Default)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Is the version at `slot` in the set?
    pub fn contains(&self, slot: u32) -> bool {
        (self.word((slot / WORD) as usize) >> (slot % WORD)) & 1 == 1
    }

    /// Number of versions in the set.
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

/// The state stored locally at a single node.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    node: Option<NodeId>,
    coordinators: HashMap<CoordinatorKey, Arc<RelationVersion>>,
    index_pages: HashMap<PageId, Arc<IndexPage>>,
    /// Per relation, the versions of its log held here.
    tuples: HashMap<String, SlotSet>,
    /// Latest page version per relation and partition — the inverse-node
    /// state used to find the page that lists the current version of a
    /// tuple when applying a modification.
    inverse: HashMap<String, HashMap<u32, PageId>>,
}

/// `map[name]`, created on first use — without allocating a `String`
/// for a name the map already has.
pub(crate) fn entry_by_name<'a, V: Default>(
    map: &'a mut HashMap<String, V>,
    name: &str,
) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

impl NodeStore {
    /// An empty store belonging to `node`.
    pub fn new(node: NodeId) -> NodeStore {
        NodeStore {
            node: Some(node),
            ..NodeStore::default()
        }
    }

    /// The node this store belongs to, if known.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    // ----- relation coordinator state -------------------------------------

    /// Store a relation-version record.
    pub fn put_coordinator(&mut self, version: Arc<RelationVersion>) {
        self.coordinators.insert(version.key.clone(), version);
    }

    /// Fetch a relation-version record.
    pub fn coordinator(&self, key: &CoordinatorKey) -> Option<&Arc<RelationVersion>> {
        self.coordinators.get(key)
    }

    // ----- index node state ------------------------------------------------

    /// Store an index page body.
    pub fn put_index_page(&mut self, page: Arc<IndexPage>) {
        self.index_pages.insert(page.id.clone(), page);
    }

    /// Fetch an index page body.
    pub fn index_page(&self, id: &PageId) -> Option<&Arc<IndexPage>> {
        self.index_pages.get(id)
    }

    // ----- data storage node state ------------------------------------------

    /// The versions of `relation` held here, or `None` when the node
    /// holds none: one lookup by name for any number of versions.
    pub fn tuples(&self, relation: &str) -> Option<&SlotSet> {
        self.tuples.get(relation)
    }

    /// Does this node hold the version of `relation` at `slot`?
    pub fn holds(&self, relation: &str, slot: u32) -> bool {
        self.tuples(relation)
            .is_some_and(|held| held.contains(slot))
    }

    /// The versions of `relation` held here, for writing, with room for
    /// the slots of a log of `log_len` versions (see
    /// [`SlotSet::reserve_for`]).
    pub(crate) fn tuples_mut(&mut self, relation: &str, log_len: usize) -> &mut SlotSet {
        let held = entry_by_name(&mut self.tuples, relation);
        held.reserve_for(log_len);
        held
    }

    /// Every relation this store holds versions of, with the versions, in
    /// no particular order.
    pub fn held(&self) -> impl Iterator<Item = (&str, &SlotSet)> {
        self.tuples.iter().map(|(name, held)| (name.as_str(), held))
    }

    // ----- inverse node state -----------------------------------------------

    /// Record that `page` is the latest version of `(relation, partition)`.
    pub fn put_inverse(&mut self, relation: &str, partition: u32, page: PageId) {
        entry_by_name(&mut self.inverse, relation).insert(partition, page);
    }

    /// The latest page version of `(relation, partition)` known here.
    pub fn inverse(&self, relation: &str, partition: u32) -> Option<&PageId> {
        self.inverse.get(relation)?.get(&partition)
    }

    // ----- bookkeeping --------------------------------------------------------

    /// Number of coordinator records held.
    pub fn coordinator_count(&self) -> usize {
        self.coordinators.len()
    }

    /// Number of index pages held.
    pub fn index_page_count(&self) -> usize {
        self.index_pages.len()
    }

    /// Number of tuple versions held (across all relations).
    pub fn tuple_count(&self) -> usize {
        self.tuples.values().map(SlotSet::len).sum()
    }

    /// Drop everything — used to model the permanent loss of a failed
    /// node's local storage.
    pub fn clear(&mut self) {
        self.coordinators.clear();
        self.index_pages.clear();
        self.tuples.clear();
        self.inverse.clear();
    }

    /// Iterate over every coordinator record (used by anti-entropy
    /// replication).
    pub fn coordinators(&self) -> impl Iterator<Item = &Arc<RelationVersion>> {
        self.coordinators.values()
    }

    /// Iterate over every index page (used by anti-entropy replication).
    pub fn index_pages(&self) -> impl Iterator<Item = &Arc<IndexPage>> {
        self.index_pages.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{partition_range, PageId};
    use orchestra_common::Epoch;

    #[test]
    fn tuple_storage_and_lookup() {
        let mut s = NodeStore::new(NodeId(0));
        s.tuples_mut("R", 10).insert_range(5..6);
        assert!(s.holds("R", 5));
        assert!(!s.holds("R", 4) && !s.holds("R", 6) && !s.holds("R", 5_000));
        assert!(!s.holds("S", 5));
        assert!(s.tuples("S").is_none());
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
    fn coordinator_index_and_inverse_round_trip() {
        let mut s = NodeStore::new(NodeId(1));
        let key = CoordinatorKey::new("R", Epoch(0));
        let page = Arc::new(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 4),
            vec![],
        ));
        s.put_coordinator(Arc::new(RelationVersion::new(
            key.clone(),
            vec![page.descriptor()],
        )));
        s.put_index_page(Arc::clone(&page));
        s.put_inverse("R", 0, page.id.clone());
        assert!(s.coordinator(&key).is_some());
        assert!(s.coordinator(&CoordinatorKey::new("R", Epoch(1))).is_none());
        assert_eq!(s.index_page(&page.id), Some(&page));
        assert_eq!(s.inverse("R", 0), Some(&page.id));
        assert_eq!(s.inverse("R", 1), None);
        assert_eq!(s.inverse("S", 0), None);
        assert_eq!(s.coordinator_count(), 1);
        assert_eq!(s.index_page_count(), 1);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut s = NodeStore::new(NodeId(0));
        s.tuples_mut("R", 1).insert_range(0..1);
        s.put_index_page(Arc::new(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![],
        )));
        s.clear();
        assert_eq!(s.tuple_count(), 0);
        assert_eq!(s.index_page_count(), 0);
        assert_eq!(s.coordinator_count(), 0);
    }

    #[test]
    fn a_cloned_store_shares_contents_but_not_fate() {
        let mut s = NodeStore::new(NodeId(0));
        s.tuples_mut("R", 3).insert_range(2..3);
        let page = Arc::new(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![],
        ));
        s.put_index_page(Arc::clone(&page));
        let mut copy = s.clone();
        // One allocation, referenced by the test, the store and its clone.
        assert_eq!(Arc::strong_count(&page), 3);
        copy.clear();
        assert_eq!(Arc::strong_count(&page), 2);
        assert!(s.holds("R", 2));
        assert_eq!(s.index_page(&page.id), Some(&page));
    }
}
