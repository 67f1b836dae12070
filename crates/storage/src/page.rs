//! Versioned index pages.
//!
//! "Relations are divided into versioned pages, each of which represents a
//! partition over the space of possible tuple keys' hash values"
//! (Section IV).  A [`PageId`] names one *version* of one such partition:
//! the relation, the epoch in which the page was last modified, and the
//! partition's ordinal within the relation.  The [`IndexPage`] is the page
//! body — the list of tuple IDs present in that partition in that version,
//! each with the ring position of its key — and a [`PageDescriptor`] is the
//! coordinator-side summary (ID, hash range, storage position, slot,
//! cardinality).
//!
//! The page is *stored* at the midpoint of the hash range it covers, so
//! that with contiguous per-node ranges the page and the majority of the
//! tuples it references live on the same node ("the vast majority of tuple
//! keys are never sent over the network").
//!
//! ## Immutable, stored once, hash-free
//!
//! A page version never changes once built, so it is stored once, under
//! its page slot in the run of the relation's log that published it
//! ([`crate::version_log`]), and its holders each set the slot's bit; its
//! [`PageDescriptor`] carries the slot, so finding the page is a bit test
//! and a search of the log's runs.
//! Its entries are [`PageEntry`]s: the ring position of a tuple's key is
//! hashed once, when that tuple version is published, and
//! [`IndexPage::next_version`] *carries the entries forward* — a page
//! rewritten in epoch 40 still holds the positions computed in epoch 0.
//! An entry also carries its version's tuple slot in the relation's log:
//! reading the tuple an entry lists is a test of a node's bit for that
//! slot and a search of the log's runs.  Entries are sorted by tuple ID (key
//! first), which makes "the version of key `k` listed here" a binary
//! search ([`IndexPage::current_version_of`]) and the next version a
//! sorted merge.
//!
//! ## A new page version costs what changed
//!
//! Carrying an entry forward copies its position and a pointer: the key
//! is an `Arc<[Value]>` ([`TupleId`]), allocated once when the version is
//! published and shared by every page version that lists it after that.
//! Rewriting a page of `n` entries for `m` changes therefore allocates
//! the entry list and the `m` new keys — nothing per surviving entry.

use orchestra_common::{Epoch, Key160, KeyRange, PageEntry, TupleId, Value};
use std::fmt;
use std::sync::Arc;

/// Identifier of one version of one index page.
///
/// Matches the paper's example: "The index page ID consists of the
/// relation name, the epoch in which it was last modified, and a unique
/// identifier for that relation and epoch."
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Relation the page belongs to.
    pub relation: Arc<str>,
    /// Epoch in which this version of the page was created.
    pub epoch: Epoch,
    /// Ordinal of the partition within the relation (stable across
    /// versions: version `e` of partition 3 supersedes version `e' < e` of
    /// partition 3).
    pub partition: u32,
}

impl PageId {
    /// Build a page ID.  Its relation name is shared by every later
    /// version of the page and every descriptor of it.
    pub fn new(relation: impl Into<Arc<str>>, epoch: Epoch, partition: u32) -> PageId {
        PageId {
            relation: relation.into(),
            epoch,
            partition,
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.relation, self.epoch, self.partition)
    }
}

/// Coordinator-side summary of one page version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDescriptor {
    /// Which page version this describes.
    pub id: PageId,
    /// The tuple-key hash range the partition covers.
    pub range: KeyRange,
    /// The ring position at which the page body is stored: the midpoint of
    /// `range`, so the page is co-located with most of its tuples.
    pub storage_key: Key160,
    /// The page version's number among its relation's page versions.
    pub slot: u32,
    /// Number of tuple IDs listed in the page (for planner statistics).
    pub tuple_count: usize,
}

impl PageDescriptor {
    /// Describe a page covering `range`, stored at page slot `slot` of its
    /// relation's log.
    pub fn new(id: PageId, range: KeyRange, slot: u32, tuple_count: usize) -> PageDescriptor {
        PageDescriptor {
            storage_key: range.midpoint(),
            id,
            range,
            slot,
            tuple_count,
        }
    }

    /// Approximate wire size of the descriptor when a coordinator ships
    /// its page list to a requester (the slot, local to this store, is
    /// not charged).
    pub fn serialized_size(&self) -> usize {
        self.id.relation.len() + 8 + 4 + 40 + 8
    }
}

/// The body of one page version: the tuple IDs present in the partition,
/// each with its cached ring position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexPage {
    /// Which page version this is.
    pub id: PageId,
    /// The tuple-key hash range the partition covers.
    pub range: KeyRange,
    /// The tuple versions in the partition for this version, sorted by
    /// tuple ID for deterministic iteration and binary-search lookups.
    pub entries: Vec<PageEntry>,
}

impl IndexPage {
    /// Create a page body, sorting the entries.
    pub fn new(id: PageId, range: KeyRange, mut entries: Vec<PageEntry>) -> IndexPage {
        entries.sort();
        IndexPage { id, range, entries }
    }

    /// Number of tuple IDs listed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the page empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Does the page list this exact tuple version?
    pub fn contains(&self, id: &TupleId) -> bool {
        self.entries.binary_search_by(|e| e.id.cmp(id)).is_ok()
    }

    /// The (oldest) version of the tuple with key `key` this page lists,
    /// found by binary search: entries order by key first.
    pub fn current_version_of(&self, key: &[Value]) -> Option<&PageEntry> {
        let at = self.entries.partition_point(|e| *e.id.key < *key);
        self.entries.get(at).filter(|e| *e.id.key == *key)
    }

    /// The descriptor summarising this page version, stored at page slot
    /// `slot` of its relation's log.
    pub fn descriptor(&self, slot: u32) -> PageDescriptor {
        PageDescriptor::new(self.id.clone(), self.range, slot, self.entries.len())
    }

    /// Derive the next version of this page at `epoch`: drop the IDs in
    /// `remove` (superseded or deleted versions) and list the entries in
    /// `add`.  Both are sorted, then merged with this page's sorted
    /// entries in one pass; surviving entries are carried forward with
    /// the positions they were published with and their keys shared by
    /// pointer, so no key is hashed or copied.
    pub fn next_version(
        &self,
        epoch: Epoch,
        mut remove: Vec<&TupleId>,
        mut add: Vec<PageEntry>,
    ) -> IndexPage {
        remove.sort_unstable();
        add.sort();
        let mut entries = Vec::with_capacity(self.entries.len() + add.len());
        let mut remove = remove.into_iter().peekable();
        let mut add = add.into_iter().peekable();
        for entry in &self.entries {
            // A remove that names nothing here is skipped, not an error.
            // A matching remove is left in place: it drops *every* entry
            // equal to it (a batch touching one key twice lists the same
            // ID twice), and may itself be listed more than once.
            while remove.next_if(|r| **r < entry.id).is_some() {}
            if remove.peek().is_some_and(|r| **r == entry.id) {
                continue;
            }
            while let Some(new) = add.next_if(|a| a.id < entry.id) {
                entries.push(new);
            }
            entries.push(entry.clone());
        }
        entries.extend(add);
        IndexPage {
            id: PageId::new(Arc::clone(&self.id.relation), epoch, self.id.partition),
            range: self.range,
            entries,
        }
    }

    /// Approximate wire size of the page body (what an index node ships
    /// when asked for the page's tuple IDs).
    pub fn serialized_size(&self) -> usize {
        64 + self
            .entries
            .iter()
            .map(|e| e.id.serialized_size())
            .sum::<usize>()
    }
}

/// Compute the hash range of partition `partition` out of `partitions`
/// equal divisions of the key space.
pub(crate) fn partition_range(partition: u32, partitions: u32) -> KeyRange {
    // Publication rejects a store of 0 partitions before it places a page,
    // and it asks only for partitions `partition_of` returned, each below
    // `partitions`.
    debug_assert!(partitions > 0, "a relation has at least one partition");
    debug_assert!(
        partition < partitions,
        "partition {partition} of {partitions}"
    );
    if partitions == 1 {
        return KeyRange::full();
    }
    let width = Key160::space_divided_by(partitions as u64);
    let start = width.wrapping_mul_small(partition as u64);
    let end = if partition == partitions - 1 {
        Key160::ZERO
    } else {
        width.wrapping_mul_small(partition as u64 + 1)
    };
    KeyRange::new(start, end)
}

/// Which partition (of `partitions`) a tuple-key hash belongs to.
pub fn partition_of(hash: Key160, partitions: u32) -> u32 {
    if partitions == 1 {
        return 0;
    }
    let width = Key160::space_divided_by(partitions as u64);
    // Binary search over the partition boundaries.
    let mut lo = 0u32;
    let mut hi = partitions - 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if hash >= width.wrapping_mul_small(mid as u64) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{rng, Value};

    fn tid(k: i64, e: u64) -> TupleId {
        TupleId::new(vec![Value::Int(k)], Epoch(e))
    }

    fn entry(k: i64, e: u64) -> PageEntry {
        PageEntry::hashed(tid(k, e), 0)
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId::new("R", Epoch(2), 0).to_string(), "R@e2#0");
    }

    #[test]
    fn index_page_membership_and_versioning() {
        let range = partition_range(0, 4);
        let page = IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            range,
            vec![entry(1, 0), entry(2, 0)],
        );
        assert_eq!(page.len(), 2);
        assert!(page.contains(&tid(1, 0)));
        assert!(!page.contains(&tid(1, 1)));

        // Epoch 1 replaces tuple 1 with a new version and adds tuple 3.
        let next = page.next_version(Epoch(1), vec![&tid(1, 0)], vec![entry(1, 1), entry(3, 1)]);
        assert_eq!(next.id, PageId::new("R", Epoch(1), 0));
        assert_eq!(next.len(), 3);
        assert!(next.contains(&tid(1, 1)));
        assert!(!next.contains(&tid(1, 0)));
        assert!(next.contains(&tid(2, 0)));
        // The original version is untouched (full versioning).
        assert!(page.contains(&tid(1, 0)));
    }

    #[test]
    fn next_version_merges_sorted_and_carries_positions_forward() {
        let range = partition_range(0, 1);
        let page = IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            range,
            (0..20).step_by(2).map(|k| entry(k, 0)).collect(),
        );
        // Drop three versions (one of them not listed at all), add new
        // versions before, between and after the survivors — unsorted.
        let (gone_a, gone_b, absent) = (tid(4, 0), tid(10, 0), tid(11, 0));
        let add = vec![entry(25, 3), entry(4, 3), entry(-1, 3), entry(7, 3)];
        let next = page.next_version(Epoch(3), vec![&absent, &gone_b, &gone_a], add.clone());

        // Same contents as the definition: filter, extend, sort.
        let mut expected: Vec<PageEntry> = page
            .entries
            .iter()
            .filter(|e| e.id != gone_a && e.id != gone_b)
            .cloned()
            .chain(add)
            .collect();
        expected.sort();
        assert_eq!(next.entries, expected);
        assert_eq!(next.len(), 10 - 2 + 4);
        assert!(next.entries.iter().all(|e| e.position == e.id.hash_key()));

        assert_eq!(
            next.current_version_of(&[Value::Int(4)]).unwrap().id,
            tid(4, 3)
        );
        assert_eq!(
            next.current_version_of(&[Value::Int(6)]).unwrap().id,
            tid(6, 0)
        );
        assert!(next.current_version_of(&[Value::Int(10)]).is_none());
        assert!(next.current_version_of(&[Value::Int(99)]).is_none());
    }

    #[test]
    fn next_version_drops_every_copy_of_a_removed_id() {
        // A page can list one ID twice, and a remove list can name one ID
        // twice; either way every copy goes and nothing else does.
        let page = IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![entry(1, 0), entry(1, 0), entry(2, 0), entry(3, 0)],
        );
        let (one, three) = (tid(1, 0), tid(3, 0));
        let next = page.next_version(Epoch(1), vec![&three, &one, &three], vec![entry(1, 1)]);
        assert_eq!(next.entries, vec![entry(1, 1), entry(2, 0)]);
    }

    #[test]
    fn descriptor_summarises_page() {
        let range = partition_range(1, 4);
        let page = IndexPage::new(PageId::new("R", Epoch(0), 1), range, vec![entry(7, 0)]);
        let d = page.descriptor(7);
        assert_eq!(d.id, page.id);
        assert_eq!(d.slot, 7);
        assert_eq!(d.tuple_count, 1);
        assert_eq!(d.storage_key, range.midpoint());
        assert!(d.serialized_size() > 0);
        assert!(page.serialized_size() > 0);
    }

    #[test]
    fn partition_ranges_tile_and_lookup_agrees() {
        let parts = 16u32;
        for probe in 0..200u64 {
            let h = Key160::hash(&probe.to_be_bytes());
            let via_lookup = partition_of(h, parts);
            let covering: Vec<u32> = (0..parts)
                .filter(|p| partition_range(*p, parts).contains(h))
                .collect();
            assert_eq!(covering.len(), 1);
            assert_eq!(covering[0], via_lookup);
        }
    }

    #[test]
    fn single_partition_covers_everything() {
        assert!(partition_range(0, 1).is_full());
        assert_eq!(partition_of(Key160::hash(b"x"), 1), 0);
    }

    #[test]
    fn partition_of_is_consistent_with_ranges() {
        // Deterministic sweep standing in for the original property test.
        let mut r = rng::seeded(0x9a9e);
        for _ in 0..500 {
            let parts = r.random_range(1u32..64);
            let h = Key160::hash(&r.next_u64().to_be_bytes());
            let p = partition_of(h, parts);
            assert!(p < parts);
            assert!(partition_range(p, parts).contains(h), "parts={parts} h={h}");
        }
    }
}
