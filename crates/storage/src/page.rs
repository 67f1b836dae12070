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
//! first), which puts every version of a key together, its oldest first,
//! and makes the next version a sorted merge that finds the versions a
//! publication supersedes by key as it goes.
//!
//! ## A new page version keeps only what its publication changed
//!
//! A page's entries are a list of *windows* ([`PageEntries`]): stretches
//! of at most [`LEAF`] entries, each in the entry buffer of the page
//! version that wrote it, an `Arc<[PageEntry]>`.
//! [`IndexPage::next_version`] keeps every window that no removed version
//! or add touches by reference: it copies no entry of it and bumps no key's
//! count, only the buffer's.  The windows a change touches are merged
//! with the change in one sorted pass and the result is cut into new
//! windows of the new version's buffer.  Rewriting a page of `n` entries
//! for `m` changes therefore costs a list of about `n / LEAF` window
//! references and at most `LEAF` entries per change; an entry that is
//! rewritten shares its key, an `Arc<[Value]>` ([`TupleId`]) allocated
//! once when the version was published, by pointer.  The copy-on-write
//! B-tree does the same with its leaves (Rodeh, *B-trees, Shadowing, and
//! Clones*, ACM TOS 2008).  A page version allocates its buffer, its
//! window list and its `Arc`, and the publication that writes it a few
//! lists for all its pages, whatever the size of the
//! relation.
//!
//! The buffer is the version's own, not one per run: one allocation of a
//! bulk load's every entry (3.4 MB for 60k rows) left the host
//! benchmark's `adhoc_read`, which builds and drops its store several
//! times, a 2–3 MiB larger resident set than page-sized buffers, which
//! the allocator reuses.  A buffer lives while any window points into
//! it, so a page version no record reaches any more keeps the entries
//! alive that later versions' windows kept.

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

/// The most entries one window of a page holds.  On the host benchmark's
/// `publish_write` (a bulk load of three TPC-H relations, then sixteen
/// churn epochs of 1,000 updates, seed 42, on a 2-core x86-64 box), peak
/// resident memory read 102.9–103.2 MiB at 4 entries, 104.4–106.2 at 8
/// and 109.6–110.7 at 16 (140.0 with every page copied whole): a larger
/// window copies more entries an update did not change.  At 4 every page's
/// window list doubles (6 bytes of reference an entry instead of 3), which
/// a store that is mostly read, as on `adhoc_read`, pays without the
/// saving, and readers walk slices half as long.
pub const LEAF: usize = 8;

/// A stretch of at most [`LEAF`] entries, never none, of the entry buffer
/// of the page version that wrote them.
#[derive(Clone)]
struct Window {
    buffer: Arc<[PageEntry]>,
    start: u32,
    end: u32,
}

impl Window {
    fn entries(&self) -> &[PageEntry] {
        &self.buffer[self.start as usize..self.end as usize]
    }
}

/// A page version's entries, sorted by tuple ID, as windows into the entry
/// buffers of the page versions that wrote them.  Iterating a `&PageEntries` yields
/// every entry in order; [`Self::windows`] yields them a slice at a time,
/// and two page versions that share a window yield the very same slice
/// for it (`std::ptr::eq`).
#[derive(Clone, Default)]
pub struct PageEntries {
    windows: Vec<Window>,
    len: usize,
}

impl PageEntries {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Are there no entries?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry, in ID order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            windows: self.windows.iter(),
            window: [].iter(),
            left: self.len,
        }
    }

    /// The entries window by window, in ID order, each a slice of the
    /// buffer of the page version that wrote it.
    pub fn windows(&self) -> impl Iterator<Item = &[PageEntry]> {
        self.windows.iter().map(Window::entries)
    }

    /// The first entry for which `before` does not hold, where it holds for
    /// a prefix of the entries: a binary search of the windows by their
    /// last entries, then of one window.
    fn first_not(&self, before: impl Fn(&PageEntry) -> bool) -> Option<&PageEntry> {
        let at = (self.windows).partition_point(|w| w.entries().last().is_some_and(&before));
        let window = self.windows.get(at)?.entries();
        window.get(window.partition_point(&before))
    }
}

impl PartialEq for PageEntries {
    fn eq(&self, other: &PageEntries) -> bool {
        self.len == other.len && self.iter().eq(other)
    }
}

impl Eq for PageEntries {}

impl fmt::Debug for PageEntries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a PageEntries {
    type Item = &'a PageEntry;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The entries of a [`PageEntries`], in ID order.
pub struct Iter<'a> {
    windows: std::slice::Iter<'a, Window>,
    window: std::slice::Iter<'a, PageEntry>,
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a PageEntry;

    fn next(&mut self) -> Option<&'a PageEntry> {
        loop {
            if let Some(entry) = self.window.next() {
                self.left -= 1;
                return Some(entry);
            }
            self.window = self.windows.next()?.entries().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The body of one page version: the tuple IDs present in the partition,
/// each with its cached ring position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexPage {
    /// Which page version this is.
    pub id: PageId,
    /// The tuple-key hash range the partition covers.
    pub range: KeyRange,
    /// The tuple versions in the partition for this version, sorted by
    /// tuple ID for deterministic iteration and binary-search lookups, as
    /// windows into the entry buffers of the page versions that wrote them.
    pub entries: PageEntries,
}

impl IndexPage {
    /// Create a page body, sorting the entries, in a buffer of its own.
    pub fn new(id: PageId, range: KeyRange, entries: Vec<PageEntry>) -> IndexPage {
        let mut writer = PageWriter::for_pages([(None, 0, entries.len())]);
        writer.add = entries;
        IndexPage {
            id,
            range,
            entries: writer.write(None),
        }
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
        (self.entries.first_not(|e| e.id < *id)).is_some_and(|e| e.id == *id)
    }

    /// The descriptor summarising this page version, stored at page slot
    /// `slot` of its relation's log.
    pub fn descriptor(&self, slot: u32) -> PageDescriptor {
        PageDescriptor::new(self.id.clone(), self.range, slot, self.entries.len())
    }

    /// Derive the next version of this page at `epoch`, in a buffer of its
    /// own: drop the oldest version listed of each key in `remove` (the
    /// version a modify or a delete supersedes) and list the entries in
    /// `add`.  Both are sorted, then every window that holds no dropped
    /// version and no add falls in is kept by reference, and each stretch
    /// of touched windows is merged with its changes in one sorted pass:
    /// surviving entries are carried forward with the positions they were
    /// published with and their keys shared by pointer, so no key is
    /// hashed or copied.  Publication writes the pages of one run the same
    /// way.
    pub fn next_version(
        &self,
        epoch: Epoch,
        remove: Vec<&[Value]>,
        add: Vec<PageEntry>,
    ) -> IndexPage {
        let mut writer = PageWriter::for_pages([(Some(&self.entries), remove.len(), add.len())]);
        (writer.remove, writer.add) = (remove, add);
        IndexPage {
            id: PageId::new(Arc::clone(&self.id.relation), epoch, self.id.partition),
            range: self.range,
            entries: writer.write(Some(&self.entries)),
        }
    }

    /// Approximate wire size of the page body (what an index node ships
    /// when asked for the page's tuple IDs).
    pub fn serialized_size(&self) -> usize {
        let windows = self.entries.windows();
        64 + windows
            .map(|w| w.iter().map(|e| e.id.serialized_size()).sum::<usize>())
            .sum::<usize>()
    }
}

/// Where a page version's entries are while it is being written: a
/// stretch of the previous version's windows, kept, or a stretch of the
/// entries written.
enum Piece {
    Kept(u32, u32),
    Written(u32, u32),
}

/// Writes the page versions of one run.  Its lists are scratch space for
/// one page version at a time, sized up front for the largest, so writing
/// a run allocates them once and each page version its buffer, its window
/// list and nothing more, whatever the size of the pages it carries
/// forward.
pub(crate) struct PageWriter<'p> {
    /// The keys whose oldest listed version the next page version drops,
    /// filled by the caller.
    pub(crate) remove: Vec<&'p [Value]>,
    /// The entries the next page version lists besides, filled by the
    /// caller.
    pub(crate) add: Vec<PageEntry>,
    written: Vec<PageEntry>,
    pieces: Vec<Piece>,
}

impl<'p> PageWriter<'p> {
    /// A writer with room for each page version `pages` lists: its previous
    /// version, if it has one, and at most how many entries it removes and
    /// how many it adds.
    pub(crate) fn for_pages<'q>(
        pages: impl IntoIterator<Item = (Option<&'q PageEntries>, usize, usize)>,
    ) -> PageWriter<'p> {
        let mut room = [0; 4];
        for (prev, removes, adds) in pages {
            let (listed, windows) = prev.map_or((0, 0), |p| (p.len, p.windows.len()));
            // An add touches one window and a remove at most two (an ID
            // listed at the end of one and the start of the next), and a
            // touched window writes at most `LEAF` entries back.
            let touched = windows.min(adds + 2 * removes);
            // A stretch of touched windows is cut into at most one window
            // more than it held, plus one per `LEAF` adds, and stretches
            // kept lie between them.
            let pieces = 3 * touched + adds.div_ceil(LEAF) + 2;
            let page = [removes, adds, listed.min(LEAF * touched) + adds, pieces];
            room = std::array::from_fn(|at| room[at].max(page[at]));
        }
        PageWriter {
            remove: Vec::with_capacity(room[0]),
            add: Vec::with_capacity(room[1]),
            written: Vec::with_capacity(room[2]),
            pieces: Vec::with_capacity(room[3]),
        }
    }

    /// Write the next page version: `prev`'s entries (none when `None`)
    /// without the oldest version listed of each key in [`Self::remove`],
    /// with the entries in [`Self::add`], both of which it empties.  Both
    /// are sorted, then each window of `prev` that holds no dropped version
    /// and that no add falls in (sorts before the next window's first
    /// entry) is kept as it is.  A key's oldest version is the first entry
    /// of that key in the walk, so it is found in the window the walk
    /// meets it in: a key that window does not list is listed nowhere, and
    /// the dropped version's copies (a batch that inserts one key twice
    /// lists its ID twice) may run on into the next window.  Each stretch
    /// of touched windows is merged with its adds in one pass, and the
    /// merged entries are moved into the version's buffer, one allocation,
    /// and cut into windows.  A key may be named twice and may name
    /// nothing.
    pub(crate) fn write(&mut self, prev: Option<&PageEntries>) -> PageEntries {
        self.remove.sort_unstable();
        self.add.sort();
        let mut remove = self.remove.drain(..).peekable();
        let mut add = self.add.drain(..).peekable();
        let windows = prev.map_or(&[][..], |p| &p.windows);
        // The version being dropped, once its key's first entry is met.
        let mut dropped: Option<&TupleId> = None;
        // Where the stretch being kept starts among the windows, or the
        // one being written among the entries written, if one is.
        let (mut kept, mut stretch) = (None, None);
        for (at, window) in windows.iter().enumerate() {
            let entries = window.entries();
            let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
                continue;
            };
            let next = windows.get(at + 1).and_then(|w| w.entries().first());
            let before_next = |a: &PageEntry| next.is_none_or(|n| a.id < n.id);
            // Copies of one ID are adjacent: the dropped version goes on
            // into this window or is behind the walk.
            dropped = dropped.filter(|id| **id == first.id);
            // A key this window's span holds but the window does not list
            // (or one before the span) is listed nowhere.
            let lists = |key: &[Value]| entries.iter().any(|e| *e.id.key == *key);
            while remove
                .next_if(|key| **key < *first.id.key || **key <= *last.id.key && !lists(key))
                .is_some()
            {}
            let touched = dropped.is_some()
                || remove.peek().is_some_and(|key| **key <= *last.id.key)
                || add.peek().is_some_and(before_next);
            if !touched {
                cut(&mut self.pieces, stretch.take(), self.written.len());
                kept.get_or_insert(at);
                continue;
            }
            if let Some(from) = kept.take() {
                // A page's windows number fewer than its entries, which a
                // buffer indexes with a `u32`.
                self.pieces.push(Piece::Kept(from as u32, at as u32));
            }
            stretch.get_or_insert(self.written.len());
            for entry in entries {
                let key = &*entry.id.key;
                while remove.next_if(|k| **k < *key).is_some() {}
                // The key's first entry is its oldest version: every naming
                // of the key drops that version, and only that one.
                if remove.peek().is_some_and(|k| **k == *key) {
                    while remove.next_if(|k| **k == *key).is_some() {}
                    dropped = Some(&entry.id);
                }
                if dropped.is_some_and(|id| *id == entry.id) {
                    continue;
                }
                dropped = None;
                while let Some(new) = add.next_if(|a| a.id < entry.id) {
                    self.written.push(new);
                }
                self.written.push(entry.clone());
            }
            while let Some(new) = add.next_if(before_next) {
                self.written.push(new);
            }
        }
        if let Some(from) = kept {
            self.pieces
                .push(Piece::Kept(from as u32, windows.len() as u32));
        }
        if windows.is_empty() {
            stretch = Some(self.written.len());
            self.written.extend(add);
        }
        cut(&mut self.pieces, stretch, self.written.len());

        // One allocation, of exactly the entries written (`Drain` knows
        // its length), and none for a version that wrote nothing.
        let buffer: Option<Arc<[PageEntry]>> =
            (!self.written.is_empty()).then(|| self.written.drain(..).collect());
        let count = self.pieces.iter().map(|piece| match piece {
            Piece::Kept(from, to) => (to - from) as usize,
            Piece::Written(..) => 1,
        });
        let mut entries = PageEntries {
            windows: Vec::with_capacity(count.sum()),
            len: 0,
        };
        for piece in self.pieces.drain(..) {
            match piece {
                Piece::Kept(from, to) => {
                    entries
                        .windows
                        .extend_from_slice(&windows[from as usize..to as usize]);
                }
                // Only a version that wrote entries has written pieces.
                Piece::Written(start, end) => {
                    if let Some(buffer) = &buffer {
                        let buffer = Arc::clone(buffer);
                        entries.windows.push(Window { buffer, start, end });
                    }
                }
            }
        }
        entries.len = entries
            .windows
            .iter()
            .map(|w| (w.end - w.start) as usize)
            .sum();
        entries
    }
}

/// Cut the entries written from `start`, if a stretch is open, to `end`
/// into windows of `LEAF` entries and a last of the rest.
fn cut(pieces: &mut Vec<Piece>, start: Option<usize>, end: usize) {
    for at in (start.unwrap_or(end)..end).step_by(LEAF) {
        // A page version's buffer fits a `u32` index: publication checks
        // that before it writes (`DistributedStorage::publish`).
        pieces.push(Piece::Written(at as u32, (at + LEAF).min(end) as u32));
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
mod page_equivalence;

#[cfg(test)]
mod tests {
    use super::page_equivalence::current_version_of;
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
        let one = [Value::Int(1)];
        let next = page.next_version(Epoch(1), vec![&one], vec![entry(1, 1), entry(3, 1)]);
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
        // Drop the versions of three keys (one of them not listed at all),
        // add new versions before, between and after the survivors —
        // unsorted.
        let (gone_a, gone_b) = (tid(4, 0), tid(10, 0));
        let keys = [4, 10, 11].map(|k| [Value::Int(k)]);
        let remove = vec![&keys[2][..], &keys[1], &keys[0]];
        let add = vec![entry(25, 3), entry(4, 3), entry(-1, 3), entry(7, 3)];
        let next = page.next_version(Epoch(3), remove, add.clone());

        // Same contents as the definition: filter, extend, sort.
        let mut expected: Vec<PageEntry> = page
            .entries
            .iter()
            .filter(|e| e.id != gone_a && e.id != gone_b)
            .cloned()
            .chain(add)
            .collect();
        expected.sort();
        assert_eq!(next.entries.iter().cloned().collect::<Vec<_>>(), expected);
        assert_eq!(next.len(), 10 - 2 + 4);
        assert!(next.entries.iter().all(|e| e.position == e.id.hash_key()));

        let version_of = |k| current_version_of(&next, &[Value::Int(k)]);
        assert_eq!(version_of(4).unwrap().id, tid(4, 3));
        assert_eq!(version_of(6).unwrap().id, tid(6, 0));
        assert!(version_of(10).is_none());
        assert!(version_of(99).is_none());
    }

    #[test]
    fn next_version_drops_every_copy_of_a_removed_id() {
        // A page can list one ID twice, and a remove list can name one key
        // twice; either way every copy of the key's oldest version goes and
        // nothing else does, not even a newer version of the key.
        let page = IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![
                entry(1, 0),
                entry(1, 0),
                entry(2, 0),
                entry(2, 1),
                entry(3, 0),
            ],
        );
        let keys = [1, 2, 3].map(|k| [Value::Int(k)]);
        let remove = vec![&keys[2][..], &keys[0], &keys[1], &keys[2]];
        let next = page.next_version(Epoch(2), remove, vec![entry(1, 2)]);
        let listed: Vec<PageEntry> = next.entries.iter().cloned().collect();
        assert_eq!(listed, vec![entry(1, 2), entry(2, 1)]);
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
